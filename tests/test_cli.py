import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncg_ymh import action, cli, clifford, dirac, fluct, sampler, verify
from ncg_ymh.verify import run_identity_suite


def run(argv):
    return cli.main(argv)


def run_process(argv, address_space=None):
    """The CLI in a fresh interpreter, optionally under its own RLIMIT_AS."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    limit = None if address_space is None else \
        (lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, "-m", "ncg_ymh.cli", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=limit, timeout=120)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    path = str(tmp_path / "m.json")
    cli.save_matrix(path, M)
    back = cli.load_matrix(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)


def test_matrix_bad_payload(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}, fh)
    with pytest.raises(cli.ConfigError):
        cli.load_matrix(path)


def test_verify_single_signature(tmp_path):
    cfg = write_config(tmp_path, {"geometry": {"p": 2, "q": 2}, "out": str(tmp_path)})
    assert run(["verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["pass"] is True
    rows = report["signatures"]["(2,2)"]
    assert all(r["pass"] for r in rows)
    assert {"identity", "max_deviation", "tolerance", "pass"} <= set(rows[0])


@pytest.mark.parametrize("p,q,count", [(0, 4, 40), (1, 3, 35), (2, 2, 35), (3, 1, 35),
                                          (4, 0, 35)])
def test_identity_suite_shape(p, q, count):
    # the report rows, and the benchmark's verify replay, count these entries
    names = [r.name for r in run_identity_suite(p, q)]
    assert len(names) == len(set(names)) == count


def test_every_verify_draw_has_its_own_stream(monkeypatch):
    # each generator of the five suites is made by default_rng from a SeedSequence, never
    # an int, and no (entropy, spawn_key) is made twice; a Generator handed to default_rng
    # again, as `dirac.stream`'s are handed to the draws, is one made so, and no one of
    # them is handed on twice, so no stream feeds two draws
    seen, made, handed = [], [], []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, np.random.Generator):
            assert any(seed is rng for rng in made), f"default_rng({seed!r})"
            handed.append(id(seed))
            return seed
        assert isinstance(seed, np.random.SeedSequence), f"default_rng({seed!r})"
        seen.append((seed.entropy, seed.spawn_key))
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    for p, q in [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]:
        run_identity_suite(p, q)
    assert len(seen) == len(set(seen)) > 0
    assert len(handed) == len(set(handed))


def test_verify_runs_suites_in_signature_order(tmp_path, monkeypatch, capsys):
    # one suite after another, in signature order; the summary lines, the report's keys
    # and a suite's exception all follow that order, whatever NCG_YMH_THREADS holds
    monkeypatch.setenv("NCG_YMH_THREADS", "zzz")
    calls = []

    def suite(p, q, seed):
        calls.append((p, q))
        if (p, q) == (2, 2) and seed == 1:
            raise RuntimeError("suite (2,2) broke")
        return [verify.IdentityResult(f"id{p}{q}", 0.0, 1e-12)]

    monkeypatch.setattr(cli, "run_identity_suite", suite)
    assert run(["verify", "--signatures", "all", "--out", str(tmp_path)]) == 0
    assert calls == cli._SIGNATURES
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == \
        [f"({p},{q})" for p, q in cli._SIGNATURES] + ["report"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert list(report) == ["pass", "signatures"]
    assert list(report["signatures"]) == [f"({p},{q})" for p, q in cli._SIGNATURES]

    calls.clear()
    (tmp_path / "verify_report.json").unlink()
    with pytest.raises(RuntimeError, match="suite"):
        run(["verify", "--signatures", "all", "--seed", "1", "--out", str(tmp_path)])
    assert calls == [(0, 4), (1, 3), (2, 2)]
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_rejects_bad_signature(tmp_path):
    cfg = write_config(tmp_path, {"geometry": {"p": 1, "q": 2}, "out": str(tmp_path)})
    assert run(["verify", "--config", cfg]) == 2


def test_action_zero_fields(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "zero"},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 0
    out = json.loads((tmp_path / "action_breakdown.json").read_text())
    for key in ("s_ym", "s_h", "s_gh", "s_theta", "total_closed", "total_direct"):
        assert out[key] == 0.0


def test_action_random_fields_dual_path(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "fields": {"source": "random", "seed": 7},
        "poly": [0.0, 0.5, 0.0, 1.0],
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 0
    out = json.loads((tmp_path / "action_breakdown.json").read_text())
    assert abs(out["total_closed"] - out["total_direct"]) \
        <= 1e-9 * max(1.0, abs(out["total_direct"]))
    assert out["positivity_applicable"] is True
    assert out["s_ym"] >= -1e-10 and out["s_h"] >= -1e-10 and out["s_theta"] >= -1e-10


def test_action_negative_a4_flagged(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "random", "seed": 3},
        "poly": [0.0, 1.0, 0.0, -0.5],
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 0
    out = json.loads((tmp_path / "action_breakdown.json").read_text())
    assert out["positivity_applicable"] is False


def test_action_lorentzian_matches_direct_trace(tmp_path):
    cfg = {
        "geometry": {"p": 1, "q": 3, "N": 2, "n": 2},
        "fields": {"source": "random", "seed": 1},
        "out": str(tmp_path),
    }
    assert run(["action", "--config", write_config(tmp_path, cfg)]) == 0
    out = json.loads((tmp_path / "action_breakdown.json").read_text())
    assert abs(out["total_closed"] - out["total_direct"]) \
        <= 1e-9 * max(1.0, abs(out["total_direct"]))
    # bit for bit: rest is the difference of the two totals, total_direct the dense
    # trace of the same inputs
    assert out["rest"] == out["total_direct"] - out["total_closed"]
    resolved = cli.resolve(cfg)
    gt, fl = cli._fields(resolved)
    D = fluct.assemble_fluctuated(gt, fl, clifford.build_gammas(gt.sig))
    assert out["total_direct"] == action.spectral_action_direct(D, cli._poly(resolved))


def test_action_from_matrix_files(tmp_path):
    rng = np.random.default_rng(5)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    L0 = (H - H.conj().T) / 2
    l0_path = str(tmp_path / "L0.json")
    cli.save_matrix(l0_path, L0)
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "files", "K": {"mu0": l0_path}},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 0
    out = json.loads((tmp_path / "action_breakdown.json").read_text())
    assert abs(out["total_closed"] - out["total_direct"]) \
        <= 1e-9 * max(1.0, abs(out["total_direct"]))


def test_spectrum_zero_data(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "zero"},
        "out": str(tmp_path),
    })
    assert run(["spectrum", "--config", cfg]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert len(rows) - 1 == 4 * 2 * 2 * 2 * 2  # 64 rows
    assert all(float(r[1]) == 0.0 for r in rows[1:])


def test_spectrum_chiral_pairing(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "random", "seed": 2, "include_x": True,
                   "fluctuation": False},
        "out": str(tmp_path),
        "histogram_bins": 8,
    })
    assert run(["spectrum", "--config", cfg]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        ev = np.array([float(r["eigenvalue"]) for r in csv.DictReader(fh)])
    assert len(ev) == 64
    np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)
    hist = json.loads((tmp_path / "spectrum_histogram.json").read_text())
    assert sum(hist["counts"]) == 64
    assert len(hist["bin_edges"]) == 9


def test_sample_header_only_when_no_records(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "sampler": {"steps": 5, "burn_in": 5},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 0
    lines = (tmp_path / "records.csv").read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("step,S_total")
    # a rate over no proposals is undefined: null, not 0.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["acceptance"] is None
    assert summary["acceptance_by_field"] == {"A0": None, "A1": None, "A2": None, "A3": None}
    # and so are the autocorrelation time and effective size of no records
    assert summary["s_ym"]["tau_int"] is None
    assert summary["s_ym"]["ess"] is None


def test_sample_trailing_zero_coefficients(tmp_path):
    # [0, 1, 0, 1, 0, 0] is the quartic [0, 1, 0, 1]: accepted, and the same chain
    outs = []
    for i, poly in enumerate(([0.0, 1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0])):
        outs.append(tmp_path / f"run{i}")
        cfg = write_config(tmp_path, {
            "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"}, "poly": poly,
            "sampler": {"steps": 30, "burn_in": 10}, "out": str(outs[-1])}, f"c{i}.json")
        assert run(["sample", "--config", cfg]) == 0
    assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()


def test_sample_deterministic_csv(tmp_path):
    base = {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "sampler": {"steps": 30, "burn_in": 10},
    }
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg1 = write_config(tmp_path, {**base, "out": str(out1)}, "c1.json")
    cfg2 = write_config(tmp_path, {**base, "out": str(out2)}, "c2.json")
    assert run(["sample", "--config", cfg1, "--seed", "42"]) == 0
    assert run(["sample", "--config", cfg2, "--seed", "42"]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["seed"] == 42
    assert "s_total" in summary and "step_sizes" in summary


def test_sample_lorentzian(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 1, "q": 3, "N": 2, "n": 2, "d_f": "random"},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["acceptance_by_field"]) == ["A0", "A1", "A2", "A3", "phi"]


def test_sample_draws_no_fluctuation(tmp_path, monkeypatch):
    # the chain starts from A = 0 and phi = 0: only the template's blocks are drawn
    calls = []
    monkeypatch.setattr(fluct, "random_fluctuation", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 4, "n": 2, "d_f": "random"},
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 0
    assert calls == []


def test_sample_nonconfining_poly_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "poly": [0.0, 1.0, 0.0, -1.0],
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 2


def test_sample_self_test_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "sampler": {"steps": 5000},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg, "--self-test", "--seed", "1"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mode"] == "gaussian-self-test"
    assert abs(summary["mean_tr_m2"] - 2.0) <= 5 * summary["stderr"]
    with open(tmp_path / "samples.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "tr_m2"]
    assert len(rows) - 1 == 5000


def test_missing_config_file():
    assert run(["verify", "--config", "/nonexistent/conf.json"]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrix_file_is_config_error(tmp_path, capsys, bad):
    df_path = str(tmp_path / "DF.json")
    cli.save_matrix(df_path, np.array([[1.0, bad], [bad, 0.0]]))
    with pytest.raises(cli.ConfigError):
        cli.load_matrix(df_path)
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": df_path},
        "out": str(tmp_path),
    })
    for command in ("action", "spectrum"):
        assert run([command, "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err


def test_wrong_adjointness_block_file_is_config_error(tmp_path, capsys):
    rng = np.random.default_rng(6)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    l0_path = str(tmp_path / "L0.json")
    cli.save_matrix(l0_path, H + H.conj().T)  # (0,4) needs K_0* = -K_0
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "files", "K": {"mu0": l0_path}},
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["action", "spectrum"])
@pytest.mark.parametrize("which", ["K", "D_F", "A", "phi"])
def test_wrong_shape_matrix_file_is_config_error(tmp_path, capsys, command, which):
    # N = n = 2: K blocks and D_F are 2 x 2, A and phi are 4 x 4; each file is 3 x 3
    path = str(tmp_path / "bad.json")
    cli.save_matrix(path, np.zeros((3, 3)))
    geometry = {"p": 0, "q": 4, "N": 2, "n": 2}
    fields = {"source": "files"}
    if which == "D_F":
        geometry["d_f"] = path
    elif which == "K":
        fields["K"] = {"mu0": path}
    elif which == "A":
        fields["A"] = [path]
    else:
        fields["phi"] = path
    cfg = write_config(tmp_path, {"geometry": geometry, "fields": fields,
                                  "out": str(tmp_path)})
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(3, 3)" in err


@pytest.mark.parametrize("command", ["action", "spectrum"])
@pytest.mark.parametrize("d_f", [None, "c1"])
def test_nonzero_phi_for_a_scalar_d_f_is_config_error(tmp_path, capsys, command, d_f):
    # phi = 0 when D_F = c 1 (the Higgs space is 0): a nonzero phi file is refused
    # before out is made, a zero one is read
    geometry = {"p": 0, "q": 4, "N": 2, "n": 2}
    if d_f == "c1":
        geometry["d_f"] = str(tmp_path / "d_f.json")
        cli.save_matrix(geometry["d_f"], 0.7 * np.eye(2))
    phi, out = str(tmp_path / "phi.json"), tmp_path / "out"
    cfg = write_config(tmp_path, {"geometry": geometry, "fields": {"source": "files", "phi": phi},
                                  "out": str(out)})
    cli.save_matrix(phi, np.ones((4, 4)))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fields.phi") and err.count("\n") == 1
    assert not out.exists()
    cli.save_matrix(phi, np.zeros((4, 4)))
    assert run([command, "--config", cfg]) == 0


def test_more_than_four_potential_files_is_config_error(tmp_path, capsys):
    path = str(tmp_path / "A.json")
    cli.save_matrix(path, np.zeros((4, 4)))
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "fields": {"source": "files", "A": [path] * 5},
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("message, cfg", [
    ("unknown key 'geometri' in config", {"geometri": {"N": 2}}),
    ("unknown key 'NN' in geometry", {"geometry": {"p": 0, "q": 4, "NN": 3}}),
    ("unknown key 'sorce' in fields", {"fields": {"sorce": "zero"}}),
    ("unknown key 'step' in sampler", {"sampler": {"step": 10}}),
    ("unknown key 'L' in sampler.step_sizes",
     {"sampler": {"step_sizes": {"L": 0.03, "A": 0.02}}}),
    ("geometry must be a JSON object", {"geometry": [0, 4]}),
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, message, cfg):
    path = write_config(tmp_path, {**cfg, "out": str(tmp_path)})
    assert run(["action", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, cfg, key", [
    ("action", {"geometry": {"N": "two"}}, "geometry.N"),
    ("action", {"geometry": {"N": 2.5}}, "geometry.N"),
    ("action", {"geometry": {"N": 0}}, "geometry.N"),
    ("action", {"geometry": {"N": -2}}, "geometry.N"),
    ("action", {"geometry": {"n": 0}}, "geometry.n"),
    ("action", {"poly": ["a", 1]}, "poly"),
    ("action", {"poly": []}, "poly"),
    ("spectrum", {"fields": {"scale": "big"}}, "fields.scale"),
    ("spectrum", {"histogram_bins": "x"}, "histogram_bins"),
    ("sample", {"sampler": {"step_sizes": {"A": "x"}}}, "sampler.step_sizes.A"),
    ("sample", {"sampler": {"autotune": "no"}}, "sampler.autotune"),
    ("sample", {"seed": -1}, "seed"),
])
def test_config_value_of_wrong_type_or_range_is_config_error(tmp_path, capsys, command, cfg,
                                                             key):
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, {**cfg, "out": str(out)})]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1, err
    assert not out.exists()  # refused before anything was made


def test_self_test_without_steps_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sampler": {"steps": 0}, "out": str(tmp_path)})
    assert run(["sample", "--config", cfg, "--self-test"]) == 2
    assert capsys.readouterr().err.startswith("config error: sampler.steps must be >= 1")


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("steps, burn_in, self_test", [(5, 5, False), (6, 5, False),
                                                       (1, 0, True)])
def test_sample_summary_is_strict_json(tmp_path, steps, burn_in, self_test):
    # the self test reads no geometry
    geometry = {} if self_test else {"geometry": {"N": 2, "n": 2, "d_f": "random"}}
    cfg = write_config(tmp_path, {**geometry, "sampler": {"steps": steps, "burn_in": burn_in},
                                  "out": str(tmp_path)})
    assert run(["sample", "--config", cfg] + ["--self-test"] * self_test) == 0
    summary = _strict_json((tmp_path / "summary.json").read_text())
    if self_test:
        # one sample has no error, so whether the target lies within 3 of them is undefined
        assert summary["stderr"] is None and summary["within_3se"] is None
        assert summary["mean_tr_m2"] >= 0
        return
    records = steps - burn_in
    assert summary["n_records"] == records
    for name in ("s_total", "s_ym", "s_h", "s_gh", "s_theta"):
        # a mean needs one record and a batch-means error two; undefined ones are null
        assert (summary[name]["mean"] is None) == (records == 0)
        assert summary[name]["stderr"] is None


@pytest.mark.parametrize("key", ["A", "phi", "fluctuation"])
def test_sample_refuses_potential_and_higgs_files(tmp_path, capsys, key):
    # the chain starts from A = 0 and phi = 0, so it reads none of these keys
    path = str(tmp_path / "field.json")
    cli.save_matrix(path, np.zeros((4, 4)))
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "fields": {"source": "files", key: {"A": [path], "phi": path, "fluctuation": False}[key]},
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: fields.{key}")


@pytest.mark.parametrize("key", ["A", "phi", "D_F"])
def test_wrong_adjointness_field_file_is_config_error(tmp_path, capsys, key):
    if key == "D_F":
        # D_F must be Hermitian; a file that is not is refused, never symmetrized
        path = str(tmp_path / "d_f.json")
        cli.save_matrix(path, np.array([[1.0, 5.0], [0.0, 2.0]]))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": path},
                                      "sampler": {"steps": 5, "burn_in": 0}, "out": str(out)})
        for mode in ("action", "spectrum", "sample"):
            assert run([mode, "--config", cfg]) == 2
            assert capsys.readouterr().err == \
                f"config error: {path}: D_F violates its adjointness type (M* = +1 M)\n"
            assert not out.exists()  # refused before anything was made
        return
    rng = np.random.default_rng(8)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + H.conj().T
    path = str(tmp_path / "field.json")
    # (0,4) needs A_mu* = -A_mu and phi* = phi
    cli.save_matrix(path, H if key == "A" else 1j * H)
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "fields": {"source": "files", key: [path] if key == "A" else path},
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}") and "adjointness" in err


def test_sample_sextic_poly_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2},
        "poly": [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 2
    assert "degree 6" in capsys.readouterr().err


def test_sample_uses_the_sampler_default_step_sizes(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "sampler": {"steps": 3, "burn_in": 0, "autotune": False},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 0
    steps = json.loads((tmp_path / "summary.json").read_text())["step_sizes"]
    assert steps == {"A0": 0.08, "A1": 0.08, "A2": 0.08, "A3": 0.08, "phi": 0.1}


HUGE_FIELDS = {"geometry": {"N": 2, "n": 2, "d_f": "random"}, "fields": {"scale": 1e100}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_action_non_finite_is_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**HUGE_FIELDS, "out": str(tmp_path)})
    assert run(["action", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite action")
    assert not (tmp_path / "action_breakdown.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sample_nan_chain_is_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**HUGE_FIELDS, "sampler": {"steps": 20, "burn_in": 5},
                                  "out": str(tmp_path)})
    assert run(["sample", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: initial action nan")
    assert not (tmp_path / "records.csv").exists()


def test_sample_burn_in_error_names_the_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sampler": {"steps": 5}, "out": str(tmp_path)})
    assert run(["sample", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "sampler.steps = 5" in err and "sampler.burn_in = 50 (the default)" in err


@pytest.mark.parametrize("command", ["action", "sample"])
def test_overflow_is_one_error_line_and_no_warning(tmp_path, command):
    cfg = write_config(tmp_path, {**HUGE_FIELDS, "out": str(tmp_path)})
    res = run_process([command, "--config", cfg])
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "RuntimeWarning" not in res.stderr


@pytest.mark.parametrize("command", ["spectrum", "action"])
def test_dense_operator_beyond_memory_is_config_error(tmp_path, command):
    # N = 40, n = 2: D alone takes 9.8 GiB; under a 2 GiB address-space limit an
    # unguarded run fails its allocation instead of making it
    cfg = write_config(tmp_path, {"geometry": {"N": 40, "n": 2}, "out": str(tmp_path)})
    res = run_process([command, "--config", cfg], address_space=2 << 30)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: ") and res.stderr.count("\n") == 1
    assert "N = 40, n = 2" in res.stderr and "19.5 GiB" in res.stderr
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("poly,code", [([0, 1, 0, 1], 0), ([0, 1, 0, 0, 0, 1], 2)])
def test_dense_guard_counts_the_poly_degree(tmp_path, monkeypatch, capsys, poly, code):
    # N = n = 2: D takes 256 m^4 bytes, m = 4.  Under a limit of 2.2 D the quartic (D and
    # D^2, 2 D) fits, and a sextic (D and two of its powers, 2.5 D) is refused unbuilt
    soft = int(2.2 * 256 * 4 ** 4)
    monkeypatch.setattr(cli.resource, "getrlimit", lambda _: (soft, resource.RLIM_INFINITY))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"geometry": {"N": 2, "n": 2}, "poly": poly, "out": str(out)})
    assert run(["action", "--config", cfg]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and os.listdir(out) == ["action_breakdown.json"]
    else:
        assert err.startswith("config error: the dense Dirac operator at N = 2, n = 2 needs ")
        assert "degree 6" in err and err.count("\n") == 1, err
        assert not out.exists()  # refused before anything was made


@pytest.mark.parametrize("command", ["action", "spectrum"])
def test_operator_that_overflows_is_one_error_line(tmp_path, command):
    # K_0 = i diag(1e308, -1e308) is finite, but D's diagonal sums overflow
    path = str(tmp_path / "k0.json")
    cli.save_matrix(path, 1j * np.diag([1e308, -1e308]))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"geometry": {"N": 2, "n": 1},
                                  "fields": {"source": "files", "K": {"mu0": path}},
                                  "out": str(out)})
    res = run_process([command, "--config", cfg])
    assert res.returncode == 1
    assert res.stderr == "error: operator has non-finite entries\n", res.stderr
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error")  # a numpy warning fails the test
@pytest.mark.parametrize("scale,command", [(1e308, "action"), (1e308, "spectrum"),
                                           (1e308, "sample"), (6e307, "action"),
                                           (6e307, "spectrum")])
def test_fields_that_overflow_are_config_error(tmp_path, capsys, scale, command):
    # at 1e308 the K blocks overflow; at 6e307 they are finite at seed 0, but the
    # fluctuation is not (a chain draws none)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**HUGE_FIELDS, "fields": {"scale": scale}, "out": str(out)})
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: fields.scale = {scale!r} is too large: ")
    assert err.count("\n") == 1, err
    assert not out.exists()  # refused before anything was made


@pytest.mark.parametrize("bins", [10 ** 12, 10 ** 20])
def test_histogram_beyond_memory_is_one_config_error_line(tmp_path, capsys, bins):
    # refused before D is built and spectrum.csv is written, not by numpy's histogram
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"histogram_bins": bins, "out": str(out)})
    assert run(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: the spectrum histogram at histogram_bins = {bins} "
                          "needs ") and err.count("\n") == 1, err
    assert not out.exists()  # refused before anything was made


def test_spectrum_histogram_bins_the_written_eigenvalues(tmp_path, monkeypatch):
    cfg = {"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
           "histogram_bins": 8, "seed": 3, "out": str(tmp_path)}
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda D: calls.append(D.shape) or eigvalsh(D))
    assert run(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
    assert calls == [(64, 64)]
    # byte-identical to the histogram of a second diagonalisation of the same D
    gt, fl = cli._fields(cli.resolve(cfg))
    D = fluct.assemble_fluctuated(gt, fl, clifford.build_gammas(gt.sig))
    edges, counts = sampler.symmetric_histogram(np.linalg.eigvalsh(D), 8)
    want = json.dumps({"bin_edges": list(map(float, edges)), "counts": list(map(int, counts))},
                      indent=1)
    assert (tmp_path / "spectrum_histogram.json").read_text() == want


def test_spectrum_csv_writes_each_eigenvalue_as_its_float_repr(tmp_path):
    # numpy's floats go to csv as repr(float(x)), which reads back bit-exactly
    cfg = {"geometry": {"N": 2, "n": 2, "d_f": "random"}, "seed": 3, "out": str(tmp_path)}
    assert run(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
    gt, fl = cli._fields(cli.resolve(cfg))
    ev = np.linalg.eigvalsh(fluct.assemble_fluctuated(gt, fl, clifford.build_gammas(gt.sig)))
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["index", "eigenvalue"], *([str(i), repr(float(x))] for i, x in enumerate(ev))]


def test_sample_summary_reports_autocorrelation_and_acceptance(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "sampler": {"steps": 120, "burn_in": 50, "thin": 2},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    s_ym = summary["s_ym"]
    assert s_ym["tau_int"] >= 0.5
    assert s_ym["ess"] == pytest.approx(summary["n_records"] / (2 * s_ym["tau_int"]))
    assert set(summary["acceptance_by_field"]) == {"A0", "A1", "A2", "A3", "phi"}
    assert [entry["sweep"] for entry in summary["step_size_trajectory"]] == [24, 49]
    assert summary["step_size_trajectory"][-1]["step_sizes"] == summary["step_sizes"]


def test_sample_divergence_after_burn_in_is_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "geometry": {"N": 2, "n": 2}, "fields": {"source": "zero"}, "poly": [0, -1e13, 0, 1],
        "sampler": {"steps": 40, "burn_in": 0}, "seed": 1, "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 1
    assert "at sweep" in capsys.readouterr().err
    assert not (tmp_path / "records.csv").exists()


# JSON arrays nested deeper than the decoder's recursion limit
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _write_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("case", [
    "config-not-json", "missing-K-file", "missing-A-file", "missing-phi-file",
    "matrix-without-rows", "matrix-without-cols", "matrix-without-data", "K-key-hatX",
    "K-key-mu9", "K-not-an-object", "A-a-string", "poly-int-beyond-float", "config-a-list",
    "config-nested-too-deep", "matrix-nested-too-deep",
])
def test_malformed_input_is_one_config_error_line(tmp_path, capsys, case):
    good = {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 4}
    fields = {"source": "files"}
    cfg = {"geometry": {"p": 0, "q": 4, "N": 2, "n": 2}, "fields": fields}
    if case.startswith("missing-"):
        key, missing = case.split("-")[1], str(tmp_path / "missing.json")
        fields[key] = {"K": {"mu0": missing}, "A": [missing], "phi": missing}[key]
    elif case.startswith("matrix-without-"):
        del good[case.rsplit("-", 1)[1]]
        fields["K"] = {"mu0": _write_file(tmp_path, "L0.json", good)}
    elif case.startswith("K-key-"):
        fields["K"] = {case.rsplit("-", 1)[1]: _write_file(tmp_path, "K.json", good)}
    elif case == "K-not-an-object":
        fields["K"] = [_write_file(tmp_path, "K.json", good)]
    elif case == "A-a-string":
        fields["A"] = "A.js"  # short enough to pass for four one-letter paths
    elif case == "poly-int-beyond-float":
        cfg["poly"] = [0, 1, 0, 10 ** 400]
    elif case == "matrix-nested-too-deep":
        cfg["geometry"]["d_f"] = _write_file(tmp_path, "D_F.json", _TOO_DEEP)
    if case == "config-not-json":
        path = _write_file(tmp_path, "config.json", '{"geometry": {"N": 2,}}')
    elif case == "config-a-list":
        path = _write_file(tmp_path, "config.json", [cfg])
    elif case == "config-nested-too-deep":
        path = _write_file(tmp_path, "config.json", _TOO_DEEP)
    else:
        path = write_config(tmp_path, cfg)
    assert run(["action", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, key", [
    # the first sampler block and seed 1 used to be dropped without a word
    ("sample", '{"sampler": {"steps": 100, "burn_in": 10}, "sampler": {"thin": 2}, '
               '"seed": 1, "seed": 3}', "sampler"),
    ("action", '{"geometry": {"N": 2, "N": 3}}', "N"),
    ("action", '{"rows": 2, "rows": 3, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], '
               '[0.0, 0.0], [1.0, 0.0]]}', "rows"),  # a D_F file
], ids=["block", "nested", "matrix-file"])
def test_a_repeated_key_is_one_config_error_line(tmp_path, capsys, command, text, key):
    path = _write_file(tmp_path, "given.json", text)
    if key == "rows":
        path = write_config(tmp_path, {"geometry": {"d_f": path}})
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {tmp_path / 'given.json'}: key {key!r} is repeated\n"
    assert not out.exists()  # refused before anything was made


@pytest.mark.parametrize("command, cfg, key", [
    ("verify", {"signatures": "both"}, "signatures"),
    ("verify", {"signatures": 3}, "signatures"),
    ("action", {"fields": {"source": "file"}}, "fields.source"),
])
def test_value_outside_its_allowed_set_is_config_error(tmp_path, capsys, command, cfg, key):
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, {**cfg, "out": str(out)})]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be one of ")
    assert not out.exists()  # refused before anything was made


@pytest.mark.parametrize("command", ["verify", "action", "spectrum", "sample"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "taken"
    path.write_text("a file")
    assert run([command, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out: cannot make the output directory {path}") \
        and err.count("\n") == 1, err
    assert path.read_text() == "a file"


@pytest.mark.parametrize("argv, name", [
    (["verify"], "verify_report.json"),
    (["action"], "action_breakdown.json"),
    (["spectrum"], "spectrum.csv"),
    (["spectrum", "--config", "bins.json"], "spectrum_histogram.json"),
    (["sample", "--config", "short.json"], "records.csv"),
    (["sample", "--config", "short.json"], "summary.json"),
    (["sample", "--self-test", "--config", "short.json"], "samples.csv"),
    (["sample", "--self-test", "--config", "short.json"], "summary.json"),
], ids=["verify", "action", "spectrum", "histogram", "chain-records", "chain-summary",
        "self-test-samples", "self-test-summary"])
def test_a_file_that_cannot_be_written_is_one_config_error_line(tmp_path, monkeypatch, capsys,
                                                                  argv, name):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, {"histogram_bins": 4}, name="bins.json")
    write_config(tmp_path, {"sampler": {"steps": 12, "burn_in": 2}}, name="short.json")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out: cannot write {out / name}: ") \
        and err.count("\n") == 1, err


# per case: the command and a config that it refuses with exit 2, each after the config
# resolves; d_f.json holds a repeated key
REFUSED = {
    "unread key": (["action"], {"histogram_bins": 5}),
    "verify unread key": (["verify"], {"geometry": {"N": 3}}),
    "action D beyond memory": (["action"], {"geometry": {"N": 10 ** 80}}),
    "spectrum D beyond memory": (["spectrum"], {"geometry": {"N": 10 ** 80}}),
    "histogram beyond memory": (["spectrum"], {"histogram_bins": 10 ** 20}),
    "chain beyond memory": (["sample"], {"geometry": {"N": 10 ** 80}}),
    "self test beyond memory": (["sample", "--self-test"], {"sampler": {"steps": 10 ** 80}}),
    "repeated key in a D_F file": (["action"], {"geometry": {"d_f": "d_f.json"}}),
    "steps < burn_in": (["sample"], {"sampler": {"steps": 5, "burn_in": 10}}),
    "self test steps 0": (["sample", "--self-test"], {"sampler": {"steps": 0}}),
    "sextic poly for a chain": (["sample"], {"poly": [0, 1, 0, 0, 0, 1]}),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_no_refusal_leaves_out_behind(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    _write_file(tmp_path, "d_f.json", '{"rows": 1, "rows": 1, "cols": 1, "data": [[1.0, 0.0]]}')
    argv, cfg = REFUSED[case]
    out = tmp_path / "out"
    assert run([*argv, "--config", write_config(tmp_path, {**cfg, "out": str(out)})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not out.exists()  # refused before anything was made


# per case: the command, its config and how its config error begins
HUGE = {
    "action": (["action"], {"geometry": {"N": 10 ** 80}}, "the dense Dirac operator"),
    "spectrum": (["spectrum"], {"geometry": {"N": 10 ** 80}}, "the dense Dirac operator"),
    "sample": (["sample"], {"geometry": {"N": 10 ** 80}}, "the chain at geometry.N = 1000"),
    "sample-N-1e9": (["sample"], {"geometry": {"N": 10 ** 9}},
                     "the chain at geometry.N = 1000000000,"),
    "self-test-N": (["sample", "--self-test"], {"sampler": {"self_test_N": 10 ** 80}},
                    "the Gaussian self test at sampler.self_test_N = 1000"),
    "self-test-steps": (["sample", "--self-test"], {"sampler": {"steps": 10 ** 80}},
                        "the Gaussian self test at sampler.self_test_N = 2, sampler.steps = 1000"),
    "chain-self-test-N": (["sample"], {"sampler": {"self_test_N": 10 ** 80}},
                          "sampler.self_test_N is not read by a chain"),
}


@pytest.mark.parametrize("case", list(HUGE))
def test_huge_N_is_one_config_error_line(tmp_path, case):
    # 256 m^4 bytes at N = 10^80 is beyond a float in GiB; every size is refused before
    # anything of that size is allocated
    argv, cfg, what = HUGE[case]
    path = write_config(tmp_path, {**cfg, "out": str(tmp_path)})
    res = run_process([*argv, "--config", path])
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"config error: {what}") \
        and res.stderr.count("\n") == 1, res.stderr
    if argv[0] != "sample":
        assert "7.63e+314 GiB" in res.stderr
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("fields, key", [
    ({"phi": "/nonexistent.json"}, "phi"),
    ({"source": "random", "A": ["A0.json"]}, "A"),
    ({"source": "random", "K": {"hat1": "X1.json"}}, "K.hat1"),
    ({"source": "files", "seed": 3}, "seed"),
    ({"source": "files", "scale": 0.5}, "scale"),
    ({"source": "zero", "include_x": True}, "include_x"),
    ({"source": "files", "fluctuation": False, "A": ["A0.json"]}, "A"),
    ({"source": "files", "fluctuation": False, "phi": "phi.json"}, "phi"),
])
def test_fields_key_the_source_does_not_read_is_config_error(tmp_path, capsys, fields, key):
    cfg = write_config(tmp_path, {"fields": fields, "out": str(tmp_path)})
    assert run(["action", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: fields.{key} is not read when fields.source is "), err
    assert not (tmp_path / "action_breakdown.json").exists()


# per case: a command that does not read a key and a config setting that key to other
# than its default (verify's suites run at N = n = 2 with their own D_F; the self test and
# the chain each read their own sampler keys, and the self test reads no geometry, fields
# or poly).  A case is named by the key, or by the command's mode and the key.
UNREAD = {
    "geometry.N": (["verify"], {"geometry": {"N": 6}}),
    "geometry.n": (["verify"], {"geometry": {"n": 3}}),
    "geometry.d_f": (["verify"], {"geometry": {"d_f": "/nonexistent_df.json"}}),
    "sampler.thin": (["sample", "--self-test"], {"sampler": {"thin": 5}}),
    "sampler.step_sizes.A": (["sample", "--self-test"], {"sampler": {"step_sizes": {"A": 0.3}}}),
    "sampler.step_sizes.phi": (["sample", "--self-test"],
                               {"sampler": {"step_sizes": {"phi": 0.3}}}),
    "sampler.autotune": (["sample", "--self-test"], {"sampler": {"autotune": False}}),
    "sampler.self_test_N": (["sample"], {"sampler": {"self_test_N": 7}}),
    # a missing D_F file, a missing phi file and a sextic poly, none of which it reads
    "self-test geometry.N": (["sample", "--self-test"], {
        "geometry": {"N": 6, "d_f": "/nonexistent_df.json"},
        "fields": {"source": "files", "phi": "/nonexistent.json"},
        "poly": [0, 1, 0, 0, 0, -1], "sampler": {"steps": 100}}),
    "self-test geometry.n": (["sample", "--self-test"], {"geometry": {"n": 3}}),
    "self-test geometry.d_f": (["sample", "--self-test"],
                               {"geometry": {"d_f": "/nonexistent_df.json"}}),
    "self-test geometry.p": (["sample", "--self-test"], {"geometry": {"p": 1, "q": 3}}),
    "self-test fields.source": (["sample", "--self-test"], {"fields": {"source": "zero"}}),
    "self-test fields.seed": (["sample", "--self-test"], {"fields": {"seed": 5}}),
    "self-test fields.include_x": (["sample", "--self-test"], {"fields": {"include_x": True}}),
    "self-test fields.K.hat1": (["sample", "--self-test"],
                                {"fields": {"K": {"hat1": "/nonexistent.json"}}}),
    "self-test fields.phi": (["sample", "--self-test"], {"fields": {"phi": "/nonexistent.json"}}),
    "self-test poly": (["sample", "--self-test"], {"poly": [0, 1, 0, 0, 0, -1]}),
}


@pytest.mark.parametrize("key", list(UNREAD))
def test_key_the_command_does_not_read_is_config_error(tmp_path, capsys, key):
    argv, cfg = UNREAD[key]
    key = key.split()[-1]
    out = tmp_path / "out"
    assert run([*argv, "--config", write_config(tmp_path, {**cfg, "out": str(out)})]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} is not read by ") and err.count("\n") == 1, err
    assert not out.exists()  # refused before anything was made


def test_self_test_reads_burn_in(tmp_path):
    written = {}
    for burn_in in (None, 7):
        sp = {"steps": 50} if burn_in is None else {"steps": 50, "burn_in": burn_in}
        out = tmp_path / f"burn_in_{burn_in}"
        path = write_config(tmp_path, {"sampler": sp, "out": str(out)})
        assert run(["sample", "--self-test", "--config", path]) == 0
        with open(out / "samples.csv") as fh:
            written[burn_in] = [float(row["tr_m2"]) for row in csv.DictReader(fh)]
    assert written[None] != written[7]
    for burn_in, default in ((None, 1000), (7, 7)):
        res = sampler.gaussian_self_test(N=2, samples=50, seed=0, burn_in=default)
        assert written[burn_in] == res["samples"].tolist()


def test_fields_keys_at_their_defaults_and_fluctuation_are_read_by_every_source(tmp_path):
    # a key set to its default, or fluctuation (which action and spectrum read), is no conflict
    for fields in ({"source": "zero", "fluctuation": False, "seed": 4, "phi": None},
                   {"source": "files", "fluctuation": False, "include_x": False},
                   {"source": "random", "K": {"mu0": None}, "A": []}):
        cfg = write_config(tmp_path, {"fields": fields, "seed": 4, "out": str(tmp_path)})
        assert run(["spectrum", "--config", cfg]) == 0, fields


def test_action_and_spectrum_agree_without_fluctuation(tmp_path):
    # a files source with K blocks only and fluctuation false: both read the product D
    rng = np.random.default_rng(11)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    l0_path = str(tmp_path / "L0.json")
    cli.save_matrix(l0_path, (H - H.conj().T) / 2)
    cfg = write_config(tmp_path, {
        "geometry": {"N": 2, "n": 2, "d_f": "random"},
        "fields": {"source": "files", "K": {"mu0": l0_path}, "fluctuation": False},
    })
    assert run(["action", "--config", cfg, "--out", str(tmp_path / "action")]) == 0
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")]) == 0
    direct = json.loads((tmp_path / "action" / "action_breakdown.json").read_text())["total_direct"]
    with open(tmp_path / "spectrum" / "spectrum.csv") as fh:
        ev = np.array([float(r["eigenvalue"]) for r in csv.DictReader(fh)])
    from_spectrum = 0.25 * sum(0.5 * a * np.sum(ev ** k)
                               for k, a in enumerate((0.0, 1.0, 0.0, 1.0), start=1))
    assert abs(from_spectrum - direct) <= 1e-9 * max(1.0, abs(direct)), (from_spectrum, direct)


def test_files_source_with_a_triple_index_block(tmp_path, capsys):
    # K_mu0 and K_hat1 from files: spectrum assembles both, action refuses the triple-index
    # block, as its closed-form sectors hold for flat data only
    sig = clifford.build_signature(0, 4)
    rng = np.random.default_rng(13)
    mats = {"mu0": 1j * dirac.random_hermitian(2, rng),  # e_0 = -1, e_hat_1 = +1 in (0, 4)
            "hat1": dirac.random_hermitian(2, rng), "d_f": dirac.random_hermitian(2, rng)}
    paths = {key: str(tmp_path / f"{key}.json") for key in mats}
    for key, M in mats.items():
        cli.save_matrix(paths[key], M)
    cfg = write_config(tmp_path, {
        "geometry": {"N": 2, "n": 2, "d_f": paths["d_f"]},
        "fields": {"source": "files", "K": {"mu0": paths["mu0"], "hat1": paths["hat1"]}},
    })
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")]) == 0
    with open(tmp_path / "spectrum" / "spectrum.csv") as fh:
        ev = np.array([float(r["eigenvalue"]) for r in csv.DictReader(fh)])
    K, K_hat = np.zeros((2, 4, 2, 2), dtype=complex)
    K[0], K_hat[1] = mats["mu0"], mats["hat1"]
    gt = dirac.GaugeTriple(fuzzy=dirac.FuzzyData(sig=sig, K=K, K_hat=K_hat),
                           finite=dirac.FiniteData(n=2, D_F=mats["d_f"]))
    D = fluct.assemble_fluctuated(gt, fluct.zero_fluctuation(gt), clifford.build_gammas(sig))
    assert np.abs(ev - np.linalg.eigvalsh(D)).max() <= 1e-12

    capsys.readouterr()
    assert run(["action", "--config", cfg, "--out", str(tmp_path / "action")]) == 1
    assert capsys.readouterr().err == "error: fuzzy data carries nonzero triple-index blocks\n"
    assert os.listdir(tmp_path / "action") == []


def test_action_refuses_triple_blocks_before_building_d(tmp_path, monkeypatch, capsys):
    # the closed sectors refuse data that is not flat; no dense D is assembled first
    calls = []
    assemble = fluct.assemble_fluctuated
    monkeypatch.setattr(fluct, "assemble_fluctuated",
                        lambda *a: calls.append(None) or assemble(*a))
    cfg = write_config(tmp_path, {"geometry": {"N": 2, "n": 2}, "fields": {"include_x": True}})
    assert run(["action", "--config", cfg, "--out", str(tmp_path / "action")]) == 1
    assert capsys.readouterr().err == "error: fuzzy data carries nonzero triple-index blocks\n"
    assert calls == []
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["action", "spectrum", "verify"])
@pytest.mark.parametrize("cfg", [{"sampler": {"steps": 7}},
                                 {"self_test": True, "sampler": {"steps": 0}}])
def test_sampler_keys_bind_only_sample(tmp_path, command, cfg):
    # steps >= burn_in, and steps >= 1 for the self test, are checked by sample alone
    assert run([command, "--config", write_config(tmp_path, {**cfg, "out": str(tmp_path)})]) == 0


def test_readme_example_config_runs(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("### Config document\n", 1)[1]
    cfg = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg["out"] = str(tmp_path)
    path = write_config(tmp_path, cfg)
    for command in ("action", "spectrum"):
        assert run([command, "--config", path]) == 0, command


def test_readme_library_sketch_runs(capsys):
    # the sketch runs against the package's API, and its closed and direct totals agree
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("## Library sketch\n", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    closed_line, direct_line = capsys.readouterr().out.splitlines()
    closed, direct = float(closed_line.split()[-1]), float(direct_line)
    assert abs(closed - direct) <= 1e-9 * abs(direct), (closed, direct)


def test_main_parser_is_reused_without_carrying_flags(tmp_path):
    # in-process calls in a row, with flags that the next call leaves out, write the
    # files that each call writes in a fresh process
    cfg = write_config(tmp_path, {"geometry": {"N": 2, "n": 2, "d_f": "random"},
                                  "sampler": {"steps": 20, "burn_in": 5}, "seed": 2})
    # the self test reads no geometry
    self_test_cfg = write_config(tmp_path, {"sampler": {"steps": 20, "burn_in": 5}, "seed": 2},
                                 name="self_test.json")
    calls = [["verify", "--signatures", "all", "--seed", "1"], ["verify"],
             ["sample", "--self-test", "--config", self_test_cfg, "--seed", "3"],
             ["sample", "--config", cfg],
             ["action", "--config", cfg, "--seed", "9"], ["spectrum", "--config", cfg]]
    for k, argv in enumerate(calls):
        assert run([*argv, "--out", str(tmp_path / f"in_{k}")]) == 0, argv
    for k, argv in enumerate(calls):
        res = run_process([*argv, "--out", str(tmp_path / f"fresh_{k}")])
        assert res.returncode == 0, res.stderr
        names = sorted(os.listdir(tmp_path / f"in_{k}"))
        assert names == sorted(os.listdir(tmp_path / f"fresh_{k}")) and names, argv
        for name in names:
            assert (tmp_path / f"in_{k}" / name).read_bytes() == \
                (tmp_path / f"fresh_{k}" / name).read_bytes(), (argv, name)


def test_main_help_and_usage_errors_are_unchanged(capsys):
    for argv, code in ((["--help"], 0), (["action", "--help"], 0), ([], 2), (["bogus"], 2),
                       (["action", "--seed", "x"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        fresh = capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert capsys.readouterr() == fresh, argv


# ------------------------------------------------ the config table, property-tested

def _nested(key, value):
    """{"a": {"b": value}} for key "a.b"."""
    for name in reversed(key.split(".")):
        value = {name: value}
    return value


def _merge(into, cfg):
    for key, value in cfg.items():
        if isinstance(value, dict):
            _merge(into.setdefault(key, {}), value)
        else:
            into[key] = value
    return into


NUMBERS = st.integers(-10 ** 6, 10 ** 6) | st.floats(allow_nan=False, allow_infinity=False)
PATHS = st.text(min_size=1, max_size=8)
JSON = st.recursive(st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)


def _is_type(row, value):
    """value has the row's JSON type, whatever its range."""
    if row.type is float:
        return type(value) in (int, float)
    if row.type in (list[float], list[str]):
        return type(value) is list
    return type(value) is row.type


def fitting(row):
    """Values of the row's type inside its range, and null where the default is null."""
    if row.type is int:
        values = st.integers(min_value=row.range, max_value=2 ** 63)
    elif row.type is float:
        values = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    elif row.type is bool:
        values = st.booleans()
    elif row.type is str:
        values = st.sampled_from(row.range) if row.range else PATHS
    else:
        least, most = row.range
        values = st.lists(NUMBERS if row.type == list[float] else PATHS,
                          min_size=least, max_size=most)
    return values | st.none() if row.default is None else values


def refused(row):
    """Values of another JSON type than the row's, or of its type outside its range."""
    null = row.default is None
    values = JSON.filter(lambda v: not _is_type(row, v) and not (v is None and null))
    if row.type is int:
        values |= st.integers(max_value=row.range - 1)
    elif row.type is float:
        values |= st.floats(max_value=0) | st.sampled_from([math.inf, math.nan, 10 ** 400])
    elif row.type is str:
        values |= st.text(max_size=8).filter(lambda v: v not in row.range) if row.range \
            else st.just("")
    elif row.type in (list[float], list[str]):
        least, most = row.range
        items = NUMBERS if row.type == list[float] else PATHS
        if least:
            values |= st.lists(items, max_size=least - 1)
        if most is not None:
            values |= st.lists(items, min_size=most + 1, max_size=most + 3)
        values |= st.sampled_from([[True], [None], [[1.0]], [math.nan], [10 ** 400]]
                                  if row.type == list[float] else [[1], [None], [""]])
    return values


@st.composite
def configs(draw):
    """A config that sets some table keys, each to a value its row admits."""
    cfg = {}
    for row in cli.TABLE:
        if draw(st.integers(0, 3)) == 0:
            _merge(cfg, _nested(row.key, draw(fitting(row))))
    return cfg


def _at(cfg, key):
    for name in key.split("."):
        cfg = cfg[name]
    return cfg


def _resolved(cfg):
    try:
        return cli.resolve(cfg)
    except cli.ConfigError:  # each value fits its row, but p + q != 4 can
        assume(False)


@settings(deadline=None)
@given(configs())
def test_resolving_twice_changes_nothing(cfg):
    resolved = _resolved(cfg)
    assert cli.resolve(resolved) == resolved


@settings(deadline=None)
@given(configs())
def test_resolve_fills_every_table_key(cfg):
    resolved = _resolved(cfg)
    for row in cli.TABLE:
        try:
            want = _at(cfg, row.key)
        except KeyError:
            want = row.default(resolved) if callable(row.default) else row.default
        assert _at(resolved, row.key) == want, row.key


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_value_outside_its_row_is_config_error(data):
    row = data.draw(st.sampled_from(cli.TABLE))
    value = data.draw(refused(row))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cfg = _merge(_nested(row.key, value), {} if row.key == "out" else {"out": out})
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["action", "--config", path])
        assert code == 2, (row.key, value)
        assert err.getvalue().startswith(f"config error: {row.key} must be ")
        assert err.getvalue().count("\n") == 1
        assert not os.path.exists(out)  # refused before anything was made


# the blocks each mode carries unread, as another subcommand reads them from the same document
CARRIED = {"verify": {"fields", "poly", "sampler", "self_test"},
           "action": {"sampler", "self_test"}, "spectrum": {"poly", "sampler", "self_test"}}


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize("row", cli.TABLE, ids=lambda row: row.key)
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_a_key_is_refused_where_its_mode_neither_reads_nor_carries_it(row, mode, data):
    argv = {"a chain": ["sample"], "the self test": ["sample", "--self-test"]}.get(mode, [mode])
    cfg, key = {}, row.key  # every config sets out, to a fresh directory
    if key in ("geometry.p", "geometry.q"):  # p + q = 4: the pair is set, and refused, together
        p = data.draw(fitting(row)) % 4 + 1
        cfg, key = {"geometry": {"p": p, "q": 4 - p}}, "geometry.p"
    elif key != "out":
        default = _at(cli.resolve({"self_test": mode == "the self test"}), key)
        cfg = _nested(key, data.draw(fitting(row).filter(lambda value: value != default)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        cfg["out"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        # the check alone: every subcommand's body is a stub
        for name in ("cmd_verify", "cmd_action", "cmd_spectrum", "cmd_sample"):
            mp.setattr(cli, name, lambda resolved: 0)
        mp.setattr(cli, "_parser", cli.build_parser)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--config", path])
    err = err.getvalue()
    if mode not in row.read_by and key.split(".")[0] not in CARRIED.get(mode, ()):
        assert (code, err) == (2, f"config error: {key} is not read by {mode}\n")
    elif code:  # a mode that reads the fields block refuses a key that fields.source does not
        assert key.startswith("fields.") and err.startswith(
            f"config error: {key} is not read when fields.source is "), err


@settings(deadline=None)
@given(hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
@example(np.array([[complex(-0.0, 5e-324), complex(sys.float_info.max, -0.0)],
                   [complex(-sys.float_info.max, -2.2250738585072014e-308),
                    complex(sys.float_info.min / 3, -sys.float_info.max)]]))
def test_matrix_roundtrip_is_bit_exact(M):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        cli.save_matrix(path, M)
        back = cli.load_matrix(path)
    assert back.shape == M.shape and back.tobytes() == M.tobytes()


def _readme_key_line(key):
    """The line of README's config key table that lists the key, or ""."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("### Config document\n", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return next((line for line in rows if f"`{key}`" in line.split("|")[1]), "")


def test_readme_lists_every_config_key_with_its_default():
    for row in cli.TABLE:
        line = _readme_key_line(row.key)
        assert line, f"README's config section does not list {row.key}"
        for mode in ({}, {"self_test": True}):  # the default of sampler.steps depends on it
            if row.key not in mode:
                assert f"`{json.dumps(_at(cli.resolve(mode), row.key))}`" in line, line


def test_readme_read_by_column_is_the_table():
    for row in cli.TABLE:
        read_by = _readme_key_line(row.key).split("|")[4].strip()
        assert read_by.replace("`", "") == ", ".join(row.read_by), (row.key, read_by)


def test_verify_fails_a_nan_sample_with_strict_json(tmp_path, monkeypatch, capsys):
    # the second of lichnerowicz's ten samples is NaN: the entry fails, written as null
    lichnerowicz = verify.lichnerowicz
    calls = []

    def nan_on_second(*args):
        calls.append(None)
        return float("nan") if len(calls) == 2 else lichnerowicz(*args)

    monkeypatch.setattr(verify, "lichnerowicz", nan_on_second)
    assert run(["verify", "--out", str(tmp_path)]) == 1
    assert len(calls) == 10
    report = _strict_json((tmp_path / "verify_report.json").read_text())
    assert report["pass"] is False
    rows = {r["identity"]: r for r in report["signatures"]["(0,4)"]}
    assert len(rows) == 40
    assert rows["lichnerowicz/square_equals_rhs"]["max_deviation"] is None
    assert rows["lichnerowicz/square_equals_rhs"]["pass"] is False
    assert all(r["pass"] for name, r in rows.items() if name != "lichnerowicz/square_equals_rhs")
    assert "worst deviation nan [FAIL]" in capsys.readouterr().out
