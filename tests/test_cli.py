import csv
import json
import os

import numpy as np
import pytest

from ncg_ymh import cli
from ncg_ymh.verify import run_identity_suite


def run(argv):
    return cli.main(argv)


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


@pytest.mark.parametrize("p,q,count", [(0, 4, 39), (1, 3, 31), (2, 2, 31), (3, 1, 31)])
def test_identity_suite_shape(p, q, count):
    # the report rows, and the benchmark's verify replay, count these entries
    names = [r.name for r in run_identity_suite(p, q)]
    assert len(names) == len(set(names)) == count


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


def test_action_rejects_lorentzian(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 1, "q": 3, "N": 2, "n": 2},
        "fields": {"source": "random", "seed": 1},
        "out": str(tmp_path),
    })
    assert run(["action", "--config", cfg]) == 1


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


def test_sample_lorentzian_rejected(tmp_path):
    cfg = write_config(tmp_path, {
        "geometry": {"p": 1, "q": 3, "N": 2, "n": 2},
        "poly": [0.0, 1.0, 0.0, 1.0],
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 1


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


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NCG_YMH_THREADS", "1")
    cfg = write_config(tmp_path, {"geometry": {"p": 3, "q": 1}, "out": str(tmp_path)})
    assert run(["verify", "--config", cfg]) == 0
    monkeypatch.setenv("NCG_YMH_THREADS", "zzz")
    assert run(["verify", "--config", cfg]) == 2


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


@pytest.mark.parametrize("key", ["A", "phi"])
def test_sample_refuses_potential_and_higgs_files(tmp_path, capsys, key):
    path = str(tmp_path / "field.json")
    cli.save_matrix(path, np.zeros((4, 4)))
    cfg = write_config(tmp_path, {
        "geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
        "fields": {"source": "files", key: [path] if key == "A" else path},
        "sampler": {"steps": 5, "burn_in": 0},
        "out": str(tmp_path),
    })
    assert run(["sample", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: fields.{key}")


@pytest.mark.parametrize("key", ["A", "phi"])
def test_wrong_adjointness_field_file_is_config_error(tmp_path, capsys, key):
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
