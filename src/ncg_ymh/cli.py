"""Batch front door: verify / action / spectrum / sample subcommands.

Configuration is a single JSON document; command-line flags override config
keys.  Matrix files use the shared JSON format

    {"rows": R, "cols": C, "data": [[re, im], ...]}   (row-major)

whose floats are written with Python's shortest round-trip repr, so a write
/ read cycle reproduces every entry bit-exactly.

Exit codes: 0 success, 1 computational or identity failure, 2 configuration
error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import clifford, dirac, fluct
from .action import ActionPolynomial, sectors
from .dirac import FiniteData, FuzzyData, GaugeTriple
from .errors import NcgError, NonFourDimensional, NotRiemannian
from .sampler import (SamplerConfig, batch_means, eigen_histogram,
                      gaussian_self_test, run_chain, stationarity_check)
from .verify import run_identity_suite

_SIGNATURES = [(0, 4), (1, 3), (2, 2), (3, 1)]


class ConfigError(NcgError):
    pass


# ---------------------------------------------------------------- matrix io

def save_matrix(path: str, M: np.ndarray):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    payload = {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in M.flatten(order="C")],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    rows, cols = payload["rows"], payload["cols"]
    data = payload["data"]
    if len(data) != rows * cols:
        raise ConfigError(f"{path}: {len(data)} entries for a {rows}x{cols} matrix")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.isfinite(flat).all():
        raise ConfigError(f"{path}: non-finite entries")
    return flat.reshape((rows, cols), order="C")


def _load_square(path: str, size: int, what: str, e: int | None = None) -> np.ndarray:
    """load_matrix, refusing anything but a size x size matrix with M* = e M."""
    M = load_matrix(path)
    if M.shape != (size, size):
        raise ConfigError(f"{path}: {what} has shape {M.shape}, need ({size}, {size})")
    if e is not None and not dirac.has_adjointness_type(M, e):
        raise ConfigError(f"{path}: {what} violates its adjointness type (M* = {e:+d} M)")
    return M


# ------------------------------------------------------------- config layer

# the keys each config block may carry; any other key is a config error
_KEYS = {(): {"geometry", "fields", "poly", "sampler", "seed", "out", "signatures",
              "self_test", "histogram_bins"},
         ("geometry",): {"p", "q", "N", "n", "d_f"},
         ("fields",): {"source", "seed", "scale", "include_x", "fluctuation", "K", "A", "phi"},
         ("sampler",): {"steps", "burn_in", "thin", "step_sizes", "autotune", "self_test_N"},
         ("sampler", "step_sizes"): {"A", "phi"}}


def _check_keys(cfg):
    for where, allowed in _KEYS.items():
        block, name = cfg, ".".join(where) or "config"
        for key in where:
            block = block.get(key, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{name} must be a JSON object")
        unknown = sorted(set(block) - allowed)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {name}")


def _seed_rng(root_seed: int, counter: int) -> np.random.Generator:
    """Per-purpose spawn stream of the root seed; D_F uses counter 1."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed,
                                                        spawn_key=(counter,)))


def load_config(args) -> dict:
    cfg = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_keys(cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["out"] = args.out
    if getattr(args, "signatures", None):
        cfg["signatures"] = args.signatures
    if getattr(args, "self_test", False):
        cfg["self_test"] = True
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", ".")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg


def _geometry(cfg: dict):
    geo = cfg.get("geometry", {})
    p = int(geo.get("p", 0))
    q = int(geo.get("q", 4))
    N = int(geo.get("N", 2))
    n = int(geo.get("n", 2))
    try:
        sig = clifford.build_signature(p, q)
    except NonFourDimensional as exc:
        raise ConfigError(f"NonFourDimensional: {exc}") from exc
    d_f = geo.get("d_f")
    if d_f is None:
        DF = np.zeros((n, n), dtype=complex)
    elif d_f == "random":
        DF = dirac.random_hermitian(n, _seed_rng(cfg["seed"], 1))
    elif isinstance(d_f, str):
        if not os.path.exists(d_f):
            raise ConfigError(f"D_F file not found: {d_f}")
        DF = _load_square(d_f, n, "D_F")
        DF = (DF + DF.conj().T) / 2
    else:
        raise ConfigError("geometry.d_f must be null, 'random' or a file path")
    return sig, N, n, DF


def _fields(cfg: dict, sig, N: int, n: int, DF: np.ndarray):
    """Fuzzy blocks plus fluctuation per the fields config block."""
    fields = cfg.get("fields", {})
    source = fields.get("source", "random")
    if source == "zero":
        fz = dirac.zero_fuzzy(N, sig)
        gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))
        return gt, fluct.zero_fluctuation(gt)
    if source == "random":
        scale = fields.get("scale")
        include_X = bool(fields.get("include_x", False))
        seed = int(fields.get("seed", cfg["seed"]))
        fz = dirac.random_fuzzy(N, sig, scale=scale, seed=seed, include_X=include_X)
        gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))
        if fields.get("fluctuation", True):
            fl = fluct.random_fluctuation(gt, scale=scale, seed=seed + 1)
        else:
            fl = fluct.zero_fluctuation(gt, flat=not include_X)
        return gt, fl
    if source == "files":
        K = {}
        for key, path in fields.get("K", {}).items():
            if key.startswith("hat"):
                I = clifford.hat(int(key[3:]))
            elif key.startswith("mu"):
                I = clifford.single(int(key[2:]))
            else:
                raise ConfigError(f"unknown block key {key!r} (use mu0..mu3, hat0..hat3)")
            K[I] = _load_square(path, N, f"block {key}", I.sign(sig))
        gt = GaugeTriple(fuzzy=FuzzyData(N=N, sig=sig, K=K), finite=FiniteData(n=n, D_F=DF))
        m = N * n
        paths = fields.get("A", [])
        if len(paths) > 4:
            raise ConfigError(f"fields.A lists {len(paths)} files; at most four")
        A = [_load_square(path, m, f"A{mu}", sig.e[mu]) for mu, path in enumerate(paths)]
        A += [np.zeros((m, m), dtype=complex) for _ in range(4 - len(A))]
        phi = _load_square(fields["phi"], m, "phi", 1) if fields.get("phi") else \
            np.zeros((m, m), dtype=complex)
        return gt, fluct.Fluctuation(A=tuple(A), S=None, phi=phi)
    raise ConfigError(f"unknown fields.source {source!r}")


def _poly(cfg: dict) -> ActionPolynomial:
    coeffs = cfg.get("poly", [0.0, 1.0, 0.0, 1.0])
    return ActionPolynomial(tuple(float(c) for c in coeffs))


def _fmt(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------- subcommands

def cmd_verify(cfg: dict) -> int:
    which = cfg.get("signatures", "one")
    if which == "all":
        sigs = _SIGNATURES
    else:
        geo = cfg.get("geometry", {})
        p, q = int(geo.get("p", 0)), int(geo.get("q", 4))
        if p + q != 4:
            raise ConfigError(f"NonFourDimensional: (p, q) = ({p}, {q})")
        sigs = [(p, q)]
    seed = int(cfg["seed"])
    workers = _worker_cap(len(sigs))
    if workers > 1 and len(sigs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            all_results = list(pool.map(
                lambda pq: run_identity_suite(pq[0], pq[1], seed=seed), sigs))
    else:
        all_results = [run_identity_suite(p, q, seed=seed) for (p, q) in sigs]
    report = {}
    ok = True
    for (p, q), results in zip(sigs, all_results):
        report[f"({p},{q})"] = [r.as_dict() for r in results]
        ok = ok and all(r.passed for r in results)
    report_path = os.path.join(cfg["out"], "verify_report.json")
    with open(report_path, "w") as fh:
        json.dump({"pass": ok, "signatures": report}, fh, indent=1)
    for (p, q), results in zip(sigs, all_results):
        worst = max(r.max_deviation for r in results)
        status = "ok" if all(r.passed for r in results) else "FAIL"
        print(f"({p},{q}): {len(results)} identities, worst deviation {worst:.2e} [{status}]")
    print(f"report: {report_path}")
    return 0 if ok else 1


def cmd_action(cfg: dict) -> int:
    sig, N, n, DF = _geometry(cfg)
    gt, fl = _fields(cfg, sig, N, n, DF)
    poly = _poly(cfg)
    br = sectors(gt, fl, poly, include_direct=True)
    out = {
        "s_ym": br.s_ym, "s_h": br.s_h, "s_gh": br.s_gh, "s_theta": br.s_theta,
        "total_closed": br.total_closed, "total_direct": br.total_direct,
        "rest": br.rest,
        "positivity_applicable": poly.a4 >= 0,
    }
    bad = [key for key, value in out.items() if not np.isfinite(value)]
    if bad:
        raise NcgError(f"non-finite action ({', '.join(bad)}); no breakdown written")
    path = os.path.join(cfg["out"], "action_breakdown.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"total_closed = {br.total_closed!r}, total_direct = {br.total_direct!r}")
    print(f"breakdown: {path}")
    return 0


def cmd_spectrum(cfg: dict) -> int:
    sig, N, n, DF = _geometry(cfg)
    gt, fl = _fields(cfg, sig, N, n, DF)
    mod = clifford.build_gammas(sig)
    fluctuate = cfg.get("fields", {}).get("fluctuation", True)
    if fluctuate:
        D = fluct.assemble_fluctuated(gt, fl, mod)
    else:
        D = dirac.assemble_product_dirac(gt, mod)
    ev = np.linalg.eigvalsh(D)  # ascending
    path = os.path.join(cfg["out"], "spectrum.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, lam in enumerate(ev):
            writer.writerow([i, _fmt(lam)])
    bins = int(cfg.get("histogram_bins", 0))
    if bins > 0:
        edges, counts = eigen_histogram(D, bins)
        with open(os.path.join(cfg["out"], "spectrum_histogram.json"), "w") as fh:
            json.dump({"bin_edges": list(map(float, edges)),
                       "counts": list(map(int, counts))}, fh)
    print(f"{len(ev)} eigenvalues -> {path}")
    return 0


def cmd_sample(cfg: dict) -> int:
    seed = int(cfg["seed"])
    out_dir = cfg["out"]
    if cfg.get("self_test"):
        sp = cfg.get("sampler", {})
        res = gaussian_self_test(N=int(sp.get("self_test_N", 2)),
                                 samples=int(sp.get("steps", 100_000)),
                                 seed=seed)
        csv_path = os.path.join(out_dir, "samples.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "tr_m2"])
            for i, v in enumerate(res["samples"]):
                writer.writerow([i, _fmt(v)])
        summary = {k: v for k, v in res.items() if k != "samples"}
        summary["seed"] = seed
        summary["mode"] = "gaussian-self-test"
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
        print(f"<Tr M^2> = {res['mean_tr_m2']:.4f} +- {res['stderr']:.4f} "
              f"(target {res['target']}, acceptance {res['acceptance']:.2f})")
        return 0

    sig, N, n, DF = _geometry(cfg)
    if (sig.p, sig.q) != (0, 4):
        raise NotRiemannian("sampling requires signature (0, 4)")
    for key in ("A", "phi"):
        if cfg.get("fields", {}).get(key):
            raise ConfigError(f"fields.{key}: sample starts from A = 0 and phi = 0 "
                              "and reads no potential or Higgs file")
    gt, _ = _fields(cfg, sig, N, n, DF)
    sp = cfg.get("sampler", {})
    try:
        steps, burn_in = int(sp.get("steps", 200)), int(sp.get("burn_in", 50))
        if not steps >= burn_in >= 0:
            default = "" if "burn_in" in sp else " (the default)"
            raise ValueError(f"need sampler.steps >= sampler.burn_in >= 0, got sampler.steps = "
                             f"{steps} and sampler.burn_in = {burn_in}{default}")
        scfg = SamplerConfig(
            N=N, n=n, poly=_poly(cfg), steps=steps, burn_in=burn_in,
            thin=int(sp.get("thin", 1)),
            step_sizes=dict(sp.get("step_sizes", {})),
            autotune=bool(sp.get("autotune", True)),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records, info = run_chain(scfg, gt)
    csv_path = os.path.join(out_dir, "records.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "S_total", "S_ym", "S_h", "S_gh", "S_theta", "acceptance"])
        for r in records:
            writer.writerow([r.step, _fmt(r.s_total), _fmt(r.s_ym), _fmt(r.s_h),
                             _fmt(r.s_gh), _fmt(r.s_theta), _fmt(r.acceptance)])
    summary = {"seed": seed, "n_records": len(records),
               "step_sizes": info["step_sizes"], "acceptance": info["acceptance"]}
    for name in ("s_total", "s_ym", "s_h", "s_gh", "s_theta"):
        series = [getattr(r, name) for r in records]
        mean, se = batch_means(series)
        summary[name] = {"mean": mean, "stderr": se}
        if name == "s_ym" and len(series) >= 4:
            summary["stationarity_s_ym"] = stationarity_check(series)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"{len(records)} records -> {csv_path}")
    return 0


def _worker_cap(requested: int) -> int:
    env = os.environ.get("NCG_YMH_THREADS")
    if env is None:
        return min(requested, os.cpu_count() or 1)
    try:
        cap = int(env)
    except ValueError:
        raise ConfigError(f"NCG_YMH_THREADS must be an integer, got {env!r}")
    return max(1, min(requested, cap))


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg-ymh",
        description="Fuzzy Yang-Mills-Higgs spectral triples: verification, "
                    "spectra, spectral action and Monte Carlo sampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("action", cmd_action),
                     ("spectrum", cmd_spectrum), ("sample", cmd_sample)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="root seed (overrides config)")
        sp.add_argument("--out", help="output directory")
        sp.set_defaults(func=fn)
        if name == "verify":
            sp.add_argument("--signatures", choices=["one", "all"],
                            help="verify one configured signature or all four")
        if name == "sample":
            sp.add_argument("--self-test", dest="self_test", action="store_true",
                            help="Gaussian single-matrix self test")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
