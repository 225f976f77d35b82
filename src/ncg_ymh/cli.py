"""Batch front door: verify / action / spectrum / sample subcommands.

Configuration is a single JSON document; command-line flags override config
keys.  `TABLE` declares each key once, with its type, range, default and the
modes that read it; the subcommands read only what `resolve` makes of a
document against it, and refuse a key set that their mode neither reads nor
carries for another subcommand.

Matrix files use the shared JSON format

    {"rows": R, "cols": C, "data": [[re, im], ...]}   (row-major)

whose floats are written with Python's shortest round-trip repr, so a write
/ read cycle reproduces every entry bit-exactly.

A subcommand makes `out` once every input has passed, so no configuration error
in the inputs leaves one behind, and writes each file through `_write_json`
(strict, indent 1) or `_write_csv`.  Exit codes: 0 success, 1 computational or
identity failure (found after `out` is made), 2 configuration error (an
unwritable `out` or output file too).
"""
from __future__ import annotations

import argparse
import copy
import csv
import functools
import itertools
import json
import math
import os
import resource
import sys
from collections import namedtuple
from dataclasses import astuple

import numpy as np

from . import clifford, dirac, fluct
from .action import ActionPolynomial, sectors, spectral_action_direct
from .dirac import FiniteData, FuzzyData, GaugeTriple
from .errors import NcgError, NotSelfAdjoint
from .sampler import (_DRAW_ENTRIES, _STEP_SIZES, SamplerConfig, batch_means,
                      effective_sample_size, gaussian_self_test, run_chain,
                      stationarity_check, symmetric_histogram, tau_int)
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


def _unique_keys(path: str, pairs: list) -> dict:
    """The JSON object of a file's key-value pairs; a key given twice is a config error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{path}: key {key!r} is repeated")
        obj[key] = value
    return obj


def _read_json(path: str, what: str) -> dict:
    """The JSON object a file holds; a missing file, a repeated key or anything else is a
    config error."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh, object_pairs_hook=functools.partial(_unique_keys, path))
    except (OSError, ValueError) as exc:  # unreadable, not text or not JSON
        raise ConfigError(f"{path} is not a readable JSON file: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} holds no JSON object")
    return payload


def load_matrix(path: str, what: str = "matrix") -> np.ndarray:
    payload = _read_json(path, what)
    try:
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
        if len(data) != rows * cols:
            raise ConfigError(f"{path}: {len(data)} entries for a {rows}x{cols} matrix")
        flat = np.array([complex(re, im) for re, im in data]).reshape((rows, cols), order="C")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is not a matrix file: {exc!r}") from None
    if not np.isfinite(flat).all():
        raise ConfigError(f"{path}: non-finite entries")
    return flat


def _load_square(path: str, size: int, what: str, e: int) -> np.ndarray:
    """load_matrix, refusing anything but a size x size matrix with M* = e M."""
    M = load_matrix(path, what)
    if M.shape != (size, size):
        raise ConfigError(f"{path}: {what} has shape {M.shape}, need ({size}, {size})")
    if not dirac.has_adjointness_type(M, e):
        raise ConfigError(f"{path}: {what} violates its adjointness type (M* = {e:+d} M)")
    return M


# ------------------------------------------------------------- config layer

# One row per config key ("geometry.N" is key N of block geometry): the JSON type of its
# value, the range of that type it may take, its default and the modes that read it.  An int
# is never true or false; a float is a finite number, and must be positive; a str's range
# lists the values it may take (None: any but "", a path); a list's range is its (least,
# most) length.  A null default also admits null; a callable default reads the config
# resolved so far.  The modes are the subcommands, with sample's two: a chain and the self test.
Row = namedtuple("Row", "key type range default read_by")

_CHAIN, _SELF_TEST = "a chain", "the self test"
_DENSE = ("action", "spectrum")  # the modes that build the dense Dirac operator
_TRIPLE = (*_DENSE, _CHAIN)  # the modes that build the gauge triple
_SAMPLE = (_CHAIN, _SELF_TEST)
MODES = ("verify", *_TRIPLE, _SELF_TEST)

TABLE = (
    Row("seed", int, 0, 0, MODES),
    Row("out", str, None, ".", MODES),
    Row("signatures", str, ("one", "all"), "one", ("verify",)),
    Row("self_test", bool, None, False, _SAMPLE),
    Row("histogram_bins", int, 0, 0, ("spectrum",)),
    Row("geometry.p", int, 0, 0, ("verify", *_TRIPLE)),
    Row("geometry.q", int, 0, 4, ("verify", *_TRIPLE)),
    Row("geometry.N", int, 1, 2, _TRIPLE),
    Row("geometry.n", int, 1, 2, _TRIPLE),
    Row("geometry.d_f", str, None, None, _TRIPLE),  # "random" or a matrix file; null: D_F = 0
    Row("fields.source", str, ("zero", "random", "files"), "random", _TRIPLE),
    Row("fields.seed", int, 0, lambda cfg: cfg["seed"], _TRIPLE),
    Row("fields.scale", float, None, None, _TRIPLE),  # null: 1/sqrt(N)
    Row("fields.include_x", bool, None, False, _TRIPLE),
    Row("fields.fluctuation", bool, None, True, _DENSE),  # a chain starts from A = phi = 0
    *(Row(f"fields.K.{kind}{mu}", str, None, None, _TRIPLE)
      for kind in ("mu", "hat") for mu in range(4)),
    Row("fields.A", list[str], (0, 4), [], _DENSE),
    Row("fields.phi", str, None, None, _DENSE),
    Row("poly", list[float], (1, None), [0.0, 1.0, 0.0, 1.0], ("action", _CHAIN)),
    Row("sampler.steps", int, 0, lambda cfg: 100_000 if cfg["self_test"] else 200, _SAMPLE),
    Row("sampler.burn_in", int, 0, lambda cfg: 1000 if cfg["self_test"] else 50, _SAMPLE),
    Row("sampler.thin", int, 1, 1, (_CHAIN,)),
    Row("sampler.step_sizes.A", float, None, _STEP_SIZES["A"], (_CHAIN,)),
    Row("sampler.step_sizes.phi", float, None, _STEP_SIZES["phi"], (_CHAIN,)),
    Row("sampler.autotune", bool, None, True, (_CHAIN,)),
    Row("sampler.self_test_N", int, 1, 2, (_SELF_TEST,)),
)
_ROWS = {row.key: row for row in TABLE}


def _is_number(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max  # finite as a float


def _checked(row: Row, value):
    """The value, if it has the row's type and lies in its range; else a ConfigError."""
    r = row.range
    if row.type is int:
        ok, must = type(value) is int and value >= r, f"an integer >= {r}"
    elif row.type is float:
        ok, must = _is_number(value) and value > 0, "a positive number"
    elif row.type is bool:
        ok, must = type(value) is bool, "true or false"
    elif row.type is str:
        ok = type(value) is str and (value in r if r else value != "")
        must = "one of " + ", ".join(map(repr, r)) if r else "a path"
    else:  # list[float] or list[str]
        numbers = row.type == list[float]
        ok = (type(value) is list and r[0] <= len(value) <= (r[1] or len(value))
              and all(_is_number(x) if numbers else type(x) is str and x != "" for x in value))
        must = ("a non-empty list of " if r[0] else "a list of ") + \
            (f"at most {r[1]} " if r[1] else "") + ("numbers" if numbers else "paths")
    if not (ok or (value is None and row.default is None)):
        must += " or null" * (row.default is None)
        raise ConfigError(f"{row.key} must be {must}, got {value!r}")
    return value


def _default(row: Row, cfg: dict):
    """The row's default in a config resolved at least up to the row."""
    return row.default(cfg) if callable(row.default) else row.default


# the blocks that a mode carries unread, as another subcommand reads them from the same document
_CARRIED = {"verify": ("fields", "poly", "sampler", "self_test"),
            "action": ("sampler", "self_test"), "spectrum": ("poly", "sampler", "self_test")}


def _refuse_unread(cfg: dict, command: str):
    """Refuse a key set to other than its default that the command's mode neither reads nor
    carries, or that is a key of the fields block which fields.source leaves unread."""
    mode = command if command != "sample" else _SELF_TEST if cfg["self_test"] else _CHAIN
    fields = cfg["fields"]
    read = {"source", "fluctuation", *{"zero": (), "random": ("seed", "scale", "include_x"),
                                       "files": ("K", "A", "phi")}[fields["source"]]}
    read -= set() if fields["fluctuation"] else {"A", "phi"}
    by_source = f"when fields.source is {fields['source']!r}" + \
        ("" if fields["fluctuation"] else " and fields.fluctuation is false")
    for row in TABLE:
        block, _, key = row.key.partition(".")
        if mode in row.read_by:
            unread, why = block == "fields" and key.split(".")[0] not in read, by_source
        else:
            unread, why = block not in _CARRIED.get(mode, ()), f"by {mode}"
        if unread and functools.reduce(dict.get, row.key.split("."), cfg) != _default(row, cfg):
            raise ConfigError(f"{row.key} is not read {why}")


def _refuse_unknown(given: dict, known: dict, name: str = ""):
    """Refuse a key of a given block, or of a block within it, that the table lacks."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {name or 'config'}")
    for key in given:
        if isinstance(known[key], dict):
            _refuse_unknown(given[key], known[key], f"{name}.{key}" if name else key)


def resolve(cfg: dict) -> dict:
    """cfg checked against TABLE, every default filled in; resolving twice changes nothing."""
    out = {}
    for row in TABLE:
        *path, key = row.key.split(".")
        given, into = cfg, out
        for depth, block in enumerate(path, 1):
            given, into = given.get(block, {}), into.setdefault(block, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{'.'.join(path[:depth])} must be a JSON object")
        into[key] = _checked(row, given[key]) if key in given else copy.copy(_default(row, out))
    _refuse_unknown(cfg, out)
    p, q = out["geometry"]["p"], out["geometry"]["q"]
    if p + q != 4:
        raise ConfigError(f"geometry.p + geometry.q must be 4, got ({p}, {q})")
    return out


def load_config(args) -> dict:
    """The config file with the flags over its keys, resolved; reads, and makes nothing."""
    cfg = _read_json(args.config, "config") if "config" in args else {}
    # a flag given is the top-level key of its name; one not given is absent from args
    cfg.update((key, value) for key, value in vars(args).items() if key in _ROWS)
    return resolve(cfg)


def _geometry(cfg: dict):
    """(signature, N, n, D_F) of a resolved config."""
    geo = cfg["geometry"]
    n, d_f = geo["n"], geo["d_f"]
    if d_f is None:
        DF = np.zeros((n, n), dtype=complex)
    elif d_f == "random":
        DF = dirac.random_hermitian(n, dirac.stream(cfg["seed"], 1))
    else:
        DF = _load_square(d_f, n, "D_F", 1)
    return clifford.build_signature(geo["p"], geo["q"]), geo["N"], n, DF


def _drawn(fields: dict, draw, *args, **kwargs):
    """draw(*args, **kwargs) at fields.scale; a scale at which the draw overflows is refused."""
    try:
        return draw(*args, scale=fields["scale"], **kwargs)
    except OverflowError as exc:
        raise ConfigError(f"fields.scale = {fields['scale']!r} is too large: {exc}") from None


def _triple(cfg: dict) -> GaugeTriple:
    """The gauge triple of a resolved config, per its geometry and fields blocks."""
    sig, N, n, DF = _geometry(cfg)
    fields = cfg["fields"]
    if fields["source"] == "random":
        fz = _drawn(fields, dirac.random_fuzzy, N, sig, seed=fields["seed"],
                    include_X=fields["include_x"])
    else:  # "zero" leaves every K path null
        K = {kind: np.zeros((4, N, N), dtype=complex) for kind in ("mu", "hat")}
        signs = {"mu": sig.e, "hat": sig.e_hat}
        for key, path in fields["K"].items():
            if path is not None:
                kind, mu = key[:-1], int(key[-1])
                K[kind][mu] = _load_square(path, N, f"block {key}", signs[kind][mu])
        fz = FuzzyData(sig=sig, K=K["mu"], K_hat=K["hat"])
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


def _fields(cfg: dict):
    """`_triple` plus the fluctuation per the fields block of a resolved config."""
    gt, fields = _triple(cfg), cfg["fields"]
    if fields["source"] == "random" and fields["fluctuation"]:
        return gt, _drawn(fields, fluct.random_fluctuation, gt, seed=fields["seed"] + 1)
    fl = fluct.zero_fluctuation(gt)  # A and phi stay at [] and null unless the source is "files"
    for mu, path in enumerate(fields["A"]):
        fl.A[mu] = _load_square(path, gt.m, f"A{mu}", gt.sig.e[mu])
    if fields["phi"] is not None:
        fl.phi[...] = _load_square(fields["phi"], gt.m, "phi", 1)
    return gt, fl


def _require_fits(need: int, what: str, parts: str):
    """Refuse a config whose arrays need more than the memory available, before any is made.

    need is their size in bytes, what names them with the config values that
    size them, and parts says what need counts.  The limit is the smaller of
    physical memory and RLIMIT_AS.
    """
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    if need > limit:
        from decimal import Decimal  # need / 2**30 overflows a float at N ~ 10^80
        raise ConfigError(f"{what} needs {Decimal(need) / 2**30:.3g} GiB ({parts}), more than "
                          f"the {limit / 2**30:.1f} GiB of memory available")


def _dense_inputs(cfg: dict, degree: int | None = None):
    """(gauge triple, fluctuation) of a config whose dense Dirac operator D fits in memory.

    D, which `_assembled` builds and this does not, has 4 m^2 x 4 m^2 complex
    entries, 256 m^4 bytes with m = N n.  spectrum (degree None) holds D and
    eigvalsh's copy; action, for a poly of the given degree, D and the blocks
    a <= c of D^2 (about 0.75 D) up to degree 4, and of two powers (1.4 D) beyond.
    """
    N, n = cfg["geometry"]["N"], cfg["geometry"]["n"]
    size = 256 * (N * n) ** 4
    if degree is None:
        need, parts = 2 * size, "D and eigvalsh's copy"
    elif degree <= 4:
        need, parts = 2 * size, f"D and D^2 for a poly of degree {degree}"
    else:
        need, parts = 5 * size // 2, f"D and two of its powers for a poly of degree {degree}"
    _require_fits(need, f"the dense Dirac operator at N = {N}, n = {n}", parts)
    return _fields(cfg)


def _assembled(gt: GaugeTriple, fl: fluct.Fluctuation) -> np.ndarray:
    """D of `_dense_inputs`' fields; an overflow is a non-finite D, which its readers refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fluct.assemble_fluctuated(gt, fl, clifford.build_gammas(gt.sig))


def _poly(cfg: dict) -> ActionPolynomial:
    return ActionPolynomial(tuple(float(c) for c in cfg["poly"]))


def _statistic(x: float) -> float | None:
    """A statistic for summary.json: null where it is undefined (NaN), as JSON has no NaN."""
    return x if math.isfinite(x) else None


# --------------------------------------------------------------- subcommands

def _make_out(cfg: dict):
    """Make the output directory; a subcommand calls this once its inputs have passed."""
    try:
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:  # a file of that name, or no permission
        raise ConfigError(f"out: cannot make the output directory {cfg['out']}: "
                          f"{exc.strerror}") from None


def _write(cfg: dict, name: str, dump) -> str:
    """The path of out/name, written by dump(fh); an OSError is a config error."""
    path = os.path.join(cfg["out"], name)
    try:
        with open(path, "w", newline="") as fh:
            dump(fh)
    except OSError as exc:  # a directory of that name, no permission, a full disk
        raise ConfigError(f"out: cannot write {path}: {exc.strerror}") from None
    return path


def _write_json(cfg: dict, name: str, obj) -> str:
    """Write obj to out/name as strict JSON (no NaN or infinity) with indent 1."""
    return _write(cfg, name, lambda fh: json.dump(obj, fh, indent=1, allow_nan=False))


def _write_csv(cfg: dict, name: str, header: list, rows) -> str:
    """Write the header, then each row of the iterable as it comes (a float as repr(float))."""
    return _write(cfg, name, lambda fh: csv.writer(fh).writerows(itertools.chain([header], rows)))


def cmd_verify(cfg: dict) -> int:
    geo = cfg["geometry"]
    sigs = _SIGNATURES if cfg["signatures"] == "all" else [(geo["p"], geo["q"])]
    _make_out(cfg)
    report = {}
    for p, q in sigs:
        results = run_identity_suite(p, q, seed=cfg["seed"])
        report[f"({p},{q})"] = [r.as_dict() for r in results]
        worst = clifford.worst(r.max_deviation for r in results)
        status = "ok" if all(r.passed for r in results) else "FAIL"
        print(f"({p},{q}): {len(results)} identities, worst deviation {worst:.2e} [{status}]")
    ok = all(entry["pass"] for entries in report.values() for entry in entries)
    path = _write_json(cfg, "verify_report.json", {"pass": ok, "signatures": report})
    print(f"report: {path}")
    return 0 if ok else 1


def cmd_action(cfg: dict) -> int:
    poly = _poly(cfg)
    gt, fl = _dense_inputs(cfg, poly.degree)
    _make_out(cfg)
    br = sectors(gt, fl, poly)  # refuses data that is not flat; a non-finite action below
    total_direct = spectral_action_direct(_assembled(gt, fl), poly)
    out = {
        "s_ym": br.s_ym, "s_h": br.s_h, "s_gh": br.s_gh, "s_theta": br.s_theta,
        "total_closed": br.total_closed, "total_direct": total_direct,
        "rest": total_direct - br.total_closed,
        "positivity_applicable": poly.a4 >= 0,
    }
    bad = [key for key, value in out.items() if not np.isfinite(value)]
    if bad:
        raise NcgError(f"non-finite action ({', '.join(bad)}); no breakdown written")
    path = _write_json(cfg, "action_breakdown.json", out)
    print(f"total_closed = {br.total_closed!r}, total_direct = {total_direct!r}")
    print(f"breakdown: {path}")
    return 0


def cmd_spectrum(cfg: dict) -> int:
    # the histogram's peak (tracemalloc) is about 57 bytes per bin, whatever the dimension
    bins = cfg["histogram_bins"]
    _require_fits(64 * bins, f"the spectrum histogram at histogram_bins = {bins}",
                  "its edges and counts, as arrays and as the lists written")
    inputs = _dense_inputs(cfg)
    _make_out(cfg)
    D = _assembled(*inputs)
    if not np.isfinite(D).all():  # as action's direct trace refuses it, before eigvalsh
        raise NotSelfAdjoint("operator has non-finite entries")
    ev = np.linalg.eigvalsh(D)  # ascending
    path = _write_csv(cfg, "spectrum.csv", ["index", "eigenvalue"], enumerate(ev))
    if bins > 0:
        edges, counts = symmetric_histogram(ev, bins)
        _write_json(cfg, "spectrum_histogram.json", {"bin_edges": list(map(float, edges)),
                                                     "counts": list(map(int, counts))})
    print(f"{len(ev)} eigenvalues -> {path}")
    return 0


def cmd_sample(cfg: dict) -> int:
    seed, sp = cfg["seed"], cfg["sampler"]
    if cfg["self_test"]:
        N, steps = sp["self_test_N"], sp["steps"]
        if steps < 1:
            raise ConfigError(f"sampler.steps must be >= 1 for the self test, got {steps}")
        # a chunk of draws holds about max(N^2, _DRAW_ENTRIES) entries
        _require_fits(16 * steps + 128 * max(N ** 2, _DRAW_ENTRIES),
                      f"the Gaussian self test at sampler.self_test_N = {N}, sampler.steps = "
                      f"{steps}", "its samples, N x N matrices and draws")
        _make_out(cfg)
        res = gaussian_self_test(N=N, samples=steps, seed=seed, burn_in=sp["burn_in"])
        _write_csv(cfg, "samples.csv", ["step", "tr_m2"], enumerate(res["samples"]))
        summary = {k: v for k, v in res.items() if k != "samples"}
        summary.update(mean_tr_m2=_statistic(res["mean_tr_m2"]),
                       stderr=_statistic(res["stderr"]), seed=seed, mode="gaussian-self-test")
        _write_json(cfg, "summary.json", summary)
        print(f"<Tr M^2> = {res['mean_tr_m2']:.4f} +- {res['stderr']:.4f} "
              f"(target {res['target']}, acceptance {res['acceptance']:.2f})")
        return 0

    steps, burn_in = sp["steps"], sp["burn_in"]
    if steps < burn_in:
        default = " (the default)" if burn_in == _default(_ROWS["sampler.burn_in"], cfg) else ""
        raise ConfigError(f"need sampler.steps >= sampler.burn_in >= 0, got sampler.steps = "
                          f"{steps} and sampler.burn_in = {burn_in}{default}")
    N, n = cfg["geometry"]["N"], cfg["geometry"]["n"]
    # the chain's peak (tracemalloc, m = N n = 32 to 96) is at most 2869 bytes per m x m entry
    _require_fits(3200 * (N * n) ** 2, f"the chain at geometry.N = {N}, geometry.n = {n}",
                  "one kernel, the fields and their draws")
    gt = _triple(cfg)
    try:
        scfg = SamplerConfig(N=N, n=n, poly=_poly(cfg), steps=steps, burn_in=burn_in,
                             thin=sp["thin"], step_sizes=dict(sp["step_sizes"]),
                             autotune=sp["autotune"], seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _make_out(cfg)
    records, info = run_chain(scfg, gt)
    csv_path = _write_csv(cfg, "records.csv", ["step", "S_total", "S_ym", "S_h", "S_gh",
                                               "S_theta", "acceptance"], map(astuple, records))
    by_field = {k: _statistic(v) for k, v in info["acceptance_by_field"].items()}
    summary = {"seed": seed, "n_records": len(records), "step_sizes": info["step_sizes"],
               "acceptance": _statistic(info["acceptance"]), "acceptance_by_field": by_field,
               "step_size_trajectory": info["step_size_trajectory"]}
    for name in ("s_total", "s_ym", "s_h", "s_gh", "s_theta"):
        series = [getattr(r, name) for r in records]
        mean, se = batch_means(series)
        summary[name] = {"mean": _statistic(mean), "stderr": _statistic(se)}
        if name == "s_ym":  # with no records both are undefined: null
            summary[name].update(tau_int=tau_int(series) if series else None,
                                 ess=effective_sample_size(series) if series else None)
            if len(series) >= 4:
                summary["stationarity_s_ym"] = stationarity_check(series)
    _write_json(cfg, "summary.json", summary)
    print(f"{len(records)} records -> {csv_path}")
    return 0


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg-ymh",
        description="Fuzzy Yang-Mills-Higgs spectral triples: verification, "
                    "spectra, spectral action and Monte Carlo sampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("action", cmd_action),
                     ("spectrum", cmd_spectrum), ("sample", cmd_sample)):
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="root seed (overrides config)")
        sp.add_argument("--out", help="output directory")
        sp.set_defaults(func=fn)
        if name == "verify":
            sp.add_argument("--signatures", help="verify one configured signature ('one') "
                                                 "or all four ('all')")
        if name == "sample":
            sp.add_argument("--self-test", dest="self_test", action="store_true",
                            help="Gaussian single-matrix self test")
    return parser


# main's parser, built on its first call: building one costs most of a parse
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        _refuse_unread(cfg, args.command)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
