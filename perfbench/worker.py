"""One fresh benchmark process.  run.py starts it; it is not run by hand.

    --mode setup    set up (import, inputs, one warm-up op) and report the time
    --mode measure  set up, check determinism, run the timed loop untraced
    --mode trace    set up, run the loop with spans, then probe the layers
                    the workload does not call, and derive per-layer metrics
    --mode st       the dense layers of `evaluate`, traced, meant to be run
                    with OPENBLAS_NUM_THREADS=1 and NCG_YMH_THREADS=1

The result is written as JSON to --result; spans go to --spans.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ncg_ymh  # noqa: E402
from ncg_ymh import clifford, sampler  # noqa: E402

if Path(ncg_ymh.__file__).resolve().parent != (SRC / "ncg_ymh").resolve():
    sys.exit(f"ncg_ymh imported from {ncg_ymh.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads as W  # noqa: E402

PROBE_REPEATS = 2
ST_REPEATS = 3
GAMMA_REPEATS = 5
PROBE_OP_BASE = 1_000_000


def environment() -> dict:
    """What the process ran with: interpreter, numpy, BLAS and threads."""
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ncg_ymh": ncg_ymh.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_effective": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NCG_YMH_THREADS": os.environ.get("NCG_YMH_THREADS"),
        "verify_worker_cap": W.verify_worker_cap(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(wl, seed, seconds, smoke, tr):
    """Closed loop of ops until the op boundary nearest `seconds`."""
    results = []
    start = time.perf_counter()
    i = 0
    while True:
        op_seed = W.derive_seed(seed, 3, i)
        t = time.perf_counter()
        with tr.span("op", op=i) as sid:
            res = wl.op(op_seed, tr, sid, i)
        results.append(res)
        i += 1
        elapsed = time.perf_counter() - start
        if smoke or elapsed + (time.perf_counter() - t) / 2 >= seconds:
            return results, elapsed


def summarize(results) -> dict:
    attempted = sum(r.units for r in results)
    failed = sum(r.units for r in results if not r.ok)
    program_s = sum(r.program_s for r in results if r.ok)
    latencies = [1e3 * r.program_s / r.units for r in results if r.ok and r.units]
    counts = defaultdict(int)
    for r in results:
        for k, v in r.counts.items():
            counts[k] += v
    return {
        "attempted": attempted, "failed": failed, "program_s": program_s,
        "completed": attempted - failed, "latencies_ms": latencies,
        "counts": dict(counts),
        "errors": [e for r in results for e in r.errors][:5],
    }


def setup(args):
    wl = W.WORKLOADS[args.workload](args.seed, args.work_dir, args.smoke)
    warm = wl.op(W.derive_seed(args.seed, 0), spans.NullTracer(), None, None, size="warmup")
    return wl, warm, time.perf_counter() - T0


def determinism(wl, seed) -> list:
    """The same seed twice must give identical records; returns problems."""
    s = W.derive_seed(seed, 2)
    a = wl.op(s, spans.NullTracer(), None, None, size="check")
    b = wl.op(s, spans.NullTracer(), None, None, size="check")
    problems = a.errors + b.errors
    if not problems and a.digest != b.digest:
        problems.append("same seed gave different records")
    return problems


# ------------------------------------------------------------ layer metrics

def _m(value, unit):
    return {"value": float(value), "unit": unit}


DENSE_SPANS = ("fluct.assemble_fluctuated", "action.sectors",
               "action.spectral_action_direct", "numpy.eigvalsh")


def per_call_metrics(all_spans, Ns, suffix="", names=None) -> dict:
    """Median duration per call of each probed library call, by span name."""
    by = spans.durations_by_name(all_spans)
    table = [("clifford.build_gammas_ms", "clifford.build_gammas"),
             ("dirac.check_axioms_ms.N2", "dirac.check_axioms.N2"),
             ("dirac.lichnerowicz_rhs_ms.N3", "dirac.lichnerowicz_rhs.N3"),
             ("fluct.connes_one_form_ms.N2", "fluct.connes_one_form.N2"),
             ("action.trace_d4_closed_ms.N2", "action.trace_d4_closed.N2"),
             ("gauge.covariance_report_ms.N2", "gauge.covariance_report.N2"),
             ("cli.verify_ms", "cli.verify"),
             ("verify.riemannian_suite_ms", "verify.riemannian_suite")]
    table += [(f"verify.signature_suite_ms.{p}{q}", f"verify.signature_suite.{p}{q}")
              for p, q in W.SIGNATURES]
    for N in Ns:
        table += [(f"{s}_ms.N{N}", f"{s}.N{N}") for s in DENSE_SPANS]
        table += [(f"cli.action_ms.N{N}", f"cli.action.N{N}"),
                  (f"cli.spectrum_ms.N{N}", f"cli.spectrum.N{N}")]
    out = {}
    for metric, span in table:
        if by.get(span) and (names is None or span.rsplit(".", 1)[0] in names):
            out[metric + suffix] = _m(1e3 * statistics.median(by[span]), "ms")
    return out


def sampler_metrics(all_spans, chain_results) -> dict:
    out = {}
    by_key = defaultdict(list)
    for r in chain_results:
        by_key[r.diag["key"]].append(r)
    for key, rs in sorted(by_key.items()):
        fields = rs[0].diag["fields"]
        per_sweep = [sp.duration / sp.work for sp in all_spans
                     if sp.name == f"sampler.run_chain.{key}"]
        proposals = sum(r.counts["sampler.proposals"] for r in rs)
        accepted = sum(r.counts["sampler.accepted"] for r in rs)
        out[f"sampler.sweep_ms.{key}"] = _m(1e3 * statistics.median(per_sweep), "ms")
        out[f"sampler.proposal_us.{key}"] = _m(
            1e6 * statistics.median(per_sweep) / fields, "us")
        out[f"sampler.acceptance.{key}"] = _m(accepted / max(1, proposals), "ratio")
        out[f"sampler.tau_int_s_ym.{key}"] = _m(
            statistics.median(r.diag["tau_int_sweeps"] for r in rs), "sweeps")
        out[f"sampler.ess_per_s.{key}"] = _m(
            statistics.median(r.diag["ess_per_s"] for r in rs), "1/s")
    gst = [sp.duration for sp in all_spans if sp.name == "sampler.gaussian_self_test"]
    if gst:
        out["sampler.gaussian_self_test_s"] = _m(statistics.median(gst), "s")
    return out


def cli_overheads(all_spans) -> dict:
    """CLI span minus the library replay of the same pipeline, per op."""
    per_op = defaultdict(lambda: defaultdict(float))
    for sp in all_spans:
        layer = sp.name.split(".")
        if sp.op is None or len(layer) < 2:
            continue
        if layer[0] == "cli" and layer[1] in ("action", "spectrum"):
            per_op[sp.op]["eval"] += sp.duration
        elif layer[0] == "replay" and layer[1] in ("action", "spectrum"):
            per_op[sp.op]["eval"] -= sp.duration
        elif sp.name == "cli.verify":
            per_op[sp.op]["verify"] += sp.duration
        elif sp.name == "replay.verify":
            per_op[sp.op]["verify"] -= sp.duration
    out = {}
    for kind, metric in (("eval", "cli.overhead_ms"), ("verify", "cli.verify_overhead_ms")):
        vals = [d[kind] for d in per_op.values() if kind in d]
        if vals:
            out[metric] = _m(1e3 * statistics.median(vals), "ms")
    return out


def probe(own, seed, work_dir, smoke, tr):
    """Traced ops of every other workload, so each layer metric is measured."""
    results, instances = [], []
    k = 0
    for name, cls in W.WORKLOADS.items():
        if name == own:
            continue
        wl = cls(seed, work_dir, smoke)
        instances.append(wl)
        for rep in range(1 if smoke else PROBE_REPEATS):
            op_id = PROBE_OP_BASE + k
            k += 1
            with tr.span("probe", op=op_id) as sid:
                results.append(wl.op(W.derive_seed(seed, 5, k), tr, sid, op_id, size="probe"))
    with tr.span("probe", op=PROBE_OP_BASE + k) as sid:
        with tr.span("sampler.gaussian_self_test", sid, PROBE_OP_BASE + k):
            res = sampler.gaussian_self_test(N=2, samples=2000 if smoke else 100_000,
                                               seed=11)
    gauss_ok = bool(np.isfinite(res["mean_tr_m2"]) and (smoke or res["within_3se"]))
    return results, instances, gauss_ok


# -------------------------------------------------------------------- modes

def single_thread_pass(args) -> dict:
    """The evaluate library pipeline, warmed up once, then traced."""
    wl = W.Evaluate(args.seed, args.work_dir, args.smoke)
    tr = spans.Tracer()
    for rep in range(1 + (1 if args.smoke else ST_REPEATS)):
        for N in wl.Ns:
            wl.replay(tr if rep else spans.NullTracer(), None, None, N,
                      W.derive_seed(args.seed, 4, rep))
    return {"workload": args.workload, "errors": [], "env": environment(),
            "metrics": per_call_metrics(tr.spans, wl.Ns, ".st", DENSE_SPANS)}


def run(args) -> dict:
    if args.mode == "st":
        return single_thread_pass(args)
    wl, warm, setup_s = setup(args)
    out = {"workload": args.workload, "setup_s": setup_s, "errors": list(warm.errors)}
    if args.mode == "setup":
        return out
    out["env"] = environment()

    out["errors"] += determinism(wl, args.seed)
    if args.mode == "trace":
        return traced_run(args, wl, out)
    results, wall = timed_loop(wl, args.seed, args.seconds, args.smoke, spans.NullTracer())
    out.update(summarize(results), loop_wall_s=wall, peak_rss_mb=peak_rss_mb())
    return out


def traced_run(args, wl, out) -> dict:
    """The loop with spans, the probes, and the per-layer metrics from both."""
    tr = spans.Tracer()
    t_trace = time.perf_counter()
    for pq in W.SIGNATURES:
        sig = clifford.build_signature(*pq)
        for _ in range(GAMMA_REPEATS):
            with tr.span("clifford.build_gammas"):
                clifford.build_gammas(sig)
    results, wall = timed_loop(wl, args.seed, args.seconds, args.smoke, tr)
    loop_spans = len(tr.spans)
    breakdown = spans.op_breakdown(tr.spans)
    probe_results, probed, gauss_ok = probe(args.workload, args.seed, args.work_dir, args.smoke, tr)
    if not gauss_ok:
        out["errors"].append("gaussian self test outside 3 standard errors")
    out["errors"] += [e for r in probe_results for e in r.errors][:5]

    summary = summarize(results)
    cost = spans.span_cost_s()
    metrics = per_call_metrics(tr.spans, W.EVAL_NS)
    chains = [r for r in results + probe_results if r.diag.get("key")]
    metrics.update(sampler_metrics(tr.spans, chains))
    metrics.update(cli_overheads(tr.spans))
    D_bytes = {}
    for inst in (wl, *probed):
        D_bytes.update(getattr(inst, "D_bytes", {}))
    for N, nbytes in sorted(D_bytes.items()):
        metrics[f"fluct.D_bytes.N{N}"] = _m(nbytes, "bytes")
    metrics["op.self_ms"] = _m(breakdown["op_self_ms_median"], "ms")
    metrics["op.self_share"] = _m(breakdown["op_self_share"], "ratio")
    metrics["trace.span_cost_us"] = _m(1e6 * cost, "us")
    metrics["trace.overhead_pct"] = _m(100.0 * cost * loop_spans / wall, "%")
    metrics["trace.spans_per_op"] = _m(loop_spans / len(results), "count")
    metrics["ops.attempted"] = _m(summary["attempted"], "count")
    metrics["ops.failed"] = _m(summary["failed"], "count")
    for name in ("cli.calls", "cli.failed", "sampler.sweeps", "sampler.proposals",
                 "sampler.accepted", "verify.identities"):
        metrics[name] = _m(summary["counts"].get(name, 0), "count")
    out.update(summary, loop_wall_s=wall, metrics=metrics, breakdown=breakdown)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "columns": ["id", "name", "start_s", "end_s", "parent", "op", "work"],
                       "spans": spans.to_rows(tr.spans, t_trace)}, fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "st"])
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out = run(args)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
