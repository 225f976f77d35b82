"""The repository benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
several fresh processes, then one process that checks determinism and runs
the timed loop.  --trace 1 runs the loop with spans, probes the layers the
workload does not call, and adds a single-thread pass of the dense layers
(suffix .st); it prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, and the spans of a
traced run, are written under .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-ym-n2", "sample-higgs-n4", "evaluate", "verify-all")
SETUP_PROCESSES = 5
BUDGET_S = 170.0
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "NCG_YMH_THREADS": "1"}
P90_MIN_SAMPLES = 100


class HarnessError(RuntimeError):
    pass


def worker(args, mode, work_dir, deadline, env_extra=None, spans_path=None) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    result_path = os.path.join(work_dir, f"result-{mode}.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work-dir", work_dir, "--result", result_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **(env_extra or {}))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{mode} process exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure(args, work_dir, deadline):
    """--trace 0: set-up samples in fresh processes, then the timed loop."""
    setups = [worker(args, "setup", work_dir, deadline)
              for _ in range(1 if args.smoke else SETUP_PROCESSES - 1)]
    res = worker(args, "measure", work_dir, deadline)
    if not res["completed"]:
        raise HarnessError(f"no op completed: {res['errors'][:1]}")
    setup_samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
    errors = [e for s in setups for e in s["errors"]] + res["errors"]
    lat = res["latencies_ms"]
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "op_ms_min": metric(min(lat), "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    extra = {
        "ops_per_s": metric(res["completed"] / res["program_s"], "op/s"),
        "op_ms_p50": metric(statistics.median(lat), "ms"),
        "fail_frac": metric(res["failed"] / res["attempted"], "ratio"),
        "op_ms_p90": (metric(statistics.quantiles(lat, n=10)[-1], "ms")
                      if len(lat) >= P90_MIN_SAMPLES else None),
    }
    notes = [f"setup_s samples: {[round(s, 4) for s in setup_samples]}",
             f"latency samples: {len(lat)}; ops completed {res['completed']} of "
             f"{res['attempted']} in {res['program_s']:.3f} s of program time "
             f"({res['loop_wall_s']:.3f} s loop wall)"]
    return res, metrics, extra, errors, notes


def trace(args, work_dir, deadline, out_dir):
    """--trace 1: traced loop plus probes, then the single-thread pass."""
    spans_path = str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    res = worker(args, "trace", work_dir, deadline, spans_path=spans_path)
    st = worker(args, "st", work_dir, deadline, env_extra=SINGLE_THREAD_ENV)
    metrics = dict(res["metrics"])
    metrics.update(st["metrics"])
    bd = res["breakdown"]
    notes = [f"spans: {spans_path}",
             f"single-thread pass env: {json.dumps(st['env'])}",
             f"traced ops {bd['ops']}, mean {bd['op_ms_mean']:.3f} ms; op self time "
             f"(benchmark checks) median {bd['op_self_ms_median']:.3f} ms, "
             f"share {bd['op_self_share']:.4f}; wait time: none (no layer has a queue)"]
    notes += [f"  layer {k:<9} self {v:10.3f} ms/op  share {bd['layer_share'][k]:.4f}"
              for k, v in bd["layer_self_ms_per_op"].items()]
    return res, metrics, {}, res["errors"] + st["errors"], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one op per workload; not a timing run")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ncg_ymh" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'ncg_ymh'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    out_dir = ROOT / ".perfbench_out"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    try:
        run = trace if args.trace else measure
        extra_args = (out_dir,) if args.trace else ()
        res, metrics, extra, errors, notes = run(args, str(work_dir), deadline, *extra_args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_end = os.getloadavg()

    env = dict(res["env"], git_commit=git_commit(), nproc=os.cpu_count(),
               loadavg_start=load_start, loadavg_end=load_end)
    correct = not errors and res["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  driver: one thread, closed loop")
    print(f"env: {json.dumps(env)}")
    for line in notes:
        print(line)
    for name, m in {**metrics, **extra}.items():
        shown = "n/a (fewer than 100 latency samples)" if m is None \
            else f"{m['value']!r} {m['unit']}"
        print(f"{name} = {shown}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    summary = {"correct": correct, "attempted": int(res["attempted"]),
               "failed": int(res["failed"]), "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, extra=extra, notes=notes, errors=errors,
                  latencies_ms=res.get("latencies_ms"), breakdown=res.get("breakdown"))
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
