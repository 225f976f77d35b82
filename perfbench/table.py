"""Write perfbench/results/BENCH_<label>.json: every workload untraced and
traced, and the ROADMAP baseline table read back from the spans.

    python3 perfbench/table.py --label baseline --seed 7 --seconds 45

The table gives, per call at N = 2, 4, 6 (flat (0,4) data, D_F != 0, n = 2),
the minimum and median of `assemble_fluctuated`, `eigvalsh` and `sectors`
(from the `evaluate` spans), the sampler's action evaluation (one proposal
of a short Higgs chain) and `check_axioms` (traced here).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS  # noqa: E402

TABLE_NS = (2, 4, 6)
REPEATS = 3


def bench(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    path = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path) as fh:
        return json.load(fh)


def load_spans(workload, seed) -> list:
    with open(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json") as fh:
        return json.load(fh)["spans"]


def stats_ms(durations) -> dict:
    return {"min_ms": 1e3 * min(durations), "median_ms": 1e3 * statistics.median(durations),
            "calls": len(durations)}


def traced_table_calls(seed) -> dict:
    """check_axioms and one sampler proposal per N, traced in this process."""
    import numpy as np

    from ncg_ymh import clifford, dirac, sampler
    from ncg_ymh.dirac import FiniteData, GaugeTriple

    import spans
    import workloads as W

    tr = spans.Tracer()
    sig = clifford.build_signature(0, 4)
    mod = clifford.build_gammas(sig)
    for N in TABLE_NS:
        DF = dirac.random_hermitian(W.FINITE_N, np.random.default_rng(W.derive_seed(seed, 6, N)))
        fz = dirac.random_fuzzy(N, sig, seed=W.derive_seed(seed, 7, N), include_X=False)
        gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=W.FINITE_N, D_F=DF))
        for rep in range(REPEATS):
            with tr.span(f"dirac.check_axioms.N{N}"):
                dirac.check_axioms(gt, mod, seed=rep, pairs=20)
        steps, fields = 6, 8 + (0 if gt.yang_mills else 1)
        cfg = sampler.SamplerConfig(N=N, n=W.FINITE_N, poly=W.POLY, steps=steps, burn_in=0,
                                    seed=W.derive_seed(seed, 8, N))
        sampler.run_chain(cfg, gt)  # warm-up
        for _ in range(REPEATS):
            with tr.span(f"sampler.proposal.N{N}", work=fields * steps):
                sampler.run_chain(cfg, gt)
    per_call = {}
    for sp in tr.spans:
        per_call.setdefault(sp.name, []).append(sp.duration / sp.work)
    return per_call


# the traced call that matches one untraced op
_TRACED_OP = {"sample-ym-n2": ["sampler.sweep_ms.ym_n2"],
              "sample-higgs-n4": ["sampler.sweep_ms.higgs_n4"],
              "verify-all": ["cli.verify_ms"],
              "evaluate": [f"cli.{c}_ms.N{N}" for c in ("action", "spectrum") for N in (2, 3, 4, 6)]}


def tracing_overhead(workload, untraced, traced) -> float:
    """Traced time of one op over the untraced op_ms_p50, minus one.

    The two come from different processes, so run-to-run noise is included.
    """
    traced_ms = sum(traced["metrics"][k]["value"] for k in _TRACED_OP[workload])
    return traced_ms / untraced["extra"]["op_ms_p50"]["value"] - 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=45)
    args = ap.parse_args(argv)

    out = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
           "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for w in WORKLOADS:
        untraced = bench(w, args.seed, args.seconds, 0)
        traced = bench(w, args.seed, args.seconds, 1)
        out.setdefault("env", untraced["env"])
        out["workloads"][w] = {
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": untraced["metrics"], "printed_only": untraced["extra"],
            "per_layer": traced["metrics"], "breakdown": traced["breakdown"],
            "tracing_overhead_vs_untraced": tracing_overhead(w, untraced, traced),
            "notes": untraced["notes"] + traced["notes"]}

    by_name = {}
    for row in load_spans("evaluate", args.seed):
        by_name.setdefault(row[1], []).append(row[3] - row[2])
    extra = traced_table_calls(args.seed)
    table = []
    for N in TABLE_NS:
        m = N * 2
        table.append({
            "N": N, "m": m, "dim_H": 4 * m * m,
            "assemble_fluctuated": stats_ms(by_name[f"fluct.assemble_fluctuated.N{N}"]),
            "eigvalsh": stats_ms(by_name[f"numpy.eigvalsh.N{N}"]),
            "sectors": stats_ms(by_name[f"action.sectors.N{N}"]),
            "sampler_action_eval": stats_ms(extra[f"sampler.proposal.N{N}"]),
            "check_axioms": stats_ms(extra[f"dirac.check_axioms.N{N}"]),
        })
    out["roadmap_table"] = table

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    cols = ("assemble_fluctuated", "eigvalsh", "sectors", "sampler_action_eval", "check_axioms")
    print("| N (m) | dim H | " + " | ".join(f"`{c}`" for c in cols) + " |")
    print("|---" * (len(cols) + 2) + "|")
    for row in table:
        cells = [f"{row[c]['median_ms']:.3g} ms (min {row[c]['min_ms']:.3g})" for c in cols]
        print(f"| {row['N']} ({row['m']}) | {row['dim_H']} | " + " | ".join(cells) + " |")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
