"""Smoke test of the benchmark at tiny size; not a timing gate.

    python3 -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402
SMOKE_NS = ("N2",)


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_per_workload(workload, trace):
    """Every workload of the harness, also one that BENCHMARK.json leaves out."""
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["unit"]
    if trace == 0:
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for name in result["metrics"]:
            assert result["metrics"][name]["value"] > 0
    else:
        declared = {m["name"] for m in SPEC["per_layer"]}
        got = set(result["metrics"])
        assert got <= declared
        # the smoke size runs N = 2 only; every other declared metric is present
        assert all(".N" in name and not any(f".{n}" in name for n in SMOKE_NS)
                   for name in declared - got), sorted(declared - got)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "evaluate", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
