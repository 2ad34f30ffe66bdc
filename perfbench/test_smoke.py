"""Smoke test of the benchmark at tiny size.

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json names, with their units, and pass every correctness check.
Takes a few seconds:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def tiny(workload, seed, trace):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    result = json.loads(tiny(workload, 3, trace).stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0


def test_same_seed_prints_same_digest():
    def digest(seed):
        lines = tiny("queries", seed, 0).stdout.splitlines()
        return next(line for line in lines if "sha256=" in line).split("sha256=")[1]

    assert digest(5) == digest(5) != digest(6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
