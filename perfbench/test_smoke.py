"""Smoke tests of the benchmark itself, at a size that runs in seconds.

Run from the repository root with ``python -m pytest perfbench``.  Each
workload runs untraced and traced on tiny inputs; the result line must
carry exactly the metric names and units ``BENCHMARK.json`` declares,
and every output check must pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = BENCHMARK["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(
        [sys.executable] + command, cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in BENCHMARK["workloads"]]
)
def test_smoke_metrics_match_benchmark_json(workload: str, trace: int) -> None:
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path: str) -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero,
    print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp_path, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(str(tmp_path), BENCHMARK["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
