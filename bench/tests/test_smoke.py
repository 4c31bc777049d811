"""Smoke test: every workload runs at its tiny size, reports every metric and fails no op.

Asserts names, units and correctness only, never timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload run.py accepts, including those BENCHMARK.json does not gate
WORKLOADS = ("cli-startup", "ball-integrals", "pointwise", "montecarlo")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_reports(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    assert_reports(run(workload, 0), SPEC["end_to_end"])


def test_traced_run_reports_every_layer():
    assert_reports(run("pointwise", 1), SPEC["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "pointwise",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
