"""Self-test of the benchmark, at reduced workload sizes.

    python3 -m pytest bench/tests

For every workload, a traced and an untraced run must print every metric
BENCHMARK.json declares, with its unit and direction, and the traced runs
must write byte-identical results to the untraced ones (the tracer perturbs
no RNG stream or result).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
LINE = re.compile(r"^  (\S+) = (\S+) (\S+) \((higher|lower) is better\)$")


def _run(workload: str, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = (match.group(3), match.group(4))
    result = json.loads(lines[-1])
    details = json.loads((BENCH / "out" / workload / f"seed-{SEED}-small" / "result.json").read_text())
    return result, printed, details


def _assert_declared(section: str, result: dict, printed: dict) -> None:
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, (unit, better) in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert printed[name] == (unit, better), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    result, printed, _ = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_declared("end_to_end", result, printed)
    assert printed["fail_rate"] == ("ratio", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_metrics_and_same_results(workload):
    result, printed, details = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    _assert_declared("per_layer", result, printed)
    runs = details["runs"]
    traced = [r["digest"]["sha256"] for r in runs if r["traced"]]
    untraced = [r["digest"]["sha256"] for r in runs if not r["traced"]]
    assert traced and untraced
    assert all(d == untraced[0] for d in traced + untraced)
    # Every workload snapshots through names bound in cli, dpg or baselines.
    assert result["metrics"]["metrics.snapshot.calls"]["value"] > 0
