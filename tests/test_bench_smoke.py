"""Smoke run of the benchmark harness: tiny budgets, counts only, no timing
gates.  Each command runs as its own process from the repository root."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_workload(workload, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("eval-direct", 1), ("eval-split", 0),
                                            ("eval-split", 1), ("solve", 1)])
def test_workload_correct_without_failures(workload, trace):
    result = run_workload(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    metrics = result["metrics"]
    if workload == "eval-direct":
        # one order solve per direct evaluation, value or derivative
        assert metrics["certified.order_per_eval"]["value"] <= 1.0
        # the traced kernel names still exist and are still called
        assert metrics["certified.real_ns_per_term"]["value"] > 0
        assert metrics["certified.complex_ns_per_term"]["value"] > 0
        assert metrics["certified.deriv_ns_per_term"]["value"] > 0
    if trace and workload == "eval-split":
        # the ddarith names counted on tripleprod still exist and are called
        assert metrics["ddarith.calls_per_split"]["value"] > 0
    if trace and workload == "solve":
        # the traced spectral seed and Newton names still exist and are called
        assert metrics["spectrum.seed_s"]["value"] > 0
        assert metrics["spectrum.newton_s"]["value"] > 0
