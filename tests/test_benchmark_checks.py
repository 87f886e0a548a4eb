"""Run short benchmark passes so that their correctness checks gate the test
suite: guest reads and the read-backs after snapshot and after recover are
compared with a reference model, and every repetition must end with
``verify_invariants() == []``. ``guest_io`` runs traced, so the per-layer
wrappers are exercised against the current method signatures. ``fleet_churn``
is the one pass with more than 999 nodes, and it writes netboot files for
every provision at fleet scale."""

import json
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def run_pass(workload: str, trace: str) -> None:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr


def test_fleet_churn_benchmark_pass_is_correct():
    run_pass("fleet_churn", "0")


def test_lifecycle_benchmark_pass_is_correct():
    run_pass("lifecycle", "0")


def test_traced_guest_io_benchmark_pass_is_correct():
    run_pass("guest_io", "1")
