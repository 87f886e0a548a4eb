"""Run one short benchmark pass so that its correctness checks gate the test
suite: guest reads and the read-backs after snapshot and after recover are
compared with a reference model, and every repetition must end with
``verify_invariants() == []``."""

import json
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def test_lifecycle_benchmark_pass_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lifecycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
