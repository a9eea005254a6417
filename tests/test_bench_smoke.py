"""Smoke test of the benchmark: the smallest oracle_cold run must pass its
own output checks (the dimension formulas and the pinned nullities)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_cold_tiny_run_is_correct():
    argv = [sys.executable, "bench/run.py", "--workload", "oracle_cold", "--tiny",
            "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
