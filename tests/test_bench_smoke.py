"""Smoke test of the benchmark: the smallest run of each workload must pass
its own output checks.  oracle_cold checks the dimension formulas and the
pinned nullities; verify_all the report's exit code, `ok` and check count;
classify_stream the verdicts against an entrywise reference, the splits and
the block and io round trips."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from symalg import blockform, construct, predicates
from symalg.verify import run_suite

ROOT = Path(__file__).resolve().parent.parent


def _tiny_run(workload: str) -> dict:
    return json.loads(_tiny_stdout(workload).strip().splitlines()[-1])


def _tiny_stdout(workload: str) -> str:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--tiny",
            "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_oracle_cold_tiny_run_is_correct():
    last = _tiny_run("oracle_cold")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_verify_all_tiny_run_is_correct():
    last = _tiny_run("verify_all")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_classify_stream_tiny_run_is_correct():
    out = _tiny_stdout("classify_stream")
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    # The seed-0 verdicts, pinned before the splits and the algebraic
    # routes were rewritten on the involution table.
    assert "verdict digest: 62d9543bd561aa92" in out.splitlines()


def test_clear_caches_empties_the_per_size_tables():
    # Each round must start as cold as a fresh CLI call, so every per-size
    # table is a module-level cache that the benchmark's clear_caches finds.
    tables = [
        construct.constructor_basis,
        blockform.layout,
        blockform._pair_slices,
        blockform._index_map,
        predicates._entrywise_route,
        predicates._algebraic_route,
    ]
    assert run_suite("all")["ok"]
    assert all(t.cache_info().currsize > 0 for t in tables)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.clear_caches()
    assert all(t.cache_info().currsize == 0 for t in tables)
