"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 bench/selftest.py

Checks that every workload passes its own output checks untraced and
traced, that each run prints every metric BENCHMARK.json names, that two
traced runs on one seed in separate interpreters give identical counts
(only a count that repeats exactly can support a later claim), and that in
a directory holding only BENCHMARK.json and bench/ the benchmark fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args, "--seconds", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        raise AssertionError(f"checks failed: {out}")
    return out["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for wl in (w["name"] for w in spec["workloads"]):
        metrics = result(run("--workload", wl, "--seed", "5", "--trace", "0", "--tiny"))
        assert set(metrics) == e2e, f"{wl}: {sorted(set(metrics) ^ e2e)}"
        counts = []
        for _ in range(2):
            metrics = result(run("--workload", wl, "--seed", "5", "--trace", "1", "--tiny"))
            assert set(metrics) == layers, f"{wl}: {sorted(set(metrics) ^ layers)}"
            counts.append(
                {k: v["value"] for k, v in metrics.items() if v["unit"] != "s" and k != "trace.overhead_ratio"}
            )
        assert counts[0] == counts[1], f"{wl}: counts differ between runs: {counts}"
        print(f"ok {wl}: {len(counts[0])} counts repeat exactly")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "verify_all", "--seed", "0", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "the benchmark ran without the library"
        assert '"correct"' not in proc.stdout, "the benchmark printed a result without the library"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without src/ the benchmark exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
