"""symalg benchmark: one workload per call, metrics as JSON on the last line.

    python3 bench/run.py --workload verify_all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Workloads are defined in `workloads.py`.

--trace 0 times rounds of the workload until --seconds is spent (at least
one round) and reports the end-to-end metrics.  Each op's latency is its
median over the rounds; wall_s is their sum, the time of one round;
op_p50_ms and op_p90_ms are percentiles over the ops; setup_s is the median
of several fresh-interpreter imports of symalg.cli.

All times are scaled to a nominal CPU speed by the probe in `speed.py`;
the times as measured and the speed factor are printed too.

--trace 1 runs two untraced rounds and one traced round, and reports the
per-layer metrics of the traced round plus trace.overhead_ratio, the traced
round's time over the second untraced round's.  The folded spans are
written to bench/out/.

Outputs are checked after every round, outside the timed region; the
process exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe, probe, scale_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def _import_library():
    if not (SRC / "symalg" / "__init__.py").is_file():
        sys.exit(f"error: no symalg source under {SRC}")
    sys.path.insert(0, str(SRC))
    import symalg

    if Path(symalg.__file__).resolve().parent != SRC / "symalg":
        sys.exit(f"error: imported symalg from {symalg.__file__}, not from {SRC}")


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing symalg.cli.

    Returns (scaled, as measured); speed probes run between the launches.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import symalg.cli"]
    times, samples = [], [probe()]
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:  # the first import may compile bytecode; users pay that once
            times.append(time.perf_counter() - t0)
        samples.append(probe())
    raw = statistics.median(times)
    return raw * scale_of(samples), raw


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Rounds of one workload, their timings and their check results."""

    def __init__(self, workload, clear_caches, cache_info):
        self.workload = workload
        self.clear_caches = clear_caches
        self.cache_info = cache_info
        self.cache = None  # cache statistics at the end of the last round
        self.op_s: list[list[float]] = []  # per round, per op, scaled
        self.raw_s: list[list[float]] = []  # the same, as measured
        self.scale = math.nan  # speed factor of the last round
        self.attempted = 0
        self.failed = 0

    def round(self, tracer=None) -> float:
        """Time one round from cold caches, then check its outputs.

        Returns the round's elapsed time, probes included.  A tracer, if
        given, is installed for the round and times its spans on the
        round's probe-free clock.
        """
        self.clear_caches()
        gc.collect()  # every round starts from the same heap
        t0 = time.perf_counter()
        with SpeedProbe() as speed:
            if tracer is not None:
                tracer.install(speed.clock)
            try:
                times, outputs = self.workload.run_round(speed.clock)
            except Exception as exc:  # a crashing op fails the round, not the run
                print(f"error: round raised {type(exc).__name__}: {exc}", file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                return time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
        self.cache = self.cache_info()
        self.scale = speed.scale
        self.raw_s.append([end - start for start, end in times])
        self.op_s.append([(end - start) * speed.scale_between(start, end) for start, end in times])
        self.attempted += len(times)
        self.failed += self.workload.check(outputs)
        return time.perf_counter() - t0


def run_timed(run: Run, seconds: float) -> None:
    """Closed loop: start another round only if it should fit in `seconds`."""
    start = time.perf_counter()
    while True:
        last = run.round()
        if time.perf_counter() - start + last > seconds:
            return


def main(argv=None) -> int:
    bench = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)

    _import_library()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    run = Run(workload, workloads.clear_caches, workloads.build_cache_info)

    if args.trace:
        run.round()  # warm-up: a first round also pays for first-touch allocation
        run.round()
        tracer = Tracer()
        run.round(tracer)
        values = {}
        if len(run.op_s) == 3:  # no round crashed
            values = {
                name: value * run.scale if name.endswith("_s") else value
                for name, value in tracer.metrics(run.cache).items()
            }
            untraced, traced = (sum(times) for times in run.op_s[1:])
            values["trace.overhead_ratio"] = traced / untraced
            tracer.write(bench / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        units = {name: _layer_unit(name) for name in values}
    else:
        setup, setup_raw = setup_seconds()
        run_timed(run, args.seconds)
        # Each op's latency is its median over the rounds, so that bursts of
        # machine noise shorter than a round barely move the figures.
        per_op = [statistics.median(col) for col in zip(*run.op_s)] or [math.nan]
        values = {
            "wall_s": sum(per_op),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p90_ms": 1000 * percentile(per_op, 0.9),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        raw = [statistics.median(col) for col in zip(*run.raw_s)] or [math.nan]
        print(f"op latency samples: {len(per_op)} ops, each the median of {len(run.op_s)} rounds")
        print(
            f"as measured, before scaling: wall_s = {sum(raw):.6g} s, "
            f"op_p50_ms = {1000 * statistics.median(raw):.6g} ms, "
            f"op_p90_ms = {1000 * percentile(raw, 0.9):.6g} ms, setup_s = {setup_raw:.6g} s; "
            f"speed factor of the last round = {run.scale:.4g}"
        )

    correct = run.failed == 0 and run.attempted > 0
    print(f"input mix: {json.dumps(workload.mix)}")
    if hasattr(workload, "digest"):
        print(f"verdict digest: {workload.digest()}")
    print(f"failed_ratio = {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} ops)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
