"""CPU-speed probe that scales the benchmark's times to a nominal speed.

On a shared host the speed of a core changes by up to 2x for minutes at a
time, which no number of repeats averages out.  A fixed probe, exact
Fraction elimination of an 18x18 matrix, measures that speed: it is run
every PROBE_EVERY seconds while a round runs, from a SIGALRM handler so
that it also samples the inside of long ops.  An op's time is multiplied by
PROBE_NOMINAL_S over the mean of the probes taken within PROBE_EVERY of it,
and a whole round's times by the same ratio over all its probes.  The time
the probes take is left out of every op and span, through
`SpeedProbe.clock`.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY = 0.5  # seconds between probes
PROBE_NOMINAL_S = 0.02  # the probe's time at the nominal speed


def probe() -> float:
    """Seconds taken by exact Fraction elimination of a fixed 18x18 matrix."""
    rng = random.Random(7)
    n = 18
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    t0 = time.perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t0


def scale_of(samples: list) -> float:
    """Factor that turns a time measured during `samples` into nominal time."""
    return PROBE_NOMINAL_S / statistics.fmean(samples)


class SpeedProbe:
    """Probes the CPU speed periodically while the `with` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[float] = []  # `clock()` when each sample was taken
        self.spent = 0.0  # wall time spent inside probes

    def clock(self) -> float:
        """perf_counter without the time spent probing."""
        return time.perf_counter() - self.spent

    def _sample(self, *_) -> None:
        # The probe frees all it allocates; with the collector off meanwhile,
        # the library's garbage collections happen where they would without it.
        self.at.append(self.clock())
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(probe())
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    @property
    def scale(self) -> float:
        return scale_of(self.samples)

    def scale_between(self, start: float, end: float) -> float:
        """Factor for an op that ran from `start` to `end` on `clock()`."""
        near = [
            s for s, t in zip(self.samples, self.at) if start - PROBE_EVERY <= t <= end + PROBE_EVERY
        ]
        return scale_of(near or self.samples)
