"""A fixed reference kernel that gauges the machine's current speed.

On a shared host the speed a process gets drifts by tens of percent over
seconds to minutes, so two runs of the same code can differ by more than
any useful regression bound.  The benchmark runs this kernel next to the
jobs it times and scales each timing by ``NOMINAL_S / kernel time``: a
timing is reported in the seconds it would take on a machine where the
kernel takes ``NOMINAL_S``.  The kernel uses no ``leafalg`` code, so a
change to the program moves the scaled timings by exactly as much as it
moves the raw ones.

The kernel does the kind of work the program does: ``Fraction``
arithmetic on dictionaries keyed by exponent tuples (part of a
multivariate division).  Beside a job, its time tracks the job's time
closely (correlation about 0.9 over windows of a few seconds on a 2-core
virtual machine whose speed swung by a factor of two), which is what
makes the scaled timings steadier than the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# kernel seconds on the machine the benchmark was written on (2 shared
# cores); only scales the reported numbers, both sides of a comparison
# use the same value
NOMINAL_S = 0.007

# a dense polynomial in three variables and two divisors, keyed by
# exponent tuples as in leafalg.poly
_F = {
    (i, j, k): Fraction(7 * i + 3 * j - k, 1 + (i + k) % 3)
    for i in range(10)
    for j in range(10)
    for k in range(5)
}
_G = ({(1, 0, 1): 1, (0, 1, 1): -2, (0, 0, 2): 3}, {(0, 2, 0): 1, (1, 0, 1): 5})
_STEPS = 120


def _kernel():
    """The first ``_STEPS`` steps of dividing ``_F`` by ``_G`` in lex
    order: the shape of the program's normal forms."""
    f = dict(_F)
    remainder = {}
    for _ in range(_STEPS):
        m = max(f)
        for g in _G:
            lead = max(g)
            if all(a >= b for a, b in zip(m, lead)):
                shift = tuple(a - b for a, b in zip(m, lead))
                c = f[m] / g[lead]
                for e, ce in g.items():
                    key = tuple(a + b for a, b in zip(e, shift))
                    v = f.get(key, 0) - c * ce
                    if v:
                        f[key] = v
                    else:
                        del f[key]
                break
        else:
            remainder[m] = f.pop(m)
    return len(f), len(remainder), sum(remainder.values())


CHECK = _kernel()


class Gauge:
    """Kernel times sampled over a run, each with its time stamp, and the
    scale factor for any interval of that run."""

    # seconds on either side of an interval whose samples count for it
    WINDOW_S = 1.0
    # samples a factor rests on at least, however sparse they are
    MIN_SAMPLES = 7
    # no sample sooner than this after the last one
    GAP_S = 0.1
    # share of the time between samples that goes to the kernel
    SHARE = 0.05

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        """Unless the last sample is under ``GAP_S`` old, run the kernel
        as often as takes ``SHARE`` of the time since then (at least
        once), with the collector paused so that garbage from the jobs
        is not charged to the kernel."""
        since = time.perf_counter() - self.stamps[-1] if self.stamps else 0.0
        if self.stamps and since < self.GAP_S:
            return
        repeats = max(1, min(40, round(self.SHARE * since / NOMINAL_S)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                result = _kernel()
                end = time.perf_counter()
                self.stamps.append(end)
                self.times.append(end - start)
        finally:
            if enabled:
                gc.enable()
        if result != CHECK:
            raise SystemExit("bench: reference kernel gave a different result")

    def scaled(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end`` times ``NOMINAL_S`` over
        the median kernel time sampled within ``WINDOW_S`` of that
        interval (at least the ``MIN_SAMPLES`` nearest samples)."""
        lo = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + self.WINDOW_S)
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            if lo > 0:
                lo -= 1
            if hi < len(self.stamps):
                hi += 1
        return (end - start) * NOMINAL_S / statistics.median(self.times[lo:hi])
