"""Host-speed reference for the end-to-end times.

On a shared virtual machine the CPU speed drifts: on a 2-vCPU Xeon VM
(Python 3.11) medians of a fixed pure-Python loop over 2 s blocks varied by
28% (IQR over median), and raw times of two runs of the same code differed
by more than any useful regression bound.

A fixed kernel, the same kind of work as homlin's polynomial kernel (a
sparse product of dict polynomials with Fraction coefficients) but the
bench's own code, runs between instances and, from a timer signal, every
``PERIOD_S`` during them (its time is taken back out of the instance's).
Each instance's time is scaled by ``NOMINAL_S`` over the median kernel time
sampled during, right before, right after and close around it, giving
seconds at a fixed reference speed.  Raw times are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence, Tuple

# kernel duration that defines the reference speed (about its median on the VM above)
NOMINAL_S = 0.0015
# reference samples this close in time to an instance also count for it
NEAR_S = 0.25
# kernel period inside instances (a 3% cost, deducted from their times)
PERIOD_S = 0.05

_A = {((i, 1), (j + 2, 1)): Fraction(i + 2 * j + 1, i + 2) for i in range(4) for j in range(4)}


def kernel() -> Tuple[float, float]:
    """(when, seconds) of one run of the reference kernel, now."""
    t = perf_counter()
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _A.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    {k: v for k, v in out.items() if v != 0}  # the clean-up pass homlin's Polynomial makes
    end = perf_counter()
    return end, end - t


class Sampler:
    """Collects (when, seconds) kernel samples: ``edge()`` between
    instances and, while armed, one per ``PERIOD_S`` from SIGALRM."""

    def __init__(self, armed: bool):
        self.samples: List[Tuple[float, float]] = []
        self.armed = armed
        self._busy = False

    def _tick(self, *_):
        if not self._busy:
            self.samples.append(kernel())

    def edge(self):
        self._busy = True
        try:
            self.samples.append(kernel())
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        if self.armed:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def taken_since(self, n: int) -> float:
        """Kernel seconds spent in the samples after the first n."""
        return sum(d for _, d in self.samples[n:])


def factor(refs: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """NOMINAL_S over the median kernel time sampled around [start, end]:
    the last sample before it, the first after it, and any within NEAR_S."""
    before = max((r for r in refs if r[0] <= start), default=refs[0])
    after = min((r for r in refs if r[0] >= end), default=refs[-1])
    window = {r for r in refs if start - NEAR_S <= r[0] <= end + NEAR_S} | {before, after}
    return NOMINAL_S / statistics.median(d for _, d in window)
