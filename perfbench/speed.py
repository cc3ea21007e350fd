"""How fast the host runs while a workload runs, so that times can be given
at one reference speed.

The benchmark's host is a shared VM whose speed changes by up to a factor
of two over seconds to minutes, as other tenants load the cores it shares
(README, *Noise*).  A fixed probe -- a few dozen steps of Fraction and dict
arithmetic -- runs from a SIGALRM handler every PERIOD_S seconds of wall
time while the workload runs.  The reference speed is the one at which the
probe takes REF_S; a probe that took 2 * REF_S says that the host ran at
half that speed around it.  ``scale`` turns a measured interval into the
time it would have taken at the reference speed: the interval, less the
probes that ran inside it, times the mean speed of those probes and of the
NEAR nearest probes on each side.  The probe takes about 0.115 ms on an idle
core of the machine the README's figures come from, so times at the
reference speed read about 0.87 of that machine's unloaded times.

Python runs signal handlers in the main thread between bytecodes, so the
probe never runs concurrently with the workload and never changes its
results.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import List, Sequence

PERIOD_S = 0.005
REF_S = 1e-4
NEAR = 3  # probes on each side of an interval that also give its speed


def probe() -> float:
    """Run the fixed probe once; return its wall time."""
    t0 = time.perf_counter()
    s = Fraction(0)
    seen = {}
    for i in range(1, 60):
        s += Fraction(1, i)
        seen[i] = s
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs ``probe`` every PERIOD_S seconds inside the ``with`` block and
    keeps each probe's start and duration."""

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, cpu: float) -> List[float]:
        """[wall, cpu] of the interval [start, end] at the reference speed,
        where ``cpu`` is the CPU time the process used over the interval
        (probes included)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.durations[lo:hi])
        near = self.durations[max(lo - NEAR, 0):hi + NEAR]
        speed = mean_speed(near) if near else 1.0
        return [(end - start - inside) * speed,
                max(cpu - inside, 0.0) * speed]


def mean_speed(durations: Sequence[float]) -> float:
    """The host's mean speed over probes of the given durations, as a share
    of the reference speed."""
    return sum(REF_S / d for d in durations) / len(durations)
