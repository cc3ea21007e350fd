"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

# Percentiles tried from the highest down; one is reported only when at
# least MIN_BEYOND samples lie beyond it.
LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10
MIN_FOR_TAIL = 40


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


def _rank(p: float, n: int) -> int:
    # round first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """(p, value) for the highest percentile with at least ten samples beyond
    it.  Below forty samples, or when no percentile qualifies, the median is
    reported alone and p is None."""
    n = len(values)
    if n >= MIN_FOR_TAIL:
        for p in LADDER:
            if n - _rank(p, n) >= MIN_BEYOND:
                return p, percentile(values, p)
    return None, median(values)


def unit_medians(rounds: Sequence[Sequence[Optional[Sequence[float]]]]
                 ) -> List[Tuple[float, float]]:
    """Each unit's median (wall, CPU) over the rounds.  ``rounds[r][u]`` is
    unit u's [wall, cpu] in round r, or None where it did not run.  Wall and
    CPU are taken apart; a unit that never ran counts as (0, 0)."""
    out = []
    for samples in zip(*rounds):
        ran = [s for s in samples if s]
        out.append((median([s[0] for s in ran]), median([s[1] for s in ran]))
                   if ran else (0.0, 0.0))
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
