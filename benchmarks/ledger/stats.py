"""Sample statistics for the runner.

Latency percentiles are nearest-rank over the *pooled* samples of every
timed rep (the same ``ceil(q*n) - 1`` rank the repo's own summaries use),
and a percentile only counts as supported when at least
``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A percentile needs this many pooled samples strictly beyond its rank.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("no samples")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q`` rank."""
    return n - min(n, max(1, math.ceil(q * n)))


def pooled_percentile(
    reps: Iterable[Sequence[float]], q: float
) -> Dict[str, float]:
    """Percentile ``q`` over the union of every rep's samples.

    Returns the value, the pooled sample count and how many samples lie
    beyond the rank; ``supported`` is false when fewer than
    :data:`MIN_BEYOND` do, in which case the caller must lengthen the run
    rather than quote the figure.
    """
    pooled: List[float] = []
    for rep in reps:
        pooled.extend(rep)
    pooled.sort()
    beyond = samples_beyond(len(pooled), q)
    return {
        "value": percentile(pooled, q),
        "n": len(pooled),
        "beyond": beyond,
        "supported": beyond >= MIN_BEYOND,
    }
