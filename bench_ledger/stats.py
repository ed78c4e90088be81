"""Timers and the percentile picker of the bench ledger.

Kept here, not imported from ``src/repro/bench``, so a later change to the
system's own helpers cannot silently move the ruler.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Iterable, Sequence

now = perf_counter

#: Percentiles a tail may be reported at, ascending.
TAIL_LADDER = (0.75, 0.9, 0.95, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """Nearest-rank index (0-based) of the ``q`` quantile of ``n`` samples."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile; ``samples`` need not be sorted."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q)]


def supported_tail(n: int) -> float | None:
    """Highest ladder percentile that still has >= 10 samples beyond it.

    ``None`` when even the lowest rung leaves fewer than ten samples above
    it: such a sample supports a median and nothing else.
    """
    best = None
    for q in TAIL_LADDER:
        if n - (rank(n, q) + 1) >= MIN_BEYOND:
            best = q
    return best


def summarize(samples: Iterable[float], scale: float = 1.0) -> dict:
    """Median, the highest supported tail and the sample count.

    ``scale`` converts units (samples are kept in seconds; 1e3 gives ms).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_q": None, "tail": 0.0}
    q = supported_tail(n)
    return {
        "n": n,
        "p50": ordered[rank(n, 0.5)] * scale,
        "tail_q": q,
        "tail": ordered[rank(n, q)] * scale if q is not None else 0.0,
    }


def p50(samples: Sequence[float], scale: float = 1.0) -> float:
    return percentile(samples, 0.5) * scale if samples else 0.0


def quantile_or_zero(samples: Sequence[float], q: float, scale: float = 1.0) -> float:
    """``q`` quantile when the sample supports it (>= 10 beyond), else 0."""
    n = len(samples)
    if n == 0 or n - (rank(n, q) + 1) < MIN_BEYOND:
        return 0.0
    return percentile(samples, q) * scale


def mean(samples: Sequence[float], scale: float = 1.0) -> float:
    return statistics.fmean(samples) * scale if samples else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0
