"""Percentiles, quartiles and the parent-vs-change verdict."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so p90 needs >= 100 samples.
MIN_TAIL = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank percentile (0 < q < 100), or None when fewer than
    ``MIN_TAIL`` samples would lie beyond it."""
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_TAIL - 1e-9:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    """Classify one metric on one workload from runs keyed by seed.

    better:      the change wins >= 90% of seed pairs (ties count for
                 neither side) and the medians differ by more than the
                 parent's interquartile distance
    unresolved:  otherwise, when either side's spread exceeds the bound,
                 unless every change run beats every parent run (better)
    worse:       the change's median is worse by more than the bound
    within bound: everything else
    """
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (p_med - c_med) > p_q3 - p_q1):
        return "better"
    if max(sign * c for c in c_vals) < min(sign * p for p in p_vals):
        return "better"
    if max(spread(p_vals), spread(c_vals)) > bound:
        return "unresolved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    return "within bound"
