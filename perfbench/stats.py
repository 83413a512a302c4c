"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math


def quantile(values, q):
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sequence")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
