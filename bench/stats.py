"""The one statistics module of the benchmark: percentiles, quartiles, ratios.

Every figure the harness, the ``check`` command and the smoke test report
goes through these helpers, so a percentile means the same thing wherever it
is printed.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """The *q*-th percentile (0..100) with linear interpolation.

    ``min_beyond`` is the sample-count guard: a tail percentile is only
    meaningful when enough samples lie beyond it, so fewer than
    ``min_beyond`` samples above the *q*-th percentile is an error rather
    than a silently noisy number.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples leaves {beyond:.1f} beyond it; "
            f"need at least {min_beyond}"
        )
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (an unused layer)."""
    return sum(values) / len(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    gives them; a single value is its own three quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def ratio(value: float, base: float) -> float:
    """``value / base``; 0.0 when the base is 0 (layer not exercised)."""
    return value / base if base else 0.0


def ratio_text(value: float, base: float, unit: str = "") -> str:
    """A ratio printed with its base, e.g. ``1.08x (5.40 ms / 5.00 ms)``."""
    suffix = f" {unit}" if unit else ""
    return f"{ratio(value, base):.3f}x ({value:.4g}{suffix} / {base:.4g}{suffix})"
