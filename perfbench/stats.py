"""Summary statistics the benchmark reports: medians and tail percentiles."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer samples the highest percentile that has them is
#: reported instead, together with the sample count.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Percentile:
    """One reported percentile: which one it really is, and of how many samples."""

    value: float
    percentile: float
    samples: int


def supported_percentile(wanted: float, samples: int) -> float:
    """The highest percentile <= ``wanted`` with ``MIN_TAIL_SAMPLES`` beyond it.

    Percentiles are whole numbers (p99, p98, ...), never below the median;
    ``0.0`` means even the median lacks the samples and only the median is
    reported.
    """
    if samples <= 0:
        return 0.0
    # samples * (100 - p) / 100 >= MIN_TAIL_SAMPLES
    best = math.floor(100.0 - 100.0 * MIN_TAIL_SAMPLES / samples)
    best = min(float(best), wanted)
    return best if best >= 50.0 else 0.0


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def tail(values: Sequence[float], wanted: float = 99.0) -> Percentile:
    """The ``wanted`` percentile, or the highest one the sample supports."""
    ordered = sorted(values)
    percentile = supported_percentile(wanted, len(ordered))
    if percentile == 0.0:
        return Percentile(statistics.median(ordered), 50.0, len(ordered))
    return Percentile(nearest_rank(ordered, percentile), percentile, len(ordered))
