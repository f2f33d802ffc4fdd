"""Percentiles that refuse to extrapolate, and the peak-RSS probe."""

from __future__ import annotations

import math
import resource
from typing import Sequence

__all__ = ["MIN_BEYOND", "InsufficientSamples", "percentile", "peak_rss_mb"]

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise one outlier decides the figure.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples beyond the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between closest
    ranks) of ``samples``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie above it, i.e. unless
    ``len(samples) * (1 - q/100) >= MIN_BEYOND``.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = len(samples) * (100 - q) / 100
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(samples)} samples has {beyond:.1f} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
