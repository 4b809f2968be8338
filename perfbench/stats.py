"""Order statistics shared by the harness and its tests."""

import math
import statistics


def median(values):
    """The median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0..100), interpolated linearly between the
    closest ranks (the `inclusive` rule numpy uses by default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def spread(values):
    """Interquartile distance as a share of the median, with the quartiles
    `statistics.quantiles(values, n=4)` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
