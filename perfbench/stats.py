"""Summary statistics for timing samples.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, with the sample count.
"""

import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile (numpy's default rule), p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, min_beyond=MIN_BEYOND):
    """Highest tail percentile with at least `min_beyond` of `n` samples beyond
    it, or None when even the lowest candidate has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) >= 100.0 * min_beyond - 1e-6:  # tolerate 100 - 99.9 != 0.1
            return p
    return None


def summarize(values):
    """{"n", "p50", "tail_pct", "tail"} for a list of samples."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_pct": p,
        "tail": percentile(values, p) if p is not None else None,
    }
