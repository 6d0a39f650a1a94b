"""Order statistics for operation timings."""
import math
import statistics

import numpy as np

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail(values, cap: float = TAIL_LADDER[-1]):
    """Highest ladder percentile, at most `cap`, with >= 10 samples beyond it.

    The percentile is taken by nearest rank. Returns (value, percentile,
    samples beyond it). A workload fixes `cap` so that its tail keeps one
    meaning while the sample count changes with the speed of the program;
    below the cap only when too few samples were taken. With fewer than 10
    samples in all, no percentile qualifies and the maximum is returned
    with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    for p in sorted((q for q in TAIL_LADDER if q <= cap), reverse=True):
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= MIN_BEYOND:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100.0, 0


def median(values) -> float:
    return float(statistics.median(values))


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted average of all order statistics. It
    estimates the same median as the middle order statistic, but does not
    jump when the values near the middle are few and far apart, as they are
    when a workload mixes instance families of different sizes.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a = (n + 1) / 2
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * (np.log(grid) + np.log1p(-grid))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ xs)
