"""Order statistics for the benchmark's timings.

A tail percentile is only trustworthy when enough samples lie beyond it: the
rule used here asks for at least ``MIN_TAIL`` samples above the percentile,
and ``supported_tail`` returns the highest percentile that meets it.
"""

import math
import statistics

MIN_TAIL = 10
TAIL_CANDIDATES = (90.0, 99.0, 99.9)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, 0 for no samples.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights, p = q/100.  It varies smoothly where a percentile falls between
    clusters of unlike operations, where a single order statistic jumps.
    """
    if not values:
        return 0.0
    from scipy.special import betainc

    s = sorted(values)
    n = len(s)
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if b == 0:
        return s[-1]
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], s)))


def samples_beyond(n, q):
    """Number of the n samples that lie strictly above the q-th percentile."""
    return n - math.ceil(n * q / 100.0)


def supported_tail(n, candidates=TAIL_CANDIDATES):
    """Highest candidate percentile with at least MIN_TAIL samples beyond it.

    Returns None when even the lowest candidate lacks them; the median is
    then the only order statistic the sample supports.
    """
    ok = [q for q in candidates if samples_beyond(n, q) >= MIN_TAIL]
    return max(ok) if ok else None
