"""Tail percentile of a sample, as the benchmark reports it."""

MIN_BEYOND = 10


def tail(xs):
    """(percentile, value, samples beyond it) at the highest whole percentile
    that leaves at least ``MIN_BEYOND`` samples above it.

    Percentiles are nearest-rank: the P-th is the ceil(P/100 * n)-th smallest
    sample.  Needs at least ``MIN_BEYOND + 1`` samples.
    """
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError("a tail needs more than %d samples, got %d" % (MIN_BEYOND, n))
    pct = 100 * (n - MIN_BEYOND) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), at least 1 since n > MIN_BEYOND
    return pct, sorted(xs)[rank - 1], n - rank
