import math

import pytest

from stats import median, percentile, samples_beyond, supported_tail


def harrell_davis_integer_weights(xs, q):
    """Reference for integer Beta parameters: I_x(a, b) as a binomial tail."""
    s = sorted(xs)
    n = len(s)
    a, b = round((n + 1) * q / 100), round((n + 1) * (1 - q / 100))
    m = a + b - 1

    def cdf(x):
        return sum(math.comb(m, j) * x**j * (1 - x) ** (m - j) for j in range(a, m + 1))

    return sum((cdf(i / n) - cdf((i - 1) / n)) * s[i - 1] for i in range(1, n + 1))


@pytest.mark.parametrize("xs", [[float(x) for x in (3, 1, 4, 1, 5, 9, 2, 6, 5)],
                                [0.2] * 15 + [0.5] * 4])
@pytest.mark.parametrize("q", [50, 90])  # (n + 1) q / 100 is whole for both
def test_percentile_is_harrell_davis(xs, q):
    assert percentile(xs, q) == pytest.approx(harrell_davis_integer_weights(xs, q),
                                              rel=1e-12)


def test_percentile_edge_cases():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert percentile([5.0], 90) == pytest.approx(5.0)
    assert percentile([2.0] * 7, 90) == pytest.approx(2.0)
    assert percentile([], 90) == 0.0 and median([]) == 0.0


def test_percentile_is_smooth_across_clusters():
    # ten operation kinds of ten samples: p90 sits between the two slowest
    # kinds; one sample crossing the boundary moves a single order statistic
    # by 1 but the estimate by far less
    base = [float(k) for k in range(10) for _ in range(10)]
    moved = sorted(base)
    moved[89] = 9.0
    assert abs(percentile(moved, 90) - percentile(base, 90)) < 0.2


@pytest.mark.parametrize("n, q, beyond", [(100, 90, 10), (99, 90, 9),
                                          (1000, 99, 10), (4, 90, 0)])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond


@pytest.mark.parametrize("n, tail", [(4, None), (99, None), (100, 90.0),
                                     (999, 90.0), (1000, 99.0),
                                     (10000, 99.9)])
def test_supported_tail_needs_ten_samples_beyond(n, tail):
    assert supported_tail(n) == tail
