import numpy as np
import pytest

from stats import percentile, quartiles, spread, supported_tail, tail


@pytest.mark.parametrize("n, wanted, expected", [
    (1000, 99.0, 99.0),
    (999, 99.0, 95.0),
    (200, 99.0, 95.0),
    (199, 99.0, 90.0),
    (40, 99.0, 75.0),
    (20, 99.0, 50.0),
    (19, 99.0, None),
    (10000, 99.9, 99.9),
    (100, 99.0, 90.0),
    (10000, 95.0, 95.0),
])
def test_highest_percentile_with_ten_samples_beyond(n, wanted, expected):
    assert supported_tail(n, wanted) == expected


def test_tail_falls_back_to_supported_percentile():
    values = list(range(100))
    q, value = tail(values, 99.0)
    assert q == 90.0
    assert value == percentile(values, 90.0)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=257))
    for q in (0, 25, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12)


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
