import pytest

from perfbench.stats import (
    quantile,
    samples_beyond,
    tail_quantile,
)


@pytest.mark.parametrize("n, expected", [
    (19, None),        # p90 would leave only 1 sample beyond
    (99, None),        # 9.9 beyond p90: still short of ten
    (100, 0.9),
    (999, 0.9),        # p99 would leave 9.99 beyond
    (1000, 0.99),
    (1024, 0.99),      # the gateway's reservoir size
    (9999, 0.99),
    (10000, 0.999),
    (100000, 0.9999),
    (10 ** 7, 0.9999),  # the ladder tops out
])
def test_tail_quantile_picks_highest_supported_percentile(n, expected):
    assert tail_quantile(n) == expected


def test_samples_beyond_counts_whole_samples():
    assert samples_beyond(0.99, 1000) == 10
    assert samples_beyond(0.99, 1024) == 10
    assert samples_beyond(0.9, 120) == 12
    assert samples_beyond(0.999, 9999) == 9


def test_quantile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.5]
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        assert quantile(values, q) == pytest.approx(
            float(np.percentile(values, q * 100)))


def test_quantile_of_nothing_raises():
    with pytest.raises(ValueError):
        quantile([], 0.5)

