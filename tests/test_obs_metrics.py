"""The metrics registry: counters, gauges, histogram quantiles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
)


class TestQuantile(object):
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = sorted(rng.normal(10.0, 3.0, size=501).tolist())
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12)

    def test_single_value(self):
        assert quantile([3.0], 0.95) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile([1.0], 1.5)


class TestCounterGauge(object):
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.dec(4)
        gauge.inc(1)
        assert gauge.value == 7.0


class TestHistogram(object):
    def test_quantiles_exact_vs_numpy_within_reservoir(self):
        """While count <= reservoir_size, quantiles are exact."""
        rng = np.random.default_rng(42)
        values = rng.lognormal(0.0, 0.5, size=800).tolist()
        histogram = Histogram(reservoir_size=1024)
        for value in values:
            histogram.observe(value)
        for q, attr in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert getattr(histogram, attr) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12)

    def test_quantiles_approximate_beyond_reservoir(self):
        rng = np.random.default_rng(3)
        values = rng.normal(100.0, 10.0, size=20000).tolist()
        histogram = Histogram(reservoir_size=1024)
        for value in values:
            histogram.observe(value)
        assert histogram.count == 20000
        # Reservoir sampling keeps the estimate near ground truth.
        assert histogram.p50 == pytest.approx(
            float(np.quantile(values, 0.5)), rel=0.02)
        assert histogram.p95 == pytest.approx(
            float(np.quantile(values, 0.95)), rel=0.02)

    def test_count_sum_mean_min_max(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        buckets = histogram.cumulative_buckets()
        assert buckets == [(0.1, 1), (1.0, 2), (10.0, 3), ("+Inf", 4)]

    def test_boundary_value_counts_as_le(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.cumulative_buckets()[0] == (1.0, 1)

    def test_empty_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram().quantile(0.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(2.0, 1.0))

    def test_deterministic_reservoir(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, size=5000).tolist()
        first, second = Histogram(reservoir_size=64), \
            Histogram(reservoir_size=64)
        for value in values:
            first.observe(value)
            second.observe(value)
        assert first.p95 == second.p95


def _algorithm_r(values, reservoir_size, seed=0):
    """Vitter's algorithm R drawing slots with ``randrange``: the spec
    both :meth:`Histogram.observe` and ``observe_many`` must replay."""
    rng = random.Random(seed)
    reservoir = []
    for count, value in enumerate(values, 1):
        if len(reservoir) < reservoir_size:
            reservoir.append(float(value))
        else:
            slot = rng.randrange(count)
            if slot < reservoir_size:
                reservoir[slot] = float(value)
    return reservoir, rng.getstate()


_latencies = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=500.0),
              st.sampled_from(DEFAULT_BUCKETS)),
    max_size=300)


class TestObserveMany(object):
    """``observe_many`` is ``observe`` per element, in order."""

    @settings(max_examples=200, deadline=None)
    @given(values=_latencies,
           cuts=st.lists(st.integers(min_value=0, max_value=300),
                         max_size=8),
           reservoir_size=st.integers(min_value=1, max_value=16))
    def test_matches_the_observe_loop(self, values, cuts, reservoir_size):
        looped = Histogram(reservoir_size=reservoir_size)
        for value in values:
            looped.observe(value)
        batched = Histogram(reservoir_size=reservoir_size)
        start = 0
        for end in sorted(min(cut, len(values)) for cut in cuts) + [
                len(values)]:
            batched.observe_many(np.asarray(values[start:end]))
            start = end
        assert batched.count == looped.count == len(values)
        assert batched.bucket_counts == looped.bucket_counts
        assert batched.min == looped.min
        assert batched.max == looped.max
        assert batched._reservoir == looped._reservoir
        assert batched._rng.getstate() == looped._rng.getstate()
        assert batched.sum == pytest.approx(looped.sum, rel=1e-12)
        reservoir, rng_state = _algorithm_r(values, reservoir_size)
        assert looped._reservoir == reservoir
        assert looped._rng.getstate() == rng_state

    def test_empty_batch_is_a_no_op(self):
        histogram = Histogram(reservoir_size=4)
        histogram.observe_many([])
        assert histogram.count == 0 and histogram.min is None
        assert histogram._rng.getstate() == random.Random(0).getstate()

    def test_crosses_many_powers_of_two(self):
        values = np.random.default_rng(9).exponential(2.0, size=5000)
        batched = Histogram(reservoir_size=8)
        for chunk in np.array_split(values, 37):
            batched.observe_many(chunk)
        reservoir, rng_state = _algorithm_r(values.tolist(), 8)
        assert batched._reservoir == reservoir
        assert batched._rng.getstate() == rng_state


class TestMetricsRegistry(object):
    def test_children_keyed_by_labels(self):
        registry = MetricsRegistry()
        registry.counter("requests", zone="a").inc()
        registry.counter("requests", zone="a").inc()
        registry.counter("requests", zone="b").inc()
        assert registry.get("requests", zone="a").value == 2.0
        assert registry.get("requests", zone="b").value == 1.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a", cpu="c").inc()
        assert registry.get("x", cpu="c", zone="a").value == 1.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a")
        with pytest.raises(ConfigurationError):
            registry.gauge("x", zone="a")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("nope", zone="a") is None
        assert len(registry) == 0

    def test_collect_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_total", zone="z").inc()
        registry.gauge("a_gauge").set(5)
        registry.histogram("lat", zone="z").observe(1.0)
        collected = [(name, kind, labels)
                     for name, kind, labels, _ in registry.collect()]
        assert collected == [
            ("a_gauge", "gauge", {}),
            ("b_total", "counter", {"zone": "z"}),
            ("lat", "histogram", {"zone": "z"}),
        ]

    def test_labels_of(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a").inc()
        registry.counter("x", zone="b").inc()
        assert registry.labels_of("x") == [{"zone": "a"}, {"zone": "b"}]

    def test_unknown_kind_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().kind("missing")
