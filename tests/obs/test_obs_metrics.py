"""Metrics registry unit tests: handles, get-or-create identity, export."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    next_instance,
    reset_registry,
)


class TestCounter:
    def test_counts_up(self):
        counter = Counter("frames_total")
        counter.inc()
        counter.inc(3.0)
        assert counter.value == 4.0

    def test_rejects_decrease(self):
        counter = Counter("frames_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_to_dict(self):
        counter = Counter("frames_total", {"driver": "wire"})
        counter.inc()
        assert counter.to_dict() == {
            "name": "frames_total",
            "kind": "counter",
            "labels": {"driver": "wire"},
            "value": 1.0,
        }


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("queue_depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_empty_percentiles_are_none(self):
        histogram = Histogram("latency_s")
        assert histogram.percentile(0.5) is None
        assert histogram.mean is None
        assert histogram.value_dict()["max"] is None

    def test_exact_aggregates_and_windowed_percentiles(self):
        histogram = Histogram("latency_s", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        # count/sum/max are exact forever; percentiles cover the window.
        assert histogram.count == 5
        assert histogram.sum == 110.0
        assert histogram.value_dict()["max"] == 100.0
        assert histogram.percentile(0.5) == 3.0  # window is (2, 3, 4, 100)
        assert histogram.percentile(1.0) == 100.0

    def test_rejects_bad_fraction_and_window(self):
        histogram = Histogram("latency_s")
        with pytest.raises(ValueError, match="fraction"):
            histogram.percentile(0.0)
        with pytest.raises(ValueError, match="window"):
            Histogram("latency_s", window=0)

    def test_lifetime_and_window_means_are_distinct_scopes(self):
        """After the window rolls, ``mean`` (lifetime) and ``window_mean``
        (same scope as the percentiles) legitimately disagree -- both are
        exposed under explicit names so neither is mistaken for the other."""
        histogram = Histogram("latency_s", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            histogram.observe(value)
        assert histogram.count == 6
        assert histogram.mean == pytest.approx(3.5)  # all six observations
        assert histogram.window_count == 4
        assert histogram.window_mean == pytest.approx(4.5)  # window is (3, 4, 5, 6)

    def test_window_stats_empty_and_unrolled(self):
        histogram = Histogram("latency_s", window=8)
        assert histogram.window_count == 0
        assert histogram.window_mean is None
        histogram.observe(2.0)
        # Before the window rolls the two scopes agree.
        assert histogram.window_mean == histogram.mean == 2.0

    def test_value_dict_labels_both_scopes(self):
        histogram = Histogram("latency_s", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            histogram.observe(value)
        snapshot = histogram.value_dict()
        assert snapshot["count"] == 6
        assert snapshot["mean"] == pytest.approx(3.5)
        assert snapshot["window_count"] == 4
        assert snapshot["window_mean"] == pytest.approx(4.5)
        assert snapshot["p50"] == 4.0  # nearest-rank over (3, 4, 5, 6)


class TestRegistry:
    def test_get_or_create_returns_the_same_handle(self):
        registry = MetricsRegistry()
        first = registry.counter("frames_total", {"driver": "wire"})
        second = registry.counter("frames_total", {"driver": "wire"})
        other = registry.counter("frames_total", {"driver": "sim"})
        assert first is second
        assert other is not first

    def test_kind_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("latency_s")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("latency_s")

    def test_snapshot_is_sorted_and_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total").inc(2.0)
        snapshot = registry.snapshot()
        assert [metric["name"] for metric in snapshot] == ["a_total", "b_total"]
        assert registry.to_json() == {"metrics": snapshot}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", {"driver": 'wi"re'}).inc(2.0)
        histogram = registry.histogram("latency_s", {"shard": "0"})
        histogram.observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE frames_total counter" in text
        assert 'frames_total{driver="wi\\"re"} 2' in text
        assert "# TYPE latency_s summary" in text
        assert 'latency_s_count{shard="0"} 1' in text
        assert 'latency_s{quantile="0.5",shard="0"} 0.5' in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_reset_swaps_the_default(self):
        before = get_registry()
        fresh = reset_registry()
        try:
            assert get_registry() is fresh
            assert fresh is not before
        finally:
            # Other suites hold handles into whatever default existed at
            # import time; leave a clean fresh default behind.
            reset_registry()

    def test_next_instance_is_unique(self):
        assert next_instance() != next_instance()
