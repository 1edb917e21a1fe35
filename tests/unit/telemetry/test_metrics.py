"""Metrics registry: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.telemetry import DEFAULT_BUCKETS_FS, Histogram, MetricsRegistry


class TestCounters:
    def test_count_accumulates(self):
        registry = MetricsRegistry()
        registry.count("events")
        registry.count("events", 4)
        assert registry.counter("events") == 5

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter("missing") == 0

    def test_counters_are_independent(self):
        registry = MetricsRegistry()
        registry.count("a", 2)
        registry.count("b", 3)
        assert registry.counter("a") == 2
        assert registry.counter("b") == 3


class TestGauges:
    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge_set("depth", 7)
        registry.gauge_set("depth", 3)
        assert registry.as_dict()["gauges"] == {"depth": 3}


class TestHistograms:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("h", bounds=(10, 100, 1000))
        for value in (5, 10, 50, 5000):
            histogram.observe(value)
        # bounds are inclusive upper edges; 5000 exceeds every bucket
        assert histogram.counts == [2, 1, 0]
        assert histogram.overflow == 1
        assert histogram.count == 4
        assert histogram.total == 5065
        assert histogram.mean == pytest.approx(5065 / 4)

    def test_empty_histogram_mean_zero(self):
        assert Histogram("h", bounds=(1,)).mean == 0.0

    def test_default_buckets_span_ns_to_ms(self):
        assert DEFAULT_BUCKETS_FS[0] == 10**6  # 1 ns
        assert DEFAULT_BUCKETS_FS[-1] == 10**13  # 10 ms
        assert list(DEFAULT_BUCKETS_FS) == sorted(DEFAULT_BUCKETS_FS)

    def test_registry_observe_creates_and_reuses(self):
        registry = MetricsRegistry()
        registry.observe("wait", 10**6)
        registry.observe("wait", 10**9)
        histogram = registry.histogram("wait")
        assert histogram.count == 2
        assert registry.histogram("wait") is histogram


class TestAsDict:
    def test_round_trip_shape(self):
        registry = MetricsRegistry()
        registry.count("z", 1)
        registry.count("a", 2)
        registry.gauge_set("g", 9)
        registry.observe("h", 42)
        data = registry.as_dict()
        assert list(data["counters"]) == ["a", "z"]  # sorted keys
        assert data["gauges"] == {"g": 9}
        assert data["histograms"]["h"]["count"] == 1
        assert data["histograms"]["h"]["total"] == 42

    def test_len_counts_all_series(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        registry.count("c")
        registry.gauge_set("g", 1)
        registry.observe("h", 1)
        assert len(registry) == 3
