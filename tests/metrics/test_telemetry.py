"""Unit tests for the aggregate telemetry layer
(:mod:`repro.metrics.telemetry`): instrument semantics, the snapshot
document, and the Prometheus exposition."""

import json

import pytest

from repro.metrics.telemetry import (
    CYCLE_BUCKETS,
    SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_percentile,
    occupancy_buckets,
    snapshot_from_json,
    snapshot_to_json,
    to_prometheus,
    validate_snapshot,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("saves")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_set(self):
        g = Gauge("depth")
        g.set(10)
        assert g.value == 10
        g.set(4)
        assert g.value == 4

    def test_histogram_requires_sorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 2, 8))

    def test_histogram_inclusive_upper_bounds(self):
        h = Histogram("h", bounds=(1, 2, 4, 8))
        for v in (1, 2, 2, 3, 8, 9):
            h.observe(v)
        # value <= bound lands in that bucket; 9 overflows
        assert h.bucket_counts == [1, 2, 1, 1, 1]
        assert h.count == 6
        assert h.sum == 25
        assert h.min == 1 and h.max == 9

    def test_observe_bulk_matches_observe(self):
        values = [0, 1, 3, 3, 64, 64, 64, 1 << 19, (1 << 20) + 5]
        one = Histogram("a", CYCLE_BUCKETS)
        for v in values:
            one.observe(v)
        bulk = Histogram("b", CYCLE_BUCKETS)
        bulk.observe_bulk(values[:4])
        bulk.observe_bulk(values[4:])
        bulk.observe_bulk([])
        assert bulk.bucket_counts == one.bucket_counts
        assert (bulk.count, bulk.sum, bulk.min, bulk.max) == \
            (one.count, one.sum, one.min, one.max)

    def test_percentile_bucket_resolution(self):
        h = Histogram("h", bounds=(10, 20, 40))
        for __ in range(90):
            h.observe(5)
        for __ in range(10):
            h.observe(35)
        assert h.percentile(50) == 10
        assert h.percentile(99) == 40
        assert h.sum / h.count == pytest.approx((90 * 5 + 10 * 35) / 100)

    def test_percentile_overflow_bucket_reports_max(self):
        h = Histogram("h", bounds=(10,))
        h.observe(500)
        assert h.percentile(99) == 500

    def test_empty_histogram_percentile(self):
        assert Histogram("h", bounds=(1,)).percentile(50) == 0

    def test_payload_percentile_matches_live(self):
        h = Histogram("h", CYCLE_BUCKETS)
        for v in (3, 17, 17, 901, 40000):
            h.observe(v)
        payload = h.to_payload()
        for q in (50, 90, 99):
            assert histogram_percentile(payload, q) == h.percentile(q)
        assert histogram_percentile({"count": 0}, 50) == 0

    def test_occupancy_buckets_are_exact(self):
        assert occupancy_buckets(4) == (0, 1, 2, 3, 4)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.counter("saves", labels={"scheme": "NS"})
        b = reg.counter("saves", labels={"scheme": "SP"})
        assert a is not b
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x", (1,))

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 2, 3))

    def test_instruments_sorted_by_key(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        assert [i.name for i in reg.instruments()] == ["alpha", "zeta"]


class TestSnapshot:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("sim_saves", help="saves").inc(7)
        reg.gauge("sim_steps").set(100)
        h = reg.histogram("sim_switch_cycles_hist", (8, 16),
                          labels={"scheme": "NS"})
        h.observe(8)
        h.observe(100)
        return reg.snapshot(meta={"scheme": "NS", "n_windows": 8})

    def test_snapshot_validates_and_round_trips(self):
        snap = self._snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["version"] == SNAPSHOT_VERSION
        text = snapshot_to_json(snap)
        assert snapshot_from_json(text) == snap
        # stable serialization: same document -> same bytes
        assert snapshot_to_json(json.loads(text)) == text

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            validate_snapshot({"schema": "something.else"})
        with pytest.raises(ValueError):
            validate_snapshot([1, 2])

    def test_validate_rejects_bad_version(self):
        snap = self._snapshot()
        snap["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ValueError):
            validate_snapshot(snap)
        snap["version"] = 0
        with pytest.raises(ValueError):
            validate_snapshot(snap)

    def test_validate_rejects_inconsistent_histogram(self):
        snap = self._snapshot()
        key = next(iter(snap["histograms"]))
        snap["histograms"][key]["bucket_counts"][0] += 1
        with pytest.raises(ValueError):
            validate_snapshot(snap)

    def test_validate_rejects_missing_section(self):
        snap = self._snapshot()
        del snap["gauges"]
        with pytest.raises(ValueError):
            validate_snapshot(snap)


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("saves", help="total saves").inc(5)
        reg.gauge("queue_depth").set(3)
        text = to_prometheus(reg.snapshot(meta={"scheme": "SP"}))
        assert "# HELP repro_saves total saves" in text
        assert "# TYPE repro_saves counter" in text
        assert 'repro_saves{scheme="SP"} 5' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert 'repro_queue_depth{scheme="SP"} 3' in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (1, 2))
        for v in (1, 2, 2, 9):
            h.observe(v)
        text = to_prometheus(reg.snapshot(), meta_labels=False)
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_sum 14" in text
        assert "repro_lat_count 4" in text

    def test_meta_labels_can_be_disabled(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        text = to_prometheus(reg.snapshot(meta={"scheme": "NS"}),
                             meta_labels=False)
        assert "repro_x 1" in text
        assert "scheme" not in text

    def test_names_are_sanitised(self):
        reg = MetricsRegistry()
        reg.counter("cache.hit-ratio")
        text = to_prometheus(reg.snapshot(), meta_labels=False)
        assert "repro_cache_hit_ratio 0" in text
