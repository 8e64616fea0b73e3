"""Engine-side telemetry: the live metrics snapshot, the extended
stats line, and the strict runner-result protocol."""

import json

import pytest

from repro.experiments.engine import (
    EngineStats,
    PointFailure,
    PointSpec,
    _unpack,
    engine_metrics_snapshot,
    sweep_specs,
)
from repro.metrics.report import SCHEMA_NAME, SCHEMA_VERSION
from repro.metrics.telemetry import validate_snapshot
from tests.experiments.test_engine import engine_with


def fake_report(spec: PointSpec) -> dict:
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": spec.to_payload(),
        "counters": {"total_cycles": spec.n_windows * 100},
        "threads": [],
    }


def timed_runner(task):
    index, payload = task
    return index, fake_report(PointSpec.from_payload(payload)), None, 12.5


class TestUnpack:
    def test_four_tuple_round_trips(self):
        index, report, err, wall = _unpack((3, {"r": 1}, None, 7.5))
        assert (index, report, err, wall) == (3, {"r": 1}, None, 7.5)

    def test_removed_three_tuple_protocol_rejected(self):
        # The deprecated 3-tuple dialect was removed; a runner still
        # speaking it must fail loudly, not count as zero wall time.
        with pytest.raises(TypeError, match="3-tuple"):
            _unpack((3, {"r": 1}, None))

    def test_unexpected_shapes_rejected_not_sliced(self):
        # A runner protocol drift (say, a report plus a detached
        # metrics member) must fail loudly, never lose the member.
        with pytest.raises(TypeError, match="5-tuple"):
            _unpack((3, {"r": 1}, None, 7.5, {"metrics": {}}))
        with pytest.raises(TypeError, match="2-tuple"):
            _unpack((3, {"r": 1}))


class TestStatsLine:
    def test_line_reports_utilization_and_latency(self):
        stats = EngineStats(total=4, hits=1, executed=3,
                            point_wall_ms=[10.0, 20.0, 30.0],
                            utilization=0.5,
                            metrics_path="m.json")
        line = stats.summary(jobs=2)
        assert "4 points" in line
        assert "1 cached (25%)" in line
        assert "util 50%" in line
        assert "p50 20ms" in line
        assert "p99 30ms" in line
        assert "metrics=m.json" in line

    def test_line_without_telemetry_is_unchanged(self):
        line = EngineStats(total=2, hits=2).summary(jobs=1)
        assert "util" not in line and "metrics=" not in line

    def test_percentiles(self):
        stats = EngineStats(point_wall_ms=[5.0, 1.0, 9.0])
        assert stats.p50_ms == 5.0
        assert stats.p99_ms == 9.0


class TestEngineSnapshot:
    def test_document_validates_and_reflects_stats(self):
        stats = EngineStats(total=10, hits=4, executed=6, retried=2,
                            point_wall_ms=[15.0, 600.0],
                            hit_latency_ms=[0.3] * 4,
                            utilization=0.8,
                            failures=[PointFailure(
                                PointSpec("SP", 8, "high", "fine", 0.02),
                                1, "boom")],
                            quarantined=True)
        snap = validate_snapshot(engine_metrics_snapshot(
            stats, jobs=3, queue_depth=2, final=False))
        counters = {p["name"]: p["value"]
                    for p in snap["counters"].values()}
        assert counters["engine_points_total"] == 10
        assert counters["engine_cache_hits"] == 4
        assert counters["engine_points_executed"] == 6
        assert counters["engine_retries"] == 2
        assert counters["engine_failures"] == 1
        assert counters["engine_quarantined"] == 1
        gauges = {p["name"]: p["value"] for p in snap["gauges"].values()}
        assert gauges["engine_queue_depth"] == 2
        assert gauges["engine_jobs"] == 3
        assert gauges["engine_cache_hit_ratio"] == 0.4
        assert gauges["engine_worker_utilization"] == 0.8
        hists = {p["name"]: p for p in snap["histograms"].values()}
        assert hists["engine_point_wall_ms"]["count"] == 2
        assert hists["engine_cache_hit_ms"]["count"] == 4
        assert snap["meta"] == {"kind": "engine", "jobs": 3,
                                "complete": False}

    def test_final_snapshot_marks_complete(self):
        snap = engine_metrics_snapshot(EngineStats(), jobs=1, final=True)
        assert snap["meta"]["complete"] is True


class TestLiveSnapshotFile:
    def _specs(self):
        return sweep_specs(["SP"], [4, 6], ["high"], ["fine"], 0.02)

    def test_run_writes_valid_snapshot_and_path(self, tmp_path):
        out = tmp_path / "engine-metrics.json"
        engine = engine_with(timed_runner, jobs=1, cache_dir=None,
                             metrics_out=out)
        specs = self._specs()
        reports = engine.run_reports(specs)
        assert len(reports) == len(specs)
        snap = validate_snapshot(json.loads(out.read_text()))
        assert snap["meta"]["complete"] is True
        counters = {p["name"]: p["value"]
                    for p in snap["counters"].values()}
        assert counters["engine_points_executed"] == len(specs)
        gauges = {p["name"]: p["value"] for p in snap["gauges"].values()}
        assert gauges["engine_queue_depth"] == 0
        assert engine.last_stats.metrics_path == str(out)
        assert "metrics=%s" % out in engine.last_stats.summary(1)
        # worker-reported wall times flowed into the histogram
        hists = {p["name"]: p for p in snap["histograms"].values()}
        assert hists["engine_point_wall_ms"]["count"] == len(specs)
        assert hists["engine_point_wall_ms"]["sum"] == 12.5 * len(specs)

    def test_three_tuple_runner_fails_loudly(self):
        def legacy_runner(task):
            index, payload = task
            return index, fake_report(PointSpec.from_payload(payload)), None

        engine = engine_with(legacy_runner, jobs=1, cache_dir=None)
        with pytest.raises(TypeError, match="3-tuple"):
            engine.run_reports(self._specs())

    def test_no_metrics_out_writes_nothing(self, tmp_path):
        engine = engine_with(timed_runner, jobs=1, cache_dir=None)
        engine.run_reports(self._specs())
        assert engine.last_stats.metrics_path is None
        assert list(tmp_path.iterdir()) == []
