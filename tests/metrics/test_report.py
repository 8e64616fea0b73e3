"""RunReport: versioned JSON documents that round-trip losslessly."""

import json

import pytest

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.metrics.behavior import BehaviorTracker
from repro.metrics.events import EventTally
from repro.metrics.report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    build_run_report,
    from_json,
    to_json,
    write_report,
)
from repro.metrics.tracing import OccupancyTimeline


def _worker(n):
    yield Tick(2)
    return n


def _producer(stream, items):
    for i in range(items):
        yield Call(_worker, i)
        yield Write(stream, b"x")
    yield CloseStream(stream)
    return items


def _consumer(stream):
    read = 0
    while True:
        data = yield Read(stream, 4)
        if not data:
            return read
        read += len(data)


def _instrumented_run(scheme="SNP", n_windows=6, items=40):
    kernel = Kernel(n_windows=n_windows, scheme=scheme)
    tally = EventTally()
    kernel.tally = tally
    tracker = BehaviorTracker()
    kernel.tracker = tracker
    timeline = OccupancyTimeline()
    kernel.timeline = timeline
    stream = kernel.stream(3, "pipe")
    kernel.spawn(_producer, stream, items, name="p")
    kernel.spawn(_consumer, stream, name="c")
    result = kernel.run()
    return build_run_report(
        result,
        config={"scheme": scheme, "n_windows": n_windows,
                "workload": "unit"},
        tracker=tracker, timeline=timeline, tally=tally), result


@pytest.fixture(scope="module")
def report_and_result():
    return _instrumented_run()


class TestRoundTrip:
    def test_emit_parse_same_numbers(self, report_and_result):
        report, __ = report_and_result
        assert from_json(to_json(report)) == report

    def test_json_is_plain(self, report_and_result):
        report, __ = report_and_result
        text = to_json(report)
        assert json.loads(text) == report  # no non-JSON types leaked

    def test_write_report(self, report_and_result, tmp_path):
        report, __ = report_and_result
        path = tmp_path / "run.json"
        assert write_report(report, str(path)) == str(path)
        assert from_json(path.read_text()) == report


class TestCountersSection:
    def test_matches_snapshot_exactly(self, report_and_result):
        report, result = report_and_result
        snap = result.counters.snapshot()
        section = report["counters"]
        for key, value in snap.items():
            if key in ("per_thread_saves", "per_thread_restores"):
                assert section[key] == {str(k): v
                                        for k, v in value.items()}
            else:
                assert section[key] == value, key
        hist = result.counters.transfer_histogram()
        assert section["switch_transfer_hist"] == {
            "%d,%d" % k: v for k, v in hist.items()}

    def test_threads_section(self, report_and_result):
        report, result = report_and_result
        assert len(report["threads"]) == len(result.threads)
        by_name = {t["name"]: t for t in report["threads"]}
        assert by_name["p"]["state"] == "done"
        assert by_name["p"]["calls"] == 40

    def test_events_section(self, report_and_result):
        report, __ = report_and_result
        events = report["events"]
        assert events["total"] == sum(events["by_kind"].values())
        assert events["switch_cost"]["count"] == \
            report["counters"]["context_switches"]
        per_thread = events["per_thread_cycles"]
        assert all(isinstance(k, str) for k in per_thread)
        assert sum(per_thread.values()) <= \
            report["counters"]["total_cycles"]

    def test_behavior_and_timeline_sections(self, report_and_result):
        report, __ = report_and_result
        assert report["behavior"]["quanta"] > 0
        assert report["behavior"]["granularity"] > 0
        assert report["timeline"]["samples"] > 0
        assert 0.0 < report["timeline"]["occupancy_ratio"] <= 1.0


class TestSchemaValidation:
    def test_header(self, report_and_result):
        report, __ = report_and_result
        assert report["schema"] == SCHEMA_NAME
        assert report["version"] == SCHEMA_VERSION

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            from_json(json.dumps({"schema": "other", "version": 1}))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            from_json("[1, 2, 3]")

    def test_rejects_future_version(self, report_and_result):
        report, __ = report_and_result
        bumped = dict(report, version=SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="newer"):
            from_json(json.dumps(bumped))

    def test_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            from_json(json.dumps({"schema": SCHEMA_NAME,
                                  "version": "one"}))

    def test_rejects_missing_sections(self):
        with pytest.raises(ValueError, match="counters"):
            from_json(json.dumps({"schema": SCHEMA_NAME, "version": 1}))


class TestOptionalSections:
    def test_bare_report(self):
        kernel = Kernel(n_windows=6, scheme="NS")
        stream = kernel.stream(3, "pipe")
        kernel.spawn(_producer, stream, 10, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        report = build_run_report(result)
        assert report["behavior"] is None
        assert report["timeline"] is None
        assert report["events"] is None
        assert report["config"] == {}
        assert from_json(to_json(report)) == report
