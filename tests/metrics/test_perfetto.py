"""Chrome trace-event export: valid JSON with the expected tracks."""

import json
from collections import Counter

import pytest

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.metrics.perfetto import (
    THREADS_PID,
    WINDOWS_PID,
    PerfettoExporter,
)


def events(exporter, ph):
    """The trace's events of phase ``ph`` ("X" duration, "i" instant),
    as the written JSON holds them."""
    return [e for e in exporter.to_dict()["traceEvents"] if e["ph"] == ph]


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


@pytest.fixture(scope="module")
def traced():
    kernel = Kernel(n_windows=6, scheme="SP")
    recorder = kernel.enable_tracing()
    stream = kernel.stream(3, "pipe")
    kernel.spawn(_producer, stream, 40, name="p")
    kernel.spawn(_consumer, stream, name="c")
    result = kernel.run()
    exporter = PerfettoExporter()
    exporter.read(recorder)
    return exporter, recorder, result


class TestTraceJson:
    def test_loads_cleanly(self, traced):
        exporter, __, __unused = traced
        trace = json.loads(exporter.dumps())
        assert trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"

    def test_write(self, traced, tmp_path):
        exporter, __, __unused = traced
        path = tmp_path / "trace.json"
        assert exporter.write(str(path)) == str(path)
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_write_creates_a_missing_directory(self, traced, tmp_path):
        exporter, __, __unused = traced
        path = tmp_path / "missing" / "dir" / "trace.json"
        assert exporter.write(str(path)) == str(path)
        assert json.loads(path.read_text()) == exporter.to_dict()
        assert [p.name for p in path.parent.iterdir()] == ["trace.json"]

    def test_trace_cli_writes_into_a_missing_directory(self, tmp_path,
                                                       capsys):
        from repro.metrics.trace import main

        path = tmp_path / "missing" / "t.json"
        assert main(["--app", "pingpong", "--rounds", "5",
                     "--perfetto", str(path)]) == 0
        assert "wrote Perfetto trace: %s" % path in capsys.readouterr().out
        assert json.loads(path.read_text())["traceEvents"]

    def test_every_thread_has_a_duration_event(self, traced):
        exporter, __, result = traced
        quanta_tids = {e["tid"] for e in events(exporter, "X")
                       if e["pid"] == THREADS_PID}
        assert quanta_tids == {t.tid for t in result.threads}

    def test_instants_cover_every_trap(self, traced):
        exporter, __, result = traced
        traps = [e for e in events(exporter, "i")
                 if e["cat"] == "trap"]
        c = result.counters
        assert len(traps) == c.overflow_traps + c.underflow_traps
        assert all(e["ph"] == "i" and e["s"] == "t" for e in traps)

    def test_instant_count_matches_recorder(self, traced):
        exporter, recorder, __ = traced
        by_kind = Counter(e.kind for e in recorder)
        instants = events(exporter, "i")
        for kind in ("overflow", "underflow", "switch", "block", "wake"):
            got = sum(1 for e in instants if e["name"] == kind)
            assert got == by_kind.get(kind, 0), kind

    def test_window_track_slices(self, traced):
        exporter, __, __unused = traced
        windows = [e for e in events(exporter, "X")
                   if e["pid"] == WINDOWS_PID]
        assert windows
        for e in windows:
            assert 0 <= e["tid"] < 6  # track id is the window index
            assert e["dur"] >= 0
            assert e["args"]["owner"] >= 0

    def test_metadata_names_all_tracks(self, traced):
        exporter, __, result = traced
        trace = exporter.to_dict()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert process_names == {"threads", "windows"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"
                        and e["pid"] == THREADS_PID}
        assert {t.name for t in result.threads} <= thread_names

    def test_ready_queue_counter_track(self, traced):
        exporter, __, __unused = traced
        trace = exporter.to_dict()
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all(e["name"] == "ready_queue" for e in counters)

    def test_timestamps_are_cycles(self, traced):
        exporter, recorder, result = traced
        events = exporter.to_dict()["traceEvents"]
        last = max(e["ts"] + e.get("dur", 0) for e in events
                   if "ts" in e)
        assert last <= result.counters.total_cycles

    def test_finish_idempotent(self, traced):
        exporter, __, __unused = traced
        before = len(events(exporter, "X"))
        exporter.finish()
        exporter.finish()
        assert len(events(exporter, "X")) == before


class TestExporterUnits:
    def test_quantum_closed_at_finish(self):
        exporter = PerfettoExporter()
        exporter.read([_event("spawn", 0, tid=0, name="solo"),
                       _event("dispatch", 0, tid=0, depth=1)])
        exporter.finish(100)
        quanta = events(exporter, "X")
        assert len(quanta) == 1
        assert quanta[0]["tid"] == 0 and quanta[0]["dur"] == 100

    def test_events_are_read_in_order(self):
        """A ``run_end`` closes the open slices at its own cycle; an
        event read after it changes no slice."""
        exporter = PerfettoExporter()
        exporter.read([_event("dispatch", 0, tid=0, depth=1),
                       _event("enqueue", 5, tid=1, depth=3),
                       _event("run_end", 40),
                       _event("dispatch", 50, tid=1, depth=1)])
        assert [(e["tid"], e["ts"], e["dur"])
                for e in events(exporter, "X")] == [(0, 0, 40)]
        counters = [e for e in exporter.to_dict()["traceEvents"]
                    if e["ph"] == "C"]
        assert [e["args"] for e in counters] == [{"depth": 3}]


def _event(kind, cycle, tid=None, **attrs):
    from repro.metrics.events import TraceEvent

    return TraceEvent(kind, cycle, tid, attrs)
