"""Stream-topology analysis: graph extraction (including the
interprocedural and collection-binding cases the committed workloads
use), verdict rules, and the workload-config entry point."""

from repro.analysis import (
    ProbeKernel,
    analyze_kernel,
    analyze_threads,
    analyze_workload_config,
)
from repro.runtime.ops import Call, CloseStream, Read, ReadLine, Write


# module-level factories: the walker reads their source


def _writer(stream, count):
    for __ in range(count):
        yield Write(stream, b"x")
    yield CloseStream(stream)


def _reader(stream):
    while True:
        data = yield Read(stream, 4)
        if not data:
            break


def _helper_write(stream, payload):
    yield Write(stream, payload)


def _via_call(stream):
    yield Call(_helper_write, stream, b"indirect")
    yield CloseStream(stream)


def _finish(stream):
    yield Write(stream, b"!")


def _via_yield_from(stream):
    yield from _finish(stream)
    yield CloseStream(stream)


def _fanout(streams, items):
    for index in range(items):
        stream = streams[index % len(streams)]
        yield Write(stream, b"w")
    for stream in streams:
        yield CloseStream(stream)


def _line_reader(stream):
    line = yield ReadLine(stream)
    assert line is not None


class TestGraph:
    def test_direct_ops(self):
        probe = ProbeKernel()
        stream = probe.stream(8, name="s")
        probe.spawn(_writer, stream, 3, name="w")
        probe.spawn(_reader, stream, name="r")
        graph = analyze_threads(probe.threads)
        node = graph.streams[id(stream)]
        assert node.writers == {"w"} and node.closers == {"w"}
        assert node.readers == {"r"}
        assert not graph.partial

    def test_interprocedural_call_and_yield_from(self):
        probe = ProbeKernel()
        s1 = probe.stream(8, name="s1")
        s2 = probe.stream(8, name="s2")
        probe.spawn(_via_call, s1, name="caller")
        probe.spawn(_via_yield_from, s2, name="delegator")
        graph = analyze_threads(probe.threads)
        assert graph.streams[id(s1)].writers == {"caller"}
        assert graph.streams[id(s2)].writers == {"delegator"}
        assert not graph.partial

    def test_subscript_and_loop_bind_all_members(self):
        probe = ProbeKernel()
        streams = [probe.stream(4, name="w%d" % i) for i in range(3)]
        probe.spawn(_fanout, streams, 7, name="parent")
        graph = analyze_threads(probe.threads)
        for stream in streams:
            assert graph.streams[id(stream)].writers == {"parent"}
            assert graph.streams[id(stream)].closers == {"parent"}

    def test_readline_counts_as_read(self):
        probe = ProbeKernel()
        stream = probe.stream(8, name="s")
        probe.spawn(_line_reader, stream, name="r")
        graph = analyze_threads(probe.threads)
        assert graph.streams[id(stream)].readers == {"r"}

    def test_cycle_detection(self):
        probe = ProbeKernel()
        a = probe.stream(1, name="a")
        b = probe.stream(1, name="b")

        probe.spawn(_relay, a, b, name="t1")
        probe.spawn(_relay, b, a, name="t2")
        graph = analyze_threads(probe.threads)
        assert graph.cycles()


def _relay(src, dst):
    data = yield Read(src, 4)
    yield Write(dst, data or b"")


class TestVerdicts:
    def test_never_written_is_error(self):
        probe = ProbeKernel()
        stream = probe.stream(8, name="orphan")
        probe.spawn(_reader, stream, name="r")
        report = analyze_kernel(probe)
        assert [f.rule for f in report.errors] == ["stream-never-written"]

    def test_pedantic_candidates(self):
        probe = ProbeKernel()
        stream = probe.stream(8, name="sink")
        probe.spawn(_writer, stream, 2, name="w")
        report = analyze_kernel(probe, pedantic=True)
        assert "stream-never-read" in [f.rule for f in report.findings]
        # default mode keeps candidates out of the findings
        assert analyze_kernel(probe).clean

    def test_unresolvable_degrades_to_warning(self):
        # a factory whose source cannot be read (builtin) -> partial
        probe = ProbeKernel()
        stream = probe.stream(8, name="s")
        probe.spawn(_reader, stream, name="r")
        probe.spawn(len, stream, name="opaque")
        report = analyze_kernel(probe)
        assert report.meta["partial"]
        assert not report.errors  # degraded: warning, not error
        assert [f.rule for f in report.findings
                if f.severity == "warning"] == [
            "stream-never-written"]


class TestWorkloadConfig:
    def test_known_workloads_clean(self):
        for name in ("synthetic-ping-pong", "synthetic-fork-join",
                     "spellcheck"):
            report = analyze_workload_config(
                {"workload": name, "scale": 0.05})
            assert report.clean, (name, report.findings)

    def test_unknown_workload_is_an_error(self):
        report = analyze_workload_config({"workload": "no-such"})
        assert [f.rule for f in report.errors] == ["workload-build-error"]

    def test_ping_pong_cycle_is_reported_in_meta(self):
        report = analyze_workload_config(
            {"workload": "synthetic-ping-pong"})
        assert report.meta["cycles"]
        pedantic = analyze_workload_config(
            {"workload": "synthetic-ping-pong"}, pedantic=True)
        assert "stream-cycle" in [f.rule for f in pedantic.findings]
