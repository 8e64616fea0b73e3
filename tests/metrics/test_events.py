"""The structured trace: the kernel's recorder and its events."""

from collections import Counter

from repro import Call, CloseStream, Kernel, Read, Tick, Write, YieldCPU
from repro.metrics.events import (
    STOP_KINDS,
    TraceRecorder,
    percentile,
    switch_cost_stats,
)
from repro.metrics.observer import RunObserver
from repro.runtime.thread import BLOCKED, DONE, READY
from tests.support.bus_oracle import per_thread_cycles


def _leaf(n):
    yield Tick(3)
    return n


def _producer(stream, items):
    for i in range(items):
        yield Call(_leaf, i)
        yield Write(stream, bytes([i % 251]))
    yield CloseStream(stream)
    return items


def _consumer(stream):
    total = 0
    while True:
        data = yield Read(stream, 4)
        if not data:
            return total
        total += sum(data)


def _run_traced(scheme="SP", n_windows=8, items=30):
    kernel = Kernel(n_windows=n_windows, scheme=scheme)
    recorder = kernel.enable_tracing()
    stream = kernel.stream(2, "s")
    kernel.spawn(_producer, stream, items, name="p")
    kernel.spawn(_consumer, stream, name="c")
    result = kernel.run()
    return kernel, result, recorder


class TestTraceRecorder:
    def test_disabled_by_default(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        assert isinstance(kernel.events, TraceRecorder)
        assert kernel.events.active is False
        # The same recorder is shared by every publisher.
        assert kernel.cpu.events is kernel.events
        assert kernel.scheme.events is kernel.events
        assert kernel.ready.events is kernel.events

    def test_emit_records_in_order(self):
        recorder = TraceRecorder()
        event = recorder.emit("save", tid=1, depth=2)
        recorder.emit("restore", tid=1, depth=1)
        assert recorder.events[0] is event
        assert event.kind == "save" and event.tid == 1
        assert event.get("depth") == 2
        assert [e.kind for e in recorder] == ["save", "restore"]
        assert len(recorder) == 2

    def test_clock_stamps_events(self):
        ticks = [0]
        recorder = TraceRecorder(clock=lambda: ticks[0])
        recorder.emit("a")
        ticks[0] = 42
        recorder.emit("b")
        assert [e.cycle for e in recorder] == [0, 42]


class TestKernelPublishing:
    def test_event_counts_match_counters(self):
        __, result, recorder = _run_traced()
        by_kind = Counter(e.kind for e in recorder)
        c = result.counters
        assert by_kind["save"] == c.saves
        assert by_kind["restore"] == c.restores
        assert by_kind["switch"] == c.context_switches
        assert by_kind.get("overflow", 0) == c.overflow_traps
        assert by_kind.get("underflow", 0) == c.underflow_traps
        assert by_kind["spawn"] == len(result.threads)
        assert by_kind["retire"] == len(result.threads)
        assert by_kind["run_end"] == 1

    def test_block_wake_pairing(self):
        __, __, recorder = _run_traced()
        blocks = recorder.filter(kinds=("block",))
        wakes = recorder.filter(kinds=("wake",))
        assert blocks and wakes
        for event in blocks:
            assert event.attrs["op"] in ("read", "write", "join")
            assert event.attrs["on"]

    def test_events_are_cycle_ordered(self):
        __, __, recorder = _run_traced()
        cycles = [e.cycle for e in recorder]
        assert cycles == sorted(cycles)
        assert cycles[-1] > 0

    def test_stream_close_event(self):
        __, __, recorder = _run_traced()
        closes = recorder.filter(kinds=("stream_close",))
        assert len(closes) == 1
        assert closes[0].attrs["stream"] == "s"
        # the close fires when the producer closes; the consumer may
        # not have drained the buffer yet
        assert closes[0].attrs["written"] == 30
        assert 0 < closes[0].attrs["read"] <= 30

    def test_switch_events_carry_transfers(self):
        __, result, recorder = _run_traced(scheme="NS", n_windows=5)
        switches = recorder.filter(kinds=("switch",))
        assert sum(e.attrs["cycles"] for e in switches) == \
            result.counters.switch_cycles
        assert sum(e.attrs["saves"] for e in switches) <= \
            result.counters.windows_spilled

    def test_yield_event(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        recorder = kernel.enable_tracing()

        def yielder():
            yield Tick(1)
            yield YieldCPU()
            return 1

        kernel.spawn(yielder, name="a")
        kernel.spawn(yielder, name="b")
        kernel.run()
        assert recorder.filter(kinds=("yield",))

    def test_untraced_run_emits_nothing(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 10, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert result.counters.saves > 0  # ran fine, nothing recorded
        assert not kernel.events.events


class TestLegacyAliases:
    """The ``RunObserver`` that replaced the kernel's tracker and
    timeline attributes is fed without tracing."""

    def test_tracker_alias_is_fed_without_the_bus(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        observer = RunObserver().attach(kernel)
        assert kernel._observer is observer
        assert not kernel.events.active
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 20, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert result.loop == "pure-batched"
        behavior = observer.behavior()
        assert behavior.quanta
        assert behavior.granularity() > 0

    def test_timeline_alias_is_fed_without_the_bus(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        timeline = RunObserver().attach(kernel).timeline
        assert not kernel.events.active
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 20, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert result.loop == "pure-batched"
        assert timeline.samples
        assert timeline.n_windows == 8

    def test_tracker_matches_hand_wired_semantics(self):
        """Log-fed quanta must equal what the old direct hooks
        produced: one quantum per dispatch, closed at run end."""
        kernel = Kernel(n_windows=8, scheme="SP")
        observer = RunObserver().attach(kernel)
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 15, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        quanta = observer.behavior().quanta
        assert len(quanta) == result.counters.context_switches
        for q in quanta:
            assert q.max_depth >= q.min_depth >= 1


class TestRecorderStats:
    def test_percentile(self):
        values = list(range(101))  # 0..100, odd length
        assert percentile(values, 0) == 0.0
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([7], 95) == 7.0
        assert percentile([], 50) == 0.0
        assert percentile([3, 1, 2], 50) == 2.0  # sorts its input

    def test_switch_cost_stats(self):
        __, result, recorder = _run_traced()
        stats = switch_cost_stats([e.attrs["cycles"] for e in
                                   recorder.filter(kinds=("switch",))])
        assert stats["count"] == result.counters.context_switches
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert stats["mean"] * stats["count"] == \
            result.counters.switch_cycles

    def test_per_thread_cycles_bounded_by_total(self):
        __, result, recorder = _run_traced()
        per = per_thread_cycles(recorder)
        assert per
        assert sum(per.values()) <= result.counters.total_cycles

    def test_filter(self):
        __, __, recorder = _run_traced()
        saves = recorder.filter(kinds=("save",), tid=0)
        assert saves
        assert all(e.kind == "save" and e.tid == 0 for e in saves)
        mid = recorder.events[len(recorder.events) // 2].cycle
        late = recorder.filter(start=mid)
        assert all(e.cycle >= mid for e in late)

    def test_event_to_dict_and_str(self):
        __, __, recorder = _run_traced()
        event = recorder.filter(kinds=("switch",))[0]
        d = event.to_dict()
        assert d["kind"] == "switch" and "cycles" in d
        assert "switch" in str(event)


class TestTallyReader:
    def test_reads_switch_costs_stops_and_cycles_from_the_log(self):
        """Costs grow from the armed baseline at switched dispatches
        only; a quantum still running stops nothing."""
        observer = RunObserver()
        observer.switch_cycles = 40
        observer.log = [(0, 1, 100, 150, 1, 2, "blocked", 130),
                        (0, 1, 130, None, 1, 1, "ready", 140),
                        (1, 1, 190, 200, 1, 1, "running", 190)]
        tally = observer.tally()
        assert tally.switch_costs == [110, 50]
        assert tally.stops == {"block": 1, "yield": 1, "retire": 0}
        assert tally.per_thread_cycles == {0: 40}
        assert observer.end is None

    def test_stop_kinds_are_keyed_by_the_thread_states(self):
        """The readers recognise a stop by ``thread.state``: a renamed
        state would make every quantum look cut short."""
        assert STOP_KINDS == {BLOCKED: "block", READY: "yield",
                              DONE: "retire"}
