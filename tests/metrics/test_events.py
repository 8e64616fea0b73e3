"""The structured trace-event bus and its recorder."""

from repro import Call, CloseStream, Kernel, Read, Tick, Write, YieldCPU
from repro.metrics.behavior import BehaviorTracker
from repro.metrics.events import EventBus, TraceRecorder, percentile
from repro.metrics.tracing import OccupancyTimeline


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


class TestEventBus:
    def test_disabled_by_default(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        assert kernel.events.active is False
        # The same bus instance is shared by every publisher.
        assert kernel.cpu.events is kernel.events
        assert kernel.scheme.events is kernel.events
        assert kernel.ready.events is kernel.events
        assert kernel.stream(4).events is kernel.events

    def test_subscribe_unsubscribe_toggles_active(self):
        bus = EventBus()
        seen = []

        def consume(event):
            seen.append(event)

        handle = bus.subscribe(consume)
        assert handle is consume
        assert bus.active
        bus.emit("save", tid=1, depth=2)
        assert len(seen) == 1 and seen[0].kind == "save"
        assert seen[0].tid == 1 and seen[0].get("depth") == 2
        bus.unsubscribe(consume)
        assert bus.active is False
        bus.emit("save", tid=1, depth=3)
        assert len(seen) == 1  # no longer delivered

    def test_clock_stamps_events(self):
        ticks = [0]
        bus = EventBus(clock=lambda: ticks[0])
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a")
        ticks[0] = 42
        bus.emit("b")
        assert [e.cycle for e in seen] == [0, 42]

    def test_consumer_object_with_on_event(self):
        bus = EventBus()
        recorder = TraceRecorder()
        bus.subscribe(recorder)
        bus.emit("spawn", tid=0, name="x")
        assert len(recorder) == 1
        bus.unsubscribe(recorder)
        bus.emit("spawn", tid=1, name="y")
        assert len(recorder) == 1
        assert bus.active is False


class TestKernelPublishing:
    def test_event_counts_match_counters(self):
        __, result, recorder = _run_traced()
        by_kind = recorder.by_kind()
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
        assert result.counters.saves > 0  # ran fine, no bus activity


class TestLegacyAliases:
    def test_tracker_alias_is_fed_without_the_bus(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        tracker = BehaviorTracker()
        kernel.tracker = tracker
        assert kernel.tracker is tracker
        assert not kernel.events.active
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 20, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert result.loop == "pure-batched"
        assert tracker.quanta
        assert tracker.granularity() > 0

    def test_timeline_alias_is_fed_without_the_bus(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        timeline = OccupancyTimeline()
        kernel.timeline = timeline
        assert kernel.timeline is timeline
        assert not kernel.events.active
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 20, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert result.loop == "pure-batched"
        assert timeline.samples
        assert timeline.n_windows == 8

    def test_replacing_tracker_unsubscribes_old(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        first = BehaviorTracker()
        kernel.tracker = first
        second = BehaviorTracker()
        kernel.tracker = second
        kernel.tracker = None
        assert kernel.events.active is False

    def test_tracker_matches_hand_wired_semantics(self):
        """Bus-fed quanta must equal what the old direct hooks
        produced: one quantum per dispatch, closed at run end."""
        kernel = Kernel(n_windows=8, scheme="SP")
        tracker = BehaviorTracker()
        kernel.tracker = tracker
        stream = kernel.stream(2, "s")
        kernel.spawn(_producer, stream, 15, name="p")
        kernel.spawn(_consumer, stream, name="c")
        result = kernel.run()
        assert len(tracker.quanta) == result.counters.context_switches
        for q in tracker.quanta:
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
        stats = recorder.switch_cost_stats()
        assert stats["count"] == result.counters.context_switches
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert stats["mean"] * stats["count"] == \
            result.counters.switch_cycles

    def test_per_thread_cycles_bounded_by_total(self):
        __, result, recorder = _run_traced()
        per = recorder.per_thread_cycles()
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
