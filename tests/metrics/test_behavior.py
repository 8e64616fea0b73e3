"""The §5 behaviour measures over a run's quanta."""

from repro import Call, CloseStream, Kernel, Read, Tick, Write
from repro.metrics.behavior import Behavior, Quantum
from repro.metrics.observer import RunObserver


class TestQuantum:
    def test_windows_used(self):
        q = Quantum(0, 0, 100, min_depth=2, max_depth=5)
        assert q.windows_used == 4
        assert q.run_length == 100


def _quantum(tid, depth, cycle, low=None, high=None, state="ready"):
    """One kernel record-log entry: a quantum dispatched at ``depth``
    and ``cycle`` that stopped in ``state`` having reached the depths
    ``low``..``high``."""
    return (tid, depth, cycle, None,
            depth if low is None else low,
            depth if high is None else high,
            state, cycle)


class TestTrackerDirect:
    def test_quanta_recorded(self):
        t = Behavior.from_log([_quantum(0, 1, 0, high=3),
                               _quantum(1, 1, 50, high=2)], end=80)
        assert len(t.quanta) == 2
        assert t.quanta[0].windows_used == 3
        assert t.quanta[0].run_length == 50
        assert t.quanta[1].windows_used == 2

    def test_window_activity_per_thread(self):
        t = Behavior.from_log([_quantum(7, 1, 0, high=4)], end=10)
        assert t.window_activity_per_thread() == {7: 4.0}

    def test_concurrency_periods(self):
        t = Behavior.from_log([_quantum(i % 2, 1, i * 10)
                               for i in range(6)], end=100)
        assert t.concurrency(period=4) == [2, 2]

    def test_total_window_activity_counts_slots_once(self):
        t = Behavior.from_log([_quantum(0, 1, 0, high=3),   # slots (0,1..3)
                               _quantum(0, 3, 10, low=1)],  # same again
                              end=20)
        assert t.total_window_activity(period=10) == [3]

    def test_cut_short_quantum_keeps_its_dispatch_depth(self):
        """A quantum still running when the run failed spans only its
        dispatch depth, and without a finish cycle it stays open."""
        log = [_quantum(0, 2, 0, low=1, high=5, state="running"),
               _quantum(1, 1, 30, high=3, state="running")]
        t = Behavior.from_log(log, None)
        assert [(q.tid, q.start_cycle, q.end_cycle, q.min_depth,
                 q.max_depth) for q in t.quanta] == [(0, 0, 30, 2, 2)]
        t = Behavior.from_log(log, end=40)
        assert t.quanta[-1].end_cycle == 40
        assert len(t.quanta) == 2

    def test_empty_tracker_safe(self):
        t = Behavior([])
        assert t.mean_window_activity() == 0.0
        assert t.mean_concurrency() == 0.0
        assert t.granularity() == 0.0


class TestTrackerInKernel:
    def _run(self, buffer_size):
        kernel = Kernel(n_windows=16, scheme="SP")
        observer = RunObserver().attach(kernel)
        stream = kernel.stream(buffer_size, "s")

        def producer(s):
            for __ in range(64):
                yield Call(self_tick)
                yield Write(s, b"ab")
            yield CloseStream(s)
            return None

        def self_tick():
            yield Tick(10)
            return None

        def consumer(s):
            while True:
                data = yield Read(s, 16)
                if not data:
                    return None
                yield Call(self_tick)

        kernel.spawn(producer, stream, name="p")
        kernel.spawn(consumer, stream, name="c")
        kernel.run(max_steps=200_000)
        return observer.behavior()

    def test_finer_buffers_mean_finer_granularity(self):
        fine = self._run(buffer_size=1)
        coarse = self._run(buffer_size=32)
        assert fine.granularity() < coarse.granularity()
        assert len(fine.quanta) > len(coarse.quanta)

    def test_concurrency_measured(self):
        tracker = self._run(buffer_size=2)
        assert 1.0 < tracker.mean_concurrency(period=16) <= 2.0

    def test_total_window_activity_positive(self):
        tracker = self._run(buffer_size=2)
        assert tracker.mean_total_window_activity(period=16) >= 2
