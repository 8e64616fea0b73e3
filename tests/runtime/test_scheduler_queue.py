"""ReadyQueue mechanics."""

from repro.core.working_set import FIFOPolicy, WorkingSetPolicy
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.thread import READY, SimThread


def make_thread(tid, with_windows=False):
    thread = SimThread(tid, "t%d" % tid, None)
    if with_windows:
        thread.windows.cwp = thread.windows.bottom = tid
        thread.windows.resident = 1
        thread.windows.depth = 1
    return thread


class TestReadyQueue:
    def test_fifo_order(self):
        q = ReadyQueue(FIFOPolicy())
        a, b, c = (make_thread(i) for i in range(3))
        q.push_new(a)
        q.push_new(b)
        q.push_woken(c)
        assert list(q._queue) == [a, b, c]

    def test_working_set_front_when_windows(self):
        q = ReadyQueue(WorkingSetPolicy())
        a = make_thread(0)
        b = make_thread(1, with_windows=True)
        c = make_thread(2)
        q.push_new(a)
        q.push_woken(c)   # no windows: back
        q.push_woken(b)   # windows: front
        assert list(q._queue) == [b, a, c]

    def test_new_threads_always_back_even_with_working_set(self):
        q = ReadyQueue(WorkingSetPolicy())
        a = make_thread(0)
        b = make_thread(1, with_windows=True)
        q.push_new(a)
        q.push_new(b)
        assert list(q._queue) == [a, b]

    def test_yield_goes_back(self):
        q = ReadyQueue(WorkingSetPolicy())
        a = make_thread(0, with_windows=True)
        b = make_thread(1)
        q.push_new(b)
        q.push_yielded(a)
        assert list(q._queue) == [b, a]

    def test_push_sets_ready_state(self):
        q = ReadyQueue()
        a = make_thread(0)
        q.push_new(a)
        assert a.state == READY

    def test_len_and_bool(self):
        q = ReadyQueue()
        assert not q and len(q) == 0
        q.push_new(make_thread(0))
        assert q and len(q) == 1
