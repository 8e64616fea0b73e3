"""Kernel semantics: call/return through registers, blocking, yield,
deadlock detection, flush hints, readline, error cases."""

import pytest

from repro import (
    Call,
    CloseStream,
    DeadlockError,
    FlushHint,
    Kernel,
    Read,
    ReadLine,
    Tick,
    Write,
    YieldCPU,
)
from repro.runtime.errors import RuntimeFault


def test_return_value_travels_through_registers():
    def leaf():
        yield Tick(1)
        return ("payload", 42)

    def root():
        value = yield Call(leaf)
        return value

    k = Kernel(n_windows=4, scheme="SNP")
    k.spawn(root, name="r")
    assert k.run().result_of("r") == ("payload", 42)


def test_arguments_travel_through_registers():
    def leaf(a, b, c):
        yield Tick(1)
        return a + b + c

    def root():
        return (yield Call(leaf, 1, 2, 3))

    k = Kernel(n_windows=4, scheme="SP")
    k.spawn(root, name="r")
    assert k.run().result_of("r") == 6


def test_deadlock_detected():
    def reader(stream):
        yield Read(stream, 1)
        return None

    k = Kernel(n_windows=4, scheme="SP")
    s = k.stream(1, "lonely")
    k.spawn(reader, s, name="r")
    with pytest.raises(DeadlockError) as err:
        k.run()
    assert "lonely" in str(err.value)


def test_mutual_deadlock_detected():
    def a_thread(s_in, s_out):
        yield Read(s_in, 1)
        yield Write(s_out, b"x")
        return None

    k = Kernel(n_windows=6, scheme="SNP")
    s1, s2 = k.stream(1, "s1"), k.stream(1, "s2")
    k.spawn(a_thread, s1, s2, name="a")
    k.spawn(a_thread, s2, s1, name="b")
    with pytest.raises(DeadlockError):
        k.run()


def test_yield_cpu_round_robins():
    order = []

    def worker(tag, rounds):
        for __ in range(rounds):
            order.append(tag)
            yield YieldCPU()
        return tag

    k = Kernel(n_windows=8, scheme="SP")
    k.spawn(worker, "a", 3, name="a")
    k.spawn(worker, "b", 3, name="b")
    k.run()
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_yield_with_empty_queue_continues():
    def worker():
        yield YieldCPU()
        yield YieldCPU()
        return "done"

    k = Kernel(n_windows=4, scheme="NS")
    k.spawn(worker, name="w")
    result = k.run()
    assert result.result_of("w") == "done"
    # no one else to run: yields are free, only the initial dispatch
    assert result.counters.context_switches == 1


def test_readline_op():
    def producer(s):
        yield Write(s, b"one\ntwo\n")
        yield CloseStream(s)
        return None

    def consumer(s):
        lines = []
        while True:
            line = yield ReadLine(s)
            if not line:
                return lines
            lines.append(line)

    k = Kernel(n_windows=6, scheme="SP")
    s = k.stream(16, "s")
    k.spawn(producer, s, name="p")
    k.spawn(consumer, s, name="c")
    assert k.run().result_of("c") == [b"one\n", b"two\n"]


def test_readline_longer_than_capacity_is_loud():
    def producer(s):
        yield Write(s, b"0123456789")
        return None

    def consumer(s):
        return (yield ReadLine(s))

    k = Kernel(n_windows=6, scheme="SP")
    s = k.stream(4, "s")
    k.spawn(producer, s, name="p")
    k.spawn(consumer, s, name="c")
    with pytest.raises(RuntimeFault):
        k.run()


def test_unknown_yield_value_is_loud():
    def bad():
        yield "not-an-op"

    k = Kernel(n_windows=4, scheme="SP")
    k.spawn(bad, name="bad")
    with pytest.raises(RuntimeFault):
        k.run()


def test_spawn_after_run_rejected():
    def worker():
        yield Tick(1)
        return None

    k = Kernel(n_windows=4, scheme="SP")
    k.spawn(worker, name="w")
    k.run()
    with pytest.raises(RuntimeFault):
        k.spawn(worker, name="late")


def test_flush_hint_flushes_windows_on_switch():
    def sleeper(s):
        yield Call(_one_level, s)
        return None

    def _one_level(s):
        yield FlushHint()
        data = yield Read(s, 4)  # blocks; windows flushed at switch
        return data

    def waker(s):
        yield Tick(5)
        yield Write(s, b"go")
        yield CloseStream(s)
        return None

    k = Kernel(n_windows=8, scheme="SP")
    s = k.stream(4, "s")
    sleeper_thread = k.spawn(sleeper, s, name="sleeper")
    k.spawn(waker, s, name="waker")
    result = k.run()
    assert result.counters.windows_spilled >= 2
    assert sleeper_thread.windows.depth == 0  # retired cleanly


def test_step_budget_enforced():
    def spinner():
        while True:
            yield Tick(1)

    k = Kernel(n_windows=4, scheme="SP")
    k.spawn(spinner, name="s")
    with pytest.raises(RuntimeFault):
        k.run(max_steps=1000)


def test_blocked_writer_resumes_and_finishes():
    def producer(s):
        yield Write(s, bytes(range(100)))
        yield CloseStream(s)
        return "produced"

    def consumer(s):
        got = bytearray()
        while True:
            data = yield Read(s, 7)
            if not data:
                return bytes(got)
            got.extend(data)

    k = Kernel(n_windows=5, scheme="SNP")
    s = k.stream(3, "s")
    k.spawn(producer, s, name="p")
    k.spawn(consumer, s, name="c")
    result = k.run()
    assert result.result_of("c") == bytes(range(100))


def test_thread_stats_recorded():
    def leaf():
        yield Tick(1)
        return 1

    def root(s):
        yield Call(leaf)
        yield Write(s, b"xx")
        yield Call(leaf)
        yield CloseStream(s)
        return None

    def drain(s):
        while True:
            if not (yield Read(s, 1)):
                return None

    k = Kernel(n_windows=6, scheme="SP")
    s = k.stream(1, "s")
    p = k.spawn(root, s, name="p")
    k.spawn(drain, s, name="d")
    k.run()
    assert p.calls == 2
    assert p.returns == 2
    assert p.blocks >= 1


@pytest.mark.parametrize("allocation", [None, "policy"])
def test_scheme_is_a_paper_name_not_an_instance(allocation):
    # An instance would manage another register file than kernel.cpu.
    from repro.core import SPScheme, make_scheme
    from repro.core.allocation import SimpleAllocation
    from repro.windows.cpu import WindowCPU

    instance = SPScheme(WindowCPU(8))
    policy = SimpleAllocation() if allocation else None
    with pytest.raises(ValueError, match="unknown scheme"):
        Kernel(n_windows=8, scheme=instance, allocation=policy)
    for name in (instance, None, 4):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_scheme(name, WindowCPU(8))
    kernel = Kernel(n_windows=8, scheme="sp", allocation=policy)
    assert type(kernel.scheme) is SPScheme
    assert kernel.scheme.cpu is kernel.cpu


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_finished_run_is_freed_without_the_cyclic_gc(scheme):
    """The scheme holds its CPU and the CPU holds the scheme weakly, so
    once a run's kernel and result are dropped, reference counting
    frees the kernel, the CPU and the scheme at once."""
    import gc
    import weakref

    from repro.apps.synthetic import spawn_call_depth_workers

    gc.collect()
    gc.disable()
    try:
        kernel = Kernel(n_windows=4, scheme=scheme, audit=True,
                        watchdog=1000)
        spawn_call_depth_workers(kernel, n_workers=2, iterations=3,
                                 depth=4)
        result = kernel.run()
        assert kernel.cpu.scheme is kernel.scheme
        refs = [weakref.ref(obj) for obj in
                (kernel, kernel.cpu, kernel.scheme)]
        del kernel, result
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
