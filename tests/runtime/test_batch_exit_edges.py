"""Batch-exit edge cases: the production loop and the reference loop
must agree at the boundaries.

The run-until-event core leaves a batch only on block, yield,
completion or a spent step budget — and each of those
boundaries has an edge where an off-by-one would be invisible to
throughput tests but visible in the cycle ledger.  Every test here
runs the same workload on the batched core and on the step-granular
reference trampoline (via ``tests.support.trampoline``) and asserts
the full counter state matches:

* a step budget expiring exactly on the step that takes a window
  overflow trap (is the trap's cycle cost folded or lost?);
* a stream blocking on the last possible step of a batch (a write
  that exactly fills the stream, then one byte more);
* spawn and join inside one batch;
* the livelock watchdog firing mid-batch.
"""

import pytest

from repro import (
    Call,
    CloseStream,
    Join,
    Read,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.errors import ReproError
from repro.isa import Machine, MachineFault, assemble
from tests.support.trampoline import make_kernel

CORES = ("generator", "batched")

COUNTER_FIELDS = (
    "saves", "restores", "overflow_traps", "underflow_traps",
    "windows_spilled", "windows_restored", "context_switches",
    "compute_cycles", "call_cycles", "trap_cycles", "switch_cycles",
)


def counter_state(kernel):
    c = kernel.counters
    return {f: getattr(c, f) for f in COUNTER_FIELDS}


def run_core(core, build, max_steps=None, watchdog=None,
             scheme="SP", n_windows=6):
    kernel = make_kernel(core=core, n_windows=n_windows, scheme=scheme,
                         watchdog=watchdog)
    kernel.counters.keep_trace = True
    build(kernel)
    error = None
    try:
        kernel.run(max_steps=max_steps)
    except ReproError as exc:
        error = exc
    return kernel, error


def assert_cores_agree(build, **kw):
    results = {}
    for core in CORES:
        kernel, error = run_core(core, build, **kw)
        results[core] = {
            "error": (type(error).__name__, str(error)) if error else None,
            "steps": kernel._steps,
            "counters": counter_state(kernel),
            "switch_trace": list(kernel.counters.switch_trace),
            "trap_trace": list(kernel.counters.trap_trace),
        }
    assert results["generator"] == results["batched"]
    return results["generator"]


# -- budget expiring exactly on a trap step ------------------------------


def deep_call_workload(kernel):
    def descend(depth):
        if depth <= 0:
            yield Tick(1)
            return 0
        below = yield Call(descend, depth - 1)
        return below + 1

    def root():
        total = 0
        for __ in range(3):
            total += yield Call(descend, 10)
        return total

    kernel.spawn(root, name="deep")


def first_trap_step():
    """Smallest budget at which the run has taken an overflow trap."""
    for budget in range(1, 300):
        kernel, error = run_core("generator", deep_call_workload,
                                 max_steps=budget)
        if kernel.counters.overflow_traps:
            assert error is not None  # budget raised, trap already taken
            return budget
    raise AssertionError("no overflow trap within 300 steps")


def test_budget_expires_exactly_on_trap_step():
    edge = first_trap_step()
    # One step earlier: no trap yet.  At the edge: exactly one trap,
    # its spill and its cycles already folded.  Both cores, both sides.
    before = assert_cores_agree(deep_call_workload, max_steps=edge - 1)
    assert before["counters"]["overflow_traps"] == 0
    at = assert_cores_agree(deep_call_workload, max_steps=edge)
    assert at["counters"]["overflow_traps"] == 1
    assert at["counters"]["trap_cycles"] > 0
    assert at["error"][0] == "RuntimeFault"
    assert "step budget" in at["error"][1]


def test_budget_unlimited_run_agrees():
    full = assert_cores_agree(deep_call_workload)
    assert full["error"] is None
    assert full["counters"]["overflow_traps"] > 0


# -- stream blocks on the last step of a batch ---------------------------


def edge_block_workload(kernel):
    pipe = kernel.stream(8, "pipe")

    def writer():
        yield Write(pipe, b"x" * 8)   # fills the stream exactly: no block
        yield Write(pipe, b"y")       # blocks with nothing left to do
        yield CloseStream(pipe)
        return "wrote"

    def reader():
        got = bytearray()
        while True:
            data = yield Read(pipe, 3)
            if not data:
                break
            got.extend(data)
            yield Tick(1)
        return bytes(got)

    kernel.spawn(writer, name="writer")
    kernel.spawn(reader, name="reader")


def test_stream_block_on_batch_edge():
    snap = assert_cores_agree(edge_block_workload)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, edge_block_workload)
        writer = kernel.threads[0]
        assert writer.result == "wrote"
        assert writer.blocks == 1, (
            "%s core: the exact-fill write must not block, the "
            "one-byte follow-up must" % core)
        reader = kernel.threads[1]
        assert reader.result == b"x" * 8 + b"y"


def test_read_block_as_first_op_of_thread():
    """The degenerate batch: blocking on the very first step."""

    def build(kernel):
        pipe = kernel.stream(4, "pipe")

        def reader():
            return (yield Read(pipe, 4))

        def writer():
            yield Tick(3)
            yield Write(pipe, b"late")
            yield CloseStream(pipe)
            return None

        kernel.spawn(reader, name="reader")
        kernel.spawn(writer, name="writer")

    snap = assert_cores_agree(build)
    assert snap["error"] is None


# -- spawn/join inside a batch -------------------------------------------


def spawn_join_workload(kernel):
    def kid(n):
        yield Tick(n)
        return n * 2

    def root():
        a = yield Spawn(kid, 3, name="a")
        b = yield Spawn(kid, 5, name="b")
        yield Tick(1)
        first = yield Join(a)
        second = yield Join(b)
        return first + second

    kernel.spawn(root, name="root")


def test_spawn_join_inside_batch():
    snap = assert_cores_agree(spawn_join_workload)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, spawn_join_workload)
        assert kernel.threads[0].result == 16


def test_join_already_done_never_blocks():
    """Joining a thread that finished earlier in the same batch."""

    def build(kernel):
        def kid():
            yield Tick(1)
            return "done"

        def root():
            child = yield Spawn(kid, name="kid")
            for __ in range(6):
                yield YieldCPU()   # let the kid run to completion
            value = yield Join(child)
            return value

        kernel.spawn(root, name="root")

    snap = assert_cores_agree(build)
    assert snap["error"] is None
    for core in CORES:
        kernel, __ = run_core(core, build)
        assert kernel.threads[0].result == "done"
        assert kernel.threads[0].blocks == 0, (
            "%s core: a join on a finished thread must not block" % core)


# -- watchdog firing mid-batch -------------------------------------------


def livelock_workload(kernel):
    def spinner():
        while True:
            yield YieldCPU()

    kernel.spawn(spinner, name="spin-a")
    kernel.spawn(spinner, name="spin-b")


def test_watchdog_fires_identically_mid_batch():
    snap = assert_cores_agree(livelock_workload, watchdog=40)
    assert snap["error"] is not None
    assert snap["error"][0] == "LivelockError"
    assert "no progress for" in snap["error"][1]


def test_watchdog_quiet_on_progressing_run():
    snap = assert_cores_agree(edge_block_workload, watchdog=10_000)
    assert snap["error"] is None


# -- ISA machine batch boundaries ----------------------------------------


class TestMachineBudget:
    def source(self):
        return """
        start:
            mov  0, %l0
        loop:
            add  %l0, 1, %l0
            yield
            ba   loop
        """

    def machine(self):
        machine = Machine(assemble(self.source()), n_windows=8,
                          scheme="SP")
        machine.add_thread("start", name="a")
        machine.add_thread("start", name="b")
        return machine

    def test_budget_exhaustion_names_the_boundary(self):
        machine = self.machine()
        with pytest.raises(MachineFault, match="step budget of 100"):
            machine.run(max_steps=100)
        executed = sum(t.instructions for t in machine.threads)
        assert executed == 100

    def test_budget_on_yield_boundary_reports_event(self):
        # A two-thread yield ping-pong: the budget can land exactly on
        # a yield (a batch-exit event) — the fault must say so rather
        # than claim a mid-batch budget stop.
        machine = self.machine()
        with pytest.raises(MachineFault, match=r"last batch: (event|budget)"):
            machine.run(max_steps=99)
