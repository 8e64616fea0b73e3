"""The hooks the batched loop carries fire exactly where the reference
step loop's do: the step budget and the watchdog at the start of every step, the
invariant audit after every dispatch, call and return.

Each test sweeps a firing point over every step of a workload that
uses every runtime op (ticks, calls deep enough to trap, stream reads,
writes and readlines that block and complete, closes, flush hints,
lone and contended yields, spawn and join), and requires the batched
loop and the step-granular reference trampoline to end the same way:
the same error text and a byte-identical crash bundle, or the same
counters, steps and results.
"""

import pytest

from repro import (
    Call,
    CloseStream,
    FlushHint,
    Join,
    Read,
    ReadLine,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.apps.synthetic import spawn_fork_join, spawn_yield_storm
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.bundle import build_crash_bundle, bundle_to_json
from repro.windows.occupancy import FRAME, FREE
from tests.support.trampoline import make_kernel


def _leaf(n):
    yield Tick(n)
    return n


def _nest(depth):
    if depth == 0:
        value = yield Call(_leaf, 2)
        return value
    value = yield Call(_nest, depth - 1)
    return value + 1


def _child(stream):
    yield FlushHint()
    line = yield ReadLine(stream)
    yield YieldCPU()
    return line


def _writer(lines, data):
    yield Write(lines, b"one\ntwo")
    yield YieldCPU()
    yield Write(lines, b"\n")
    yield CloseStream(lines)
    yield Write(data, b"abcdefgh")
    yield CloseStream(data)
    return 0


def _main(kernel):
    lines = kernel.stream(4, "lines")
    data = kernel.stream(3, "data")
    yield YieldCPU()  # lone: nobody else is ready yet
    writer = yield Spawn(_writer, lines, data, name="writer")
    child = yield Spawn(_child, lines, name="child")
    depth = yield Call(_nest, 4)
    line = yield ReadLine(lines)
    chunks = []
    while True:
        chunk = yield Read(data, 2)
        if not chunk:
            break
        chunks.append(chunk)
        yield Tick(depth)
    child_line = yield Join(child)
    yield Join(writer)
    yield CloseStream(lines)
    return line + b"".join(chunks) + child_line


def every_op(kernel):
    kernel.spawn(_main, kernel, name="main")


def storm(kernel):
    spawn_yield_storm(kernel, n_spinners=2, spins=12)


def fork_join(kernel):
    spawn_fork_join(kernel, n_children=2, items=6, flush_hint=True)


def _drain(stream):
    got = bytearray()
    while True:
        chunk = yield Read(stream, 2)
        if not chunk:
            return bytes(got)
        got.extend(chunk)
        yield Tick(1)


def _line_reader(stream):
    line = yield ReadLine(stream)
    yield Tick(2)
    return line


def _resume_main(kernel):
    pipe = kernel.stream(3, "pipe")
    text = kernel.stream(8, "text")
    drain = yield Spawn(_drain, pipe, name="drain")
    # 10 bytes through a 3-byte stream drained 2 at a time: the write
    # blocks and resumes at offsets 3, 6 and 9
    yield Write(pipe, b"0123456789")
    yield CloseStream(pipe)
    liner = yield Spawn(_line_reader, text, name="liner")
    yield Write(text, b"par")
    yield YieldCPU()  # the liner's ReadLine blocks on a partial line
    yield Write(text, b"tial\n")
    line = yield Join(liner)  # blocks: the liner is ready, not done
    drained = yield Join(drain)
    yield CloseStream(text)
    return line + drained


def resume_edges(kernel):
    kernel.spawn(_resume_main, kernel, name="main")


WORKLOADS = {"every-op": every_op, "storm": storm, "fork-join": fork_join,
             "resume-edges": resume_edges}


def run(build, loop, scheme="SNP", n_windows=4, max_steps=None,
        watchdog=None, plan=None, audit=True):
    faults = (FaultInjector(FaultPlan.parse(plan, seed=7))
              if plan else None)
    kernel = make_kernel("generator" if loop == "step" else "batched",
                         n_windows=n_windows, scheme=scheme,
                         faults=faults, audit=audit, watchdog=watchdog)
    build(kernel)
    try:
        result = kernel.run(max_steps=max_steps)
    except ReproError as exc:
        return ("error", str(exc),
                bundle_to_json(build_crash_bundle(exc, kernel)))
    assert result.loop == ("step" if loop == "step" else "pure-batched")
    return ("ok", result.steps, result.counters.snapshot(),
            {t.name: t.result for t in result.threads},
            [(t.calls, t.returns, t.blocks) for t in result.threads])


def assert_loops_agree(build, **kwargs):
    reference = run(build, "step", **kwargs)
    batched = run(build, "batched", **kwargs)
    assert batched == reference, kwargs
    return reference


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_step_budget_fires_at_the_same_step(name, scheme):
    build = WORKLOADS[name]
    n_windows = 4 if scheme != "SP" else 5
    full = assert_loops_agree(build, scheme=scheme,
                              n_windows=n_windows)
    assert full[0] == "ok", full[1]
    for budget in range(1, full[1] + 2):
        assert_loops_agree(build, scheme=scheme,
                           n_windows=n_windows, max_steps=budget)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("max_stall", [1, 2, 3, 5, 8, 13])
def test_watchdog_fires_at_the_same_step(name, max_stall):
    assert_loops_agree(WORKLOADS[name], watchdog=max_stall)


@pytest.mark.parametrize("plan", ["sched@1", "sched@2,sched@5",
                                  "sched@3,wim@6", "trap_drop@2",
                                  "trap_dup@1", "retval@3",
                                  "store_corrupt@3", "cwp@4"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_faulted_runs_agree_under_every_hook(name, scheme, plan):
    n_windows = 4 if scheme != "SP" else 5
    for max_stall in (None, 2, 7):
        assert_loops_agree(WORKLOADS[name], plan=plan,
                           scheme=scheme, n_windows=n_windows,
                           watchdog=max_stall)


def _corrupt_then_yield(kernel):
    def corrupter():
        yield Tick(1)
        # plant a frame no thread owns, then leave the CPU without a
        # call or return: only the audit at the next dispatch sees it
        wmap = kernel.cpu.map
        free = wmap._kind.index(FREE)
        wmap._kind[free] = FRAME
        wmap._tid[free] = 99
        yield YieldCPU()
        return 0

    def bystander():
        yield Tick(1)
        return 0

    kernel.spawn(corrupter, name="corrupter")
    kernel.spawn(bystander, name="bystander")


def test_audit_catches_corruption_at_the_next_dispatch():
    outcome = assert_loops_agree(_corrupt_then_yield,
                                 scheme="SP", n_windows=6)
    assert outcome[0] == "error"
    assert "audit=True" in outcome[1]
    assert "thread=bystander" in outcome[1]
    assert FRAME in outcome[1]
