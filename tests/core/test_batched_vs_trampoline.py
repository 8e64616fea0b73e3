"""Differential equivalence harness: the production loop vs the
reference loop.

The kernel's one dispatch loop, the run-until-event batched loop, must
be *bit-identical* to the step-granular reference trampoline
(:class:`tests.support.trampoline.ReferenceKernel`, parameterized here
under its old core name, "generator"): same step counts, same counters
(including the switch/trap cycle sums and transfer histograms), same
per-thread statistics, same trace record sequences, same recorded
streams, same thread results — across every scheme and window-file
size.  This suite drives both loops over the same workloads and
compares full run snapshots:

* deterministic synthetic apps (stream pipeline, spawn/join tree,
  line-oriented protocol) over NS/SNP/SP x {8, 32} windows;
* hypothesis-generated random programs (random thread counts, stream
  topologies, call depths, chunk sizes), traced or not — deadlocks
  count as agreement when both loops report the identical deadlock;
* traced spellcheck runs, with and without a fault plan armed, whose
  event streams must match event for event (kind, cycle, tid, attrs);
* golden pins for the spellchecker and a synthetic app, so a
  regression that changes *both* loops in lockstep still trips.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Call,
    CloseStream,
    Join,
    Read,
    ReadLine,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.faults import FaultInjector, FaultPlan
from repro.runtime.kernel import Kernel
from tests.support.trampoline import (
    ReferenceKernel,
    force_trampoline,
    make_kernel,
)

SCHEMES = ("NS", "SNP", "SP")
WINDOW_SIZES = (8, 32)
#: the reference loop and the production loop, by test-parameter name
CORES = ("generator", "batched")
#: their test ids (the ``-pure`` suffix is historical; ids stay stable)
CORE_IDS = ["%s-pure" % core for core in CORES]

COUNTER_FIELDS = (
    "saves", "restores", "overflow_traps", "underflow_traps",
    "windows_spilled", "windows_restored", "context_switches",
    "compute_cycles", "call_cycles", "trap_cycles", "switch_cycles",
)


def snapshot(kernel, result, error):
    """Everything observable about a finished (or crashed) run."""
    c = kernel.counters
    snap = {
        "error": (type(error).__name__, str(error)) if error else None,
        "steps": kernel._steps,
        "counters": {f: getattr(c, f) for f in COUNTER_FIELDS},
        "transfer_hist": dict(c.switch_transfer_hist),
        "records": list(kernel.scheme.records),
        "per_thread": [
            (t.name, t.state, t.calls, t.returns, t.blocks,
             t.windows.stat_saves, t.windows.stat_restores,
             t.windows.stat_switches, t.result)
            for t in kernel.threads
        ],
    }
    if result is not None:
        snap["result_steps"] = result.steps
        snap["slackness"] = list(result.slackness_samples)
    return snap


def events_of(recorder):
    return [(e.kind, e.cycle, e.tid, e.attrs) for e in recorder]


def run_core(core, build, scheme, n_windows, traced=False, **kw):
    """Build a workload on a fresh kernel and run it to the end."""
    kernel = make_kernel(core=core, n_windows=n_windows, scheme=scheme,
                         **kw)
    kernel.scheme.records = []
    recorder = kernel.enable_tracing() if traced else None
    build(kernel)
    result = error = None
    try:
        result = kernel.run()
    except Exception as exc:
        # Deadlocks and runtime faults (e.g. a random program writing
        # to a stream a peer closed) are legal outcomes — both loops
        # must fail at the same point with the same enriched message.
        error = exc
    snap = snapshot(kernel, result, error)
    if recorder is not None:
        snap["events"] = events_of(recorder)
        if result is not None and core == "batched":
            assert result.loop == "pure-batched"
    return snap


def assert_equivalent(build, scheme, n_windows, **kw):
    gen = run_core("generator", build, scheme, n_windows, **kw)
    bat = run_core("batched", build, scheme, n_windows, **kw)
    assert gen == bat, _diff(gen, bat)


def _diff(gen, bat):
    lines = ["cores diverged:"]
    for key in gen:
        if gen[key] != bat[key]:
            lines.append("  %s:" % key)
            lines.append("    reference: %r" % (gen[key],))
            lines.append("    batched:   %r" % (bat[key],))
    return "\n".join(lines)


# -- deterministic synthetic workloads -----------------------------------


def depth_calls(depth):
    if depth <= 0:
        yield Tick(1)
        return 0
    below = yield Call(depth_calls, depth - 1)
    yield Tick(1)
    return below + 1


def build_pipeline(kernel):
    """producer -> filter -> consumer over two bounded streams, with
    call-depth excursions deep enough to trap on an 8-window file."""
    raw = kernel.stream(16, "raw")
    cooked = kernel.stream(8, "cooked")

    def producer():
        rng = random.Random(1234)
        for i in range(40):
            chunk = bytes(rng.randrange(256) for __ in range(
                rng.randrange(1, 24)))
            yield Write(raw, chunk)
            if i % 7 == 0:
                yield Call(depth_calls, 6)
        yield CloseStream(raw)
        return "produced"

    def filt():
        total = 0
        while True:
            data = yield Read(raw, 13)
            if not data:
                break
            total += len(data)
            yield Write(cooked, bytes(b ^ 0x5A for b in data))
            yield Tick(2)
        yield CloseStream(cooked)
        return total

    def consumer():
        seen = bytearray()
        while True:
            data = yield Read(cooked, 5)
            if not data:
                break
            seen.extend(data)
            yield Call(depth_calls, 4)
        return bytes(seen)

    kernel.spawn(producer, name="producer")
    kernel.spawn(filt, name="filter")
    kernel.spawn(consumer, name="consumer")


def build_spawn_tree(kernel):
    """A root that spawns workers mid-run and joins them in order."""

    def worker(tag, rounds):
        acc = 0
        for i in range(rounds):
            acc += yield Call(depth_calls, 3 + (i % 3))
            yield YieldCPU()
        return (tag, acc)

    def root():
        kids = []
        for i in range(4):
            kid = yield Spawn(worker, i, 3 + i, name="kid-%d" % i)
            kids.append(kid)
            yield Tick(1)
        results = []
        for kid in kids:
            results.append((yield Join(kid)))
        return results

    kernel.spawn(root, name="root")


def build_line_protocol(kernel):
    """readline-driven request/response with a close mid-stream."""
    req = kernel.stream(12, "req")
    rsp = kernel.stream(12, "rsp")

    def client():
        for i in range(9):
            yield Write(req, b"req-%d\n" % i)
            line = yield ReadLine(rsp)
            assert line == b"ok-%d\n" % i
        yield CloseStream(req)
        tail = yield ReadLine(rsp)
        return tail

    def server():
        n = 0
        while True:
            line = yield ReadLine(req)
            if not line:
                break
            yield Call(depth_calls, 5)
            yield Write(rsp, b"ok-%d\n" % n)
            n += 1
        yield Write(rsp, b"bye\n")
        yield CloseStream(rsp)
        return n

    kernel.spawn(client, name="client")
    kernel.spawn(server, name="server")


WORKLOADS = {
    "pipeline": build_pipeline,
    "spawn_tree": build_spawn_tree,
    "line_protocol": build_line_protocol,
}


@pytest.mark.parametrize("n_windows", WINDOW_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_synthetic_workloads_bit_identical(workload, scheme, n_windows):
    assert_equivalent(WORKLOADS[workload], scheme, n_windows)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_register_verification_on(scheme):
    """verify_registers exercises the save/restore data paths too."""
    assert_equivalent(build_pipeline, scheme, 8, verify_registers=True)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_event_bus_traces_identical(scheme):
    """A traced run keeps the production batched loop, and its event
    stream matches the reference loop's event for event on every
    workload."""

    def run_traced(kernel, build):
        recorder = kernel.enable_tracing()
        build(kernel)
        return kernel.run().loop, events_of(recorder)

    for name, build in sorted(WORKLOADS.items()):
        loop, reference = run_traced(
            ReferenceKernel(n_windows=8, scheme=scheme), build)
        assert loop == "step"
        kernel = Kernel(n_windows=8, scheme=scheme)
        assert type(kernel) is Kernel
        assert run_traced(kernel, build) == ("pure-batched",
                                             reference), name


# -- hypothesis-driven random programs -----------------------------------


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(1, 4)),
        st.tuples(st.just("call"), st.integers(1, 9)),
        st.tuples(st.just("write"), st.integers(0, 2), st.integers(1, 20)),
        st.tuples(st.just("read"), st.integers(0, 2), st.integers(1, 20)),
        st.tuples(st.just("readline"), st.integers(0, 2)),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("yield")),
    ),
    min_size=1, max_size=12,
)

PROGRAMS = st.lists(ACTIONS, min_size=1, max_size=4)


def build_random(threads_spec, close_all):
    """A builder closure for one drawn program."""

    def build(kernel):
        streams = [kernel.stream(cap, "s%d" % i)
                   for i, cap in enumerate((6, 16, 3))]

        def run_actions(actions, tag):
            def body():
                out = []
                for step, action in enumerate(actions):
                    kind = action[0]
                    if kind == "tick":
                        yield Tick(action[1])
                    elif kind == "call":
                        out.append((yield Call(depth_calls, action[1])))
                    elif kind == "write":
                        payload = (b"%d:%d;" % (tag, step)) * (
                            1 + action[2] // 8)
                        yield Write(streams[action[1]], payload)
                    elif kind == "read":
                        out.append((yield Read(streams[action[1]],
                                               action[2])))
                    elif kind == "readline":
                        out.append((yield ReadLine(streams[action[1]])))
                    elif kind == "close":
                        yield CloseStream(streams[action[1]])
                    elif kind == "yield":
                        yield YieldCPU()
                if close_all:
                    for stream in streams:
                        if not stream.closed:
                            yield CloseStream(stream)
                return out

            return body

        for i, actions in enumerate(threads_spec):
            kernel.spawn(run_actions(actions, i), name="t%d" % i)

    return build


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(threads_spec=PROGRAMS, scheme=st.sampled_from(SCHEMES),
       n_windows=st.sampled_from(WINDOW_SIZES),
       close_all=st.booleans(), traced=st.booleans())
def test_random_programs_bit_identical(threads_spec, scheme, n_windows,
                                       close_all, traced):
    assert_equivalent(build_random(threads_spec, close_all),
                      scheme, n_windows, traced=traced)


# -- traced spellcheck runs ------------------------------------------------


def traced_spell(reference, scheme, n_windows, plan=None):
    """A traced spellcheck run, on the reference loop or the production
    one: its loop, event stream and error (None when it completed)."""
    from repro.apps.spellcheck.pipeline import SpellConfig, run_spellchecker

    recorders, loop, error = [], None, None

    def instrument(kernel):
        if reference:
            force_trampoline(kernel)
        recorders.append(kernel.enable_tracing())

    faults = (FaultInjector(FaultPlan.parse(plan, seed=1993))
              if plan else None)
    try:
        result, __ = run_spellchecker(
            n_windows, scheme, SpellConfig.named("high", "fine",
                                                 scale=0.02),
            verify_registers=True, faults=faults, audit=plan is not None,
            instrument=instrument)
        loop = result.loop
    except Exception as exc:  # a detected fault: compare it too
        error = (type(exc).__name__, str(exc))
    return loop, events_of(recorders[0]), error


@pytest.mark.parametrize("n_windows", (4, 8, 32))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_traced_spellcheck_streams_identical(scheme, n_windows):
    loop, events, error = traced_spell(False, scheme, n_windows)
    assert (loop, error) == ("pure-batched", None)
    assert {"save", "restore", "switch", "dispatch", "block", "wake",
            "retire", "run_end"} <= {e[0] for e in events}
    assert traced_spell(True, scheme, n_windows) \
        == ("step", events, None)


@pytest.mark.parametrize("plan", ["sched@2,store_delay@3", "retval@7"],
                         ids=["survived", "detected"])
def test_traced_faulted_streams_identical(plan):
    """Fault events are stamped with the exact cycle on both loops —
    including a run the fault crashes mid-quantum."""
    loop, events, error = traced_spell(False, "SP", 6, plan)
    assert "fault" in {e[0] for e in events}
    reference = traced_spell(True, "SP", 6, plan)
    assert (events, error) == reference[1:]
    assert (loop, reference[0]) in ((None, None), ("pure-batched", "step"))


# -- golden pins ---------------------------------------------------------
#
# These freeze absolute numbers, not just cross-core agreement: a
# change that alters the simulation semantics of *both* cores in
# lockstep (so the differential comparison stays green) still fails
# here.  Regenerate deliberately if the cost model or workloads change.


GOLDEN_PIPELINE = {
    # scheme -> (steps, context_switches, saves, restores, total_cycles)
    "NS": (2232, 149, 607, 607, 24268),
    "SNP": (2232, 149, 607, 607, 31328),
    "SP": (2232, 149, 607, 607, 30196),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("core", CORES, ids=CORE_IDS)
def test_golden_pipeline_pins(scheme, core):
    snap = run_core(core, build_pipeline, scheme, 8)
    counters = snap["counters"]
    total = (counters["compute_cycles"] + counters["call_cycles"]
             + counters["trap_cycles"] + counters["switch_cycles"])
    observed = (snap["steps"], counters["context_switches"],
                counters["saves"], counters["restores"], total)
    assert observed == GOLDEN_PIPELINE[scheme]


GOLDEN_SPELLCHECK = {
    # scheme -> (steps, context_switches)
    "NS": (15644, 1631),
    "SNP": (15644, 1631),
    "SP": (15644, 1631),
}


def run_spell(scheme, n_windows, config, core):
    """``run_spellchecker`` on the production or the reference loop.

    The reference variant rides the ``instrument`` hook: the pipeline
    builds a batched kernel and the hook pins it to the step-granular
    trampoline before any thread spawns.
    """
    from repro.apps.spellcheck.pipeline import run_spellchecker

    instrument = force_trampoline if core == "generator" else None
    return run_spellchecker(n_windows, scheme, config,
                            instrument=instrument)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("core", CORES, ids=CORE_IDS)
def test_golden_spellcheck_pins(scheme, core):
    from repro.apps.spellcheck.pipeline import SpellConfig

    config = SpellConfig.named("low", "medium", scale=0.05)
    result, output = run_spell(scheme, 8, config, core)
    assert (result.steps,
            result.counters.context_switches) == GOLDEN_SPELLCHECK[scheme]
    assert output  # the pipeline actually produced corrections


@pytest.mark.parametrize("n_windows", WINDOW_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_spellcheck_bit_identical(scheme, n_windows):
    from repro.apps.spellcheck.pipeline import SpellConfig

    config = SpellConfig.named("high", "medium", scale=0.05)
    runs = {}
    for core in CORES:
        result, output = run_spell(scheme, n_windows, config, core)
        c = result.counters
        runs[core] = (
            result.steps, output,
            {f: getattr(c, f) for f in COUNTER_FIELDS},
            dict(c.switch_transfer_hist),
            sorted((t.name, t.windows.stat_saves, t.windows.stat_restores,
                    t.windows.stat_switches) for t in result.threads),
        )
    assert runs["batched"] == runs["generator"]
