"""The exactness contract: static predictions == dynamic counters.

The abstract interpreter is :class:`repro.isa.Machine` with one layer
swapped: register values live in logical frames rather than the
physical file, and unknown residue stops exact execution.  This suite
pins that layer against plain ``Machine`` runs (and
``test_random_programs.py`` does so on generated programs).  For every
committed program under its canonical launch, across all three schemes
and several window-file sizes, the abstract interpreter's counters
must match the real
machine's ``Counters`` attribute-for-attribute (including the
switch-transfer histogram and every cycle category), its WIM
wraparounds must match the dynamic count of saves landing in window
``n-1``, and the per-thread maximum depth must match the dynamic trace.
The verifier's whole prediction report gets the same check, and the
stream-topology verdicts get it against both the production loop and
the step-granular reference loop (``tests/support/trampoline.py``).
"""

import pytest

from repro.analysis import (AbstractMachine, ProbeKernel, analyze_kernel,
                            verify_program)
from repro.analysis.verifier import corpus_cases
from repro.isa import Machine, assemble
from repro.runtime.errors import DeadlockError
from repro.runtime.ops import Read, Write
from tests.helpers import save_stats
from tests.support.trampoline import (REFERENCE_CORE, make_kernel,
                                      trampoline_everywhere)

SCHEMES = ("NS", "SNP", "SP")
WINDOW_COUNTS = (4, 8, 32)
CORES = ("batched", "generator")


def _dynamic_comparable(counters):
    return {
        "saves": counters.saves,
        "restores": counters.restores,
        "overflow_traps": counters.overflow_traps,
        "underflow_traps": counters.underflow_traps,
        "windows_spilled": counters.windows_spilled,
        "windows_restored": counters.windows_restored,
        "context_switches": counters.context_switches,
        "switch_transfer_hist": dict(counters.switch_transfer_hist),
        "compute_cycles": counters.compute_cycles,
        "call_cycles": counters.call_cycles,
        "trap_cycles": counters.trap_cycles,
        "switch_cycles": counters.switch_cycles,
        "total_cycles": counters.total_cycles,
    }


def _run_dynamic(case, scheme, n_windows):
    machine = Machine(assemble(case.source), n_windows=n_windows,
                      scheme=scheme)
    recorder = machine.cpu.enable_tracing()
    for addr, value in case.pokes:
        machine.poke(addr, value)
    threads = [machine.add_thread(spec.entry, args=spec.args,
                                  name=spec.name)
               for spec in case.threads]
    exits = machine.run(max_steps=case.max_steps)
    wraparounds, max_depth = save_stats(recorder, n_windows)
    # initial depth-1 frames never pass through a save event
    for thread in threads:
        max_depth.setdefault(thread.tid, 1)
    return exits, machine.counters, wraparounds, max_depth


def _run_static(case, scheme, n_windows):
    machine = AbstractMachine(assemble(case.source), n_windows=n_windows,
                              scheme=scheme)
    for addr, value in case.pokes:
        machine.poke(addr, value)
    threads = [machine.add_thread(spec.entry, args=spec.args,
                                  name=spec.name)
               for spec in case.threads]
    exits = machine.run(max_steps=case.max_steps)
    return exits, machine, threads


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n_windows", WINDOW_COUNTS)
def test_corpus_counters_exact(scheme, n_windows):
    for case in corpus_cases():
        exits_d, counters_d, wraps_d, depth_d = _run_dynamic(
            case, scheme, n_windows)
        exits_s, machine_s, threads_s = _run_static(
            case, scheme, n_windows)
        counters_s = machine_s.counters
        label = "%s/%s/w%d" % (case.name, scheme, n_windows)
        assert exits_s == exits_d, label
        static = _dynamic_comparable(counters_s)
        dynamic = _dynamic_comparable(counters_d)
        for key in dynamic:
            assert static[key] == dynamic[key], "%s: %s" % (label, key)
        assert machine_s.wraparounds == wraps_d, label
        for thread in threads_s:
            assert thread.max_depth == depth_d[thread.tid], (
                "%s: tid %d max depth" % (label, thread.tid))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_per_thread_stats_exact(scheme):
    """The abstract run's per-thread save/restore/switch attribution
    matches the dynamic one (two-thread interleaved case)."""
    case = next(c for c in corpus_cases() if c.name == "two_counters")
    machine = Machine(assemble(case.source), n_windows=6, scheme=scheme)
    for s in case.threads:
        machine.add_thread(s.entry, args=s.args, name=s.name)
    machine.run(max_steps=case.max_steps)
    amachine = AbstractMachine(assemble(case.source), n_windows=6,
                               scheme=scheme)
    for s in case.threads:
        amachine.add_thread(s.entry, args=s.args, name=s.name)
    amachine.run(max_steps=case.max_steps)
    predicted = amachine.counters
    counters = machine.counters
    assert predicted.per_thread_saves == dict(counters.per_thread_saves)
    assert predicted.per_thread_restores == dict(
        counters.per_thread_restores)
    assert predicted.per_thread_switches == dict(
        counters.per_thread_switches)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_verifier_prediction_matches_dynamic_run(scheme):
    """Everything in the verifier's prediction report — counters,
    wraparounds, exit values and each thread's max depth, saves and
    restores — equals what ``Machine`` and its event stream observe."""
    case = next(c for c in corpus_cases() if c.name == "two_counters")
    n_windows = 6
    exits, counters, wraps, max_depth = _run_dynamic(case, scheme,
                                                     n_windows)
    report = verify_program(case.source, name=case.name,
                            threads=case.threads, pokes=case.pokes,
                            n_windows=n_windows, scheme=scheme,
                            max_steps=case.max_steps)
    prediction = report.meta["prediction"]
    assert prediction["mode"] == "exact"
    dynamic = _dynamic_comparable(counters)
    dynamic["switch_transfer_hist"] = {
        "%d,%d" % key: count
        for key, count in dynamic["switch_transfer_hist"].items()}
    assert prediction["counters"] == dynamic
    assert prediction["wraparounds"] == wraps
    assert prediction["exit_values"] == exits
    expected_threads = [
        {"name": spec.name, "max_depth": max_depth[tid],
         "saves": counters.per_thread_saves.get(tid, 0),
         "restores": counters.per_thread_restores.get(tid, 0)}
        for tid, spec in enumerate(case.threads)]
    assert prediction["threads"] == expected_threads
    # two threads that both call: the attribution must be non-trivial
    assert all(t["saves"] and t["restores"] for t in expected_threads)


def test_abstract_machine_is_machine_with_a_register_layer():
    """One interpreter: the abstract machine inherits the fetch loop,
    the scheduler, thread launch and every opcode handler (only halt's
    exit value is mapped), so no cycle charge is written twice."""
    assert issubclass(AbstractMachine, Machine)
    handlers = {name for name in vars(Machine) if name.startswith("_op_")}
    shared = handlers - {"_op_halt"} | {
        "run", "_run_batch", "add_thread", "poke", "peek",
        "_build_dispatch", "_make_alu", "_make_branch", "_do_restore"}
    assert not shared & set(vars(AbstractMachine))


# -- stream-topology verdicts against both loops --------------------------


def _lonely_reader(stream):
    data = yield Read(stream, 16)
    assert data  # pragma: no cover - never reached


def _build_deadlocked(kernel):
    stream = kernel.stream(64, name="orphan")
    kernel.spawn(_lonely_reader, stream, name="reader")


def _source(stream):
    yield Write(stream, b"payload")


def _sink(stream):
    yield Read(stream, 7)


def _build_clean(kernel):
    stream = kernel.stream(8, name="pipe")
    kernel.spawn(_source, stream, name="src")
    kernel.spawn(_sink, stream, name="dst")


@pytest.mark.parametrize("core", CORES)
def test_static_deadlock_verdict_matches_dynamic(core):
    """A statically-guaranteed deadlock really deadlocks — on both
    loops — and a statically-clean chain really completes."""
    probe = ProbeKernel()
    _build_deadlocked(probe)
    report = analyze_kernel(probe)
    assert [f.rule for f in report.errors] == ["stream-never-written"]

    kernel = make_kernel(core=core, n_windows=8, scheme="SP")
    _build_deadlocked(kernel)
    with pytest.raises(DeadlockError):
        kernel.run()

    probe = ProbeKernel()
    _build_clean(probe)
    assert analyze_kernel(probe).ok

    kernel = make_kernel(core=core, n_windows=8, scheme="SP")
    _build_clean(kernel)
    kernel.run()  # completes


@pytest.mark.parametrize("core", CORES)
def test_cycle_candidates_are_candidates_not_errors(core):
    """Ping-pong is a static cycle *candidate* that dynamically
    completes on both loops — the verdicts must agree: reported as a
    candidate (meta), not as a guaranteed deadlock (error)."""
    from repro.apps.synthetic import spawn_ping_pong

    probe = ProbeKernel()
    spawn_ping_pong(probe, rounds=4)
    report = analyze_kernel(probe)
    assert report.ok
    assert report.meta["cycles"], "the write/read cycle must be seen"

    kernel = make_kernel(core=core, n_windows=8, scheme="SNP")
    spawn_ping_pong(kernel, rounds=4)
    kernel.run()  # completes despite the cycle


@pytest.mark.parametrize("core", CORES)
def test_committed_workloads_clean_and_complete(core, monkeypatch):
    """Every registered workload is statically clean and dynamically
    completes under its default parameters on both loops."""
    from repro.analysis import analyze_workload_config
    from repro.faults.workloads import WORKLOADS, run_workload

    if core == REFERENCE_CORE:
        trampoline_everywhere(monkeypatch)
    loop = "step" if core == REFERENCE_CORE else "pure-batched"
    for name in sorted(WORKLOADS):
        report = analyze_workload_config({"workload": name})
        assert report.clean, (name, [f.describe() for f in report.findings])
        result = run_workload({"workload": name, "scale": 0.05,
                               "max_steps": 2_000_000})
        assert result.loop == loop, name
