"""Batch-exit reason codes and core selection for the execution core.

The kernel runs each quantum through the ``"batched"`` run-until-event
core: the current thread executes a straight-line batch of steps inside
one Python frame (:meth:`repro.runtime.kernel.Kernel._run_batched`,
which fuses the dispatch loop and the batch executor into one frame),
leaving the batch only on a *batch-exit event* — block, yield,
completion — with cycle accounting and per-thread statistics folded
once per batch instead of once per step.

The batched core carries every run hook: fault injection, the
invariant audit after each dispatch, call and return, the watchdog
and a step budget (checked at the start of every step, so
:data:`EXIT_BUDGET` fires at the step it always did).  The
step-granular generator trampoline
(:meth:`repro.runtime.kernel.Kernel._run_quantum`) is no longer a
public core choice: it survives only for event-bus tracing, whose
subscribers see every save and restore, and as the differential
harness's reference loop (forced through
``tests/support/trampoline.py``, never through ``core=``).  Crash
bundles recorded on the retired core still replay —
:func:`repro.faults.workloads.run_workload` runs them on the batched
loop.

Both loops are required to be *bit-identical*: same counters, same
per-thread statistics, same trace-event sequences, same step counts
(``tests/core/test_batched_vs_trampoline.py`` enforces this).

The exit codes below name why a batch ended.  They replace the implicit
"one yielded op per step" protocol at quantum granularity: inside a
batch the runtime ops are consumed inline, and only the batch boundary
is reported.  The ISA machine (:mod:`repro.isa.machine`) shares the
same codes for its fetch-loop batches.
"""

from __future__ import annotations

import os

#: thread blocked on a stream or a join — it left the CPU and sits on
#: the waiter list of whatever it blocked on
EXIT_BLOCKED = 1
#: thread executed ``YieldCPU`` with other runnable threads queued
EXIT_YIELDED = 2
#: thread's root procedure returned — the thread retired
EXIT_DONE = 3
#: the caller-imposed step/instruction budget expired mid-batch
EXIT_BUDGET = 4

EXIT_NAMES = {
    EXIT_BLOCKED: "blocked",
    EXIT_YIELDED: "yielded",
    EXIT_DONE: "done",
    EXIT_BUDGET: "budget",
}

#: the public execution cores (order: default first)
CORES = ("batched",)

#: the retired step-granular core's name — still recognized (with a
#: pointer error from :func:`resolve_core`, and a replay mapping in
#: ``repro.faults.workloads``) but no longer constructible via ``core=``
RETIRED_GENERATOR_CORE = "generator"

#: environment override consulted when no explicit ``core=`` is given —
#: how CI A/Bs a whole run (benchmarks, sweeps) without plumbing
ENV_CORE = "REPRO_CORE"


def resolve_core(core=None) -> str:
    """Validate a ``core=`` choice, applying the env-var default.

    An explicit argument wins; otherwise ``$REPRO_CORE`` is consulted,
    and the batched core is the default.  The retired ``"generator"``
    core gets a pointer error rather than the generic unknown-core one.
    """
    if core is None:
        core = os.environ.get(ENV_CORE) or CORES[0]
    if core == RETIRED_GENERATOR_CORE:
        raise ValueError(
            'the step-granular "generator" core was retired from the '
            'public runtime; the batched core is bit-identical (the '
            'reference trampoline remains available to the test suite '
            'via tests/support/trampoline.py, and recorded crash '
            'bundles still replay on it)')
    if core not in CORES:
        raise ValueError(
            "unknown execution core %r; expected one of %s"
            % (core, "/".join(CORES)))
    return core
