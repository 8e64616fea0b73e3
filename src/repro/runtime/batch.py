"""Batch-exit reason codes for the run-until-event execution loop.

The kernel runs every quantum through one loop: the current thread
executes a straight-line batch of steps inside one Python frame
(:meth:`repro.runtime.kernel.Kernel._run_batched`, which fuses the
dispatch loop and the batch executor into one frame), leaving the
batch only on a *batch-exit event* — block, yield, completion — with
cycle accounting and per-thread statistics folded once per batch
instead of once per step.

The batched loop carries every run hook: fault injection, the
invariant audit after each dispatch, call and return, the watchdog
and a step budget (checked at the start of every step, so
:data:`EXIT_BUDGET` fires at the step it always did), the quantum
observers, and event-bus tracing, whose emit sites are guarded by one
flag read per quantum.  There is no other production loop and no knob
to pick one.  The step-granular generator trampoline it replaced lives
on only in the test suite (``tests/support/trampoline.py``), as the
reference the differential suites pin it to: same counters, same
per-thread statistics, same trace-event streams, same step counts.
Crash bundles recorded under the retired ``"generator"`` core still
replay — the recorded ``config["core"]`` is ignored.

The exit codes below name why a batch ended.  They replace the implicit
"one yielded op per step" protocol at quantum granularity: inside a
batch the runtime ops are consumed inline, and only the batch boundary
is reported.  The ISA machine (:mod:`repro.isa.machine`) shares the
same codes for its fetch-loop batches.
"""

from __future__ import annotations

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
