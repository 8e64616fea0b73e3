"""The RunReport observer: one object, armed by one ``attach``.

A RunReport's ``behavior``, ``timeline`` and ``events`` sections come
from one :class:`RunObserver`.  Arm it before the first spawn with
``RunObserver().attach(kernel)``; the kernel then records each
scheduling quantum once in the observer's record log (see
:meth:`repro.runtime.kernel.Kernel._run_batched`), snapshots the window
map into its :class:`~repro.metrics.tracing.OccupancyTimeline` at each
dispatch, and counts stream closes.  Nothing is called per quantum and
no trace event is read: the kernel is cooperative, so the
dispatch-ordered log is a complete witness of the run, and every
section is computed from it when the report is built
(:func:`repro.metrics.report.build_run_report`) — after a failed run
too, and after a run cut by ``run(max_steps=...)`` and resumed, whose
log equals the uncut run's.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.metrics.behavior import Behavior
from repro.metrics.events import STOP_KINDS, switch_cost_stats
from repro.metrics.tracing import OccupancyTimeline


class Tally(NamedTuple):
    """What the quanta of a record log stopped on and cost."""

    #: quanta stopped by each event kind
    stops: Dict[str, int]
    #: cycle cost of every context switch, in order
    switch_costs: List[int]
    #: tid -> cycles between its dispatches and its stops
    per_thread_cycles: Dict[int, int]


class RunObserver:
    """The record log of one run, and what the kernel counts beside
    it."""

    def __init__(self):
        #: one ``(tid, depth, cycle, switch, low, high, state, stop)``
        #: record per quantum, appended by the kernel
        self.log: List[tuple] = []
        #: ``counters.switch_cycles`` when the observer was armed
        self.switch_cycles = 0
        #: streams closed (counted by the kernel)
        self.stream_closes = 0
        #: ``fault`` events: injector firings plus applied trap actions
        #: (set when the run completes)
        self.faults = 0
        #: the finish cycle of a completed run (None: not completed)
        self.end: Optional[int] = None
        #: the window map, snapshotted by the kernel at each dispatch
        self.timeline = OccupancyTimeline()

    def attach(self, kernel) -> "RunObserver":
        """Arm ``kernel`` (before its first spawn)."""
        kernel._observer = self
        self.switch_cycles = kernel.counters.switch_cycles
        return self

    def finish(self, kernel) -> None:
        """Called by the kernel when its run completes."""
        self.end = kernel.counters.total_cycles
        faults = kernel.faults
        self.faults = (0 if faults is None else
                       len(faults.fired) + faults.trap_actions_applied)

    # -- readers -----------------------------------------------------------

    def behavior(self) -> Behavior:
        """The §5 measures over the run's quanta."""
        return Behavior.from_log(self.log, self.end)

    def tally(self) -> Tally:
        """Stops, switch costs and per-thread cycles of the logged
        quanta.

        A switched dispatch costs the growth of ``switch_cycles`` since
        the previous switched dispatch, starting from its value when
        the observer was armed.  A quantum that stopped counts its stop
        and the cycles from its dispatch to its stop; one cut short
        (still ``running``) stops nothing.
        """
        stops = {"block": 0, "yield": 0, "retire": 0}
        costs: List[int] = []
        per_thread: Dict[int, int] = {}
        last = self.switch_cycles
        kinds = STOP_KINDS
        for tid, __, cycle, switched, __, __, state, stop in self.log:
            if switched is not None:
                costs.append(switched - last)
                last = switched
            kind = kinds.get(state)
            if kind is not None:
                stops[kind] += 1
                per_thread[tid] = per_thread.get(tid, 0) + stop - cycle
        return Tally(stops, costs, per_thread)

    def by_kind(self, result, tally: Tally) -> Dict[str, int]:
        """Event counts per kind for the finished run ``result``: what
        the events of a traced run of the same workload count.

        Window instructions and traps come from its counters.  The rest
        follow from the quanta and two invariants of a completed run:
        every block parks its thread on exactly one waiter list and
        every wake takes one off, with no thread left blocked at the
        end (so wakes equal blocks); and a thread enters the ready
        queue exactly when it is spawned, woken or yields.
        """
        counters = result.counters
        spawns = len(result.threads)
        stops = tally.stops
        blocks = stops["block"]
        counts = {
            "spawn": spawns,
            "enqueue": spawns + blocks + stops["yield"],
            "switch": len(tally.switch_costs),
            "dispatch": len(self.log),
            "save": counters.saves,
            "restore": counters.restores,
            "overflow": counters.overflow_traps,
            "underflow": counters.underflow_traps,
            "block": blocks,
            "wake": blocks,
            "yield": stops["yield"],
            "retire": stops["retire"],
            "stream_close": self.stream_closes,
            "fault": self.faults,
            "run_end": int(self.end is not None),
        }
        return {kind: n for kind, n in sorted(counts.items()) if n}

    def events(self, result) -> Optional[Dict[str, Any]]:
        """The RunReport ``events`` section (None when nothing ran)."""
        tally = self.tally()
        by_kind = self.by_kind(result, tally)
        if not by_kind:
            return None
        return {
            "total": sum(by_kind.values()),
            "by_kind": by_kind,
            "switch_cost": switch_cost_stats(tally.switch_costs),
            "per_thread_cycles": {str(tid): n for tid, n
                                  in tally.per_thread_cycles.items()},
        }
