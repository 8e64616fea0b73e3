"""The RunReport observers fed off the trace: the reference the
kernel's record log and its readers are held to.

Before the kernel recorded quanta for them, the behaviour tracker and
the occupancy timeline were fed event by event and the report's
``events`` section came from the recorded trace.  This module keeps
that wiring for tests, independent of the record log and its readers:
:meth:`BusObservers.attach` (usable as an ``instrument=`` hook)
enables tracing and wraps the recorder's ``emit`` on the instance so
the timeline snapshots the live window map at each ``dispatch``;
after the run, :attr:`BusObservers.tracker` is a :class:`BusTracker` —
the event-by-event tracker the kernel once fed — fed from the recorded
events, and :meth:`BusObservers.report` builds the RunReport from it
and from this module's own statistics over those events.  The
``behavior`` and ``timeline`` sections go through the same §5 measures
and timeline analyses as production reports; the committed section
goldens (``tests/metrics/test_report_sections.py``) pin those.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.behavior import BehaviorTracker
from repro.metrics.events import switch_cost_stats
from repro.metrics.report import build_run_report
from repro.metrics.tracing import OccupancyTimeline


def by_kind(events) -> Dict[str, int]:
    """Event counts per kind, sorted by kind."""
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    return dict(sorted(counts.items()))


def switch_costs(events) -> List[int]:
    """Cycle cost of every recorded context switch."""
    return [e.attrs.get("cycles", 0) for e in events if e.kind == "switch"]


def per_thread_cycles(events) -> Dict[int, int]:
    """Cycles attributed to each thread: the time between its
    ``dispatch`` and the moment it stops running (the next
    ``block``/``yield``/``retire`` of it, or the run end)."""
    totals: Dict[int, int] = {}
    current: Optional[int] = None
    started = 0
    last_cycle = 0
    for e in events:
        last_cycle = e.cycle
        if e.kind == "dispatch":
            if current is not None:
                totals[current] = totals.get(current, 0) + e.cycle - started
            current = e.tid
            started = e.cycle
        elif e.kind in ("block", "yield", "retire", "run_end"):
            if current is not None and (e.tid == current
                                        or e.kind == "run_end"):
                totals[current] = totals.get(current, 0) + e.cycle - started
                current = None
    if current is not None:
        totals[current] = totals.get(current, 0) + last_cycle - started
    return totals


class BusTracker(BehaviorTracker):
    """A tracker fed event by event: each ``dispatch`` opens a quantum,
    each ``save``/``restore`` widens its depth bounds, and the next
    dispatch or the ``run_end`` closes it."""

    def __init__(self):
        super().__init__()
        self._tid = None
        self._start = 0
        self._min = 0
        self._max = 0

    def read_events(self, events) -> None:
        for event in events:
            kind = event.kind
            if kind == "dispatch":
                self.on_dispatch(event.tid, event.attrs["depth"],
                                 event.cycle)
            elif kind == "save" or kind == "restore":
                self.on_depth(event.attrs["depth"])
            elif kind == "run_end":
                self.finish(event.cycle)

    def on_dispatch(self, tid: int, depth: int, cycles: int) -> None:
        self._close(cycles)
        self._tid = tid
        self._start = cycles
        self._min = depth
        self._max = depth

    def on_depth(self, depth: int) -> None:
        if depth < self._min:
            self._min = depth
        elif depth > self._max:
            self._max = depth

    def finish(self, cycles: int) -> None:
        self._close(cycles)

    def _close(self, cycles: int) -> None:
        if self._tid is not None:
            self._rows.append((self._tid, self._start, cycles, self._min,
                               self._max))
            self._tid = None


class BusObservers:
    """The recorded trace + BusTracker + an OccupancyTimeline that
    snapshots at each recorded ``dispatch``."""

    def __init__(self):
        self.timeline = OccupancyTimeline()
        self.recorder = None
        self._tracker = None

    @property
    def tracker(self) -> BusTracker:
        """The tracker fed from the recorded events (after the run)."""
        if self._tracker is None:
            self._tracker = BusTracker()
            self._tracker.read_events(self.recorder.events)
        return self._tracker

    def attach(self, kernel) -> None:
        recorder = self.recorder = kernel.enable_tracing()
        timeline, cpu = self.timeline, kernel.cpu
        emit = recorder.emit

        def emit_and_snapshot(kind, tid=None, **attrs):
            event = emit(kind, tid, **attrs)
            if kind == "dispatch":
                timeline.snapshot(cpu, tid, event.cycle)
            return event

        recorder.emit = emit_and_snapshot

    def events_section(self):
        events = self.recorder.events
        if not events:
            return None
        return {
            "total": len(events),
            "by_kind": by_kind(events),
            "switch_cost": switch_cost_stats(switch_costs(events)),
            "per_thread_cycles": {
                str(tid): cycles
                for tid, cycles in per_thread_cycles(events).items()},
        }

    def report(self, result, config):
        report = build_run_report(result, config=config,
                                  tracker=self.tracker,
                                  timeline=self.timeline)
        report["events"] = self.events_section()
        return report
