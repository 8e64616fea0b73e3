"""The RunReport observers fed off the event bus: the reference the
kernel's record log and its readers are held to.

Before the kernel recorded quanta for them, the behaviour tracker and
the occupancy timeline subscribed to the event bus and the report's
``events`` section came from a :class:`TraceRecorder`.  This module
keeps that wiring for tests, independent of the record log and its
readers: :meth:`BusObservers.attach` (usable as an ``instrument=``
hook) subscribes a recorder plus one adapter that feeds a
:class:`BusTracker` — the event-by-event tracker the kernel once fed —
and the timeline from the recorded event stream (the run keeps the
batched loop, whose emit sites feed the bus), and
:meth:`BusObservers.report` builds the RunReport from the recorder's
own statistics methods.  The ``behavior`` and ``timeline`` sections go
through the same §5 measures and timeline analyses as production
reports; the committed section goldens
(``tests/metrics/test_report_sections.py``) pin those.
"""

from __future__ import annotations

from repro.metrics.behavior import BehaviorTracker
from repro.metrics.report import build_run_report
from repro.metrics.tracing import OccupancyTimeline


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
    """TraceRecorder + BusTracker + OccupancyTimeline on the bus."""

    def __init__(self):
        self.tracker = BusTracker()
        self.timeline = OccupancyTimeline()
        self.recorder = None

    def attach(self, kernel) -> None:
        self.recorder = kernel.enable_tracing()
        tracker, timeline, cpu = self.tracker, self.timeline, kernel.cpu

        def feed(event):
            kind = event.kind
            if kind == "dispatch":
                tracker.on_dispatch(event.tid, event.attrs["depth"],
                                    event.cycle)
                timeline.snapshot(cpu, event.tid, event.cycle)
            elif kind == "save" or kind == "restore":
                tracker.on_depth(event.attrs["depth"])
            elif kind == "run_end":
                tracker.finish(event.cycle)

        kernel.events.subscribe(feed)

    def events_section(self):
        recorder = self.recorder
        if not len(recorder):
            return None
        return {
            "total": len(recorder),
            "by_kind": dict(sorted(recorder.by_kind().items())),
            "switch_cost": recorder.switch_cost_stats(),
            "per_thread_cycles": {
                str(tid): cycles
                for tid, cycles in recorder.per_thread_cycles().items()},
        }

    def report(self, result, config):
        report = build_run_report(result, config=config,
                                  tracker=self.tracker,
                                  timeline=self.timeline)
        report["events"] = self.events_section()
        return report
