"""The RunReport observers fed off the event bus: the reference the
kernel-fed observers are held to.

Before the kernel fed them directly, the behaviour tracker and the
occupancy timeline subscribed to the event bus and the report's
``events`` section came from a :class:`TraceRecorder`.  This module
keeps that wiring for tests: :meth:`BusObservers.attach` (usable as an
``instrument=`` hook) subscribes a recorder plus one adapter that feeds
the tracker and timeline from the recorded event stream, which forces
the step-granular loop, and :meth:`BusObservers.report` builds the
RunReport from the recorder's own statistics methods.
"""

from __future__ import annotations

from repro.metrics.behavior import BehaviorTracker
from repro.metrics.report import build_run_report
from repro.metrics.tracing import OccupancyTimeline


class BusObservers:
    """TraceRecorder + BehaviorTracker + OccupancyTimeline on the bus."""

    def __init__(self):
        self.tracker = BehaviorTracker()
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
