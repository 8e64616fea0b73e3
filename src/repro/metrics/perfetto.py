"""Chrome trace-event / Perfetto export of a traced run's events.

Reads the events the kernel's :class:`repro.metrics.events.TraceRecorder`
recorded, in order, and builds a JSON object in the Chrome trace-event
format, loadable in ``chrome://tracing`` or https://ui.perfetto.dev:

* **pid 1 — "threads"**: one track per simulated thread, with a
  duration ("X") slice per scheduling quantum, instant ("i") events for
  window traps, context switches, blocks and wakes, and a counter ("C")
  track for the ready-queue depth;
* **pid 2 — "windows"**: one track per physical register window, with a
  duration slice for each period a thread's frame occupied the window
  (best effort: derived from ``save``/``restore`` events, so window
  transfers performed inside trap handlers extend the owning slice).

Timestamps are simulated cycles reported as microseconds (the trace
format's native unit), so 1 µs in the viewer = 1 simulated cycle.

Usage::

    kernel = Kernel(n_windows=8, scheme="SP")
    recorder = kernel.enable_tracing()
    ...spawn and run...
    exporter = PerfettoExporter()
    exporter.read(recorder)
    exporter.write("trace.json")
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ioutil import atomic_write_text
from repro.metrics.events import TraceEvent

THREADS_PID = 1
WINDOWS_PID = 2

#: event kinds rendered as instants on the owning thread's track
_INSTANT_KINDS = ("overflow", "underflow", "switch", "block", "wake")


class PerfettoExporter:
    """Chrome trace-event JSON built from a run's recorded events."""

    def __init__(self):
        self._slices: List[dict] = []
        self._instants: List[dict] = []
        self._counters: List[dict] = []
        self._thread_names: Dict[int, str] = {}
        self._windows_seen: set = set()
        self._open_quantum: Optional[Tuple[int, int]] = None
        self._open_windows: Dict[int, Tuple[int, int]] = {}
        self._last_cycle = 0
        self._finished = False

    # -- reading the trace ---------------------------------------------------

    def read(self, events: Iterable[TraceEvent]) -> None:
        """Render ``events`` (a recorder, or any event sequence) in
        order; a ``run_end`` event closes every open slice."""
        for event in events:
            kind = event.kind
            cycle = event.cycle
            self._last_cycle = max(self._last_cycle, cycle)
            if kind == "spawn":
                self._thread_names[event.tid] = event.attrs.get(
                    "name", "T%d" % event.tid)
            elif kind == "dispatch":
                self._close_quantum(cycle)
                self._open_quantum = (event.tid, cycle)
            elif kind in ("block", "yield", "retire"):
                if (self._open_quantum is not None
                        and self._open_quantum[0] == event.tid):
                    self._close_quantum(cycle)
            elif kind == "save":
                window = event.attrs["window"]
                self._close_window(window, cycle)
                self._open_windows[window] = (event.tid, cycle)
            elif kind == "restore":
                freed = event.attrs.get("freed")
                if freed is not None:
                    self._close_window(freed, cycle)
            elif kind == "enqueue":
                self._counters.append({
                    "name": "ready_queue", "ph": "C", "ts": cycle,
                    "pid": THREADS_PID, "tid": 0,
                    "args": {"depth": event.attrs.get("depth", 0)},
                })
            elif kind == "run_end":
                self.finish(cycle)
            if kind in _INSTANT_KINDS and event.tid is not None:
                self._instants.append({
                    "name": kind, "ph": "i", "s": "t", "ts": cycle,
                    "pid": THREADS_PID, "tid": event.tid,
                    "cat": "trap" if kind in ("overflow", "underflow")
                           else "sched",
                    "args": dict(event.attrs),
                })

    # -- slice bookkeeping ---------------------------------------------------

    def _close_quantum(self, cycle: int) -> None:
        if self._open_quantum is None:
            return
        tid, start = self._open_quantum
        self._open_quantum = None
        self._slices.append({
            "name": "quantum", "cat": "sched", "ph": "X",
            "ts": start, "dur": max(cycle - start, 0),
            "pid": THREADS_PID, "tid": tid,
        })

    def _close_window(self, window: int, cycle: int) -> None:
        self._windows_seen.add(window)
        entry = self._open_windows.pop(window, None)
        if entry is None:
            return
        tid, start = entry
        self._slices.append({
            "name": "T%d" % tid, "cat": "window", "ph": "X",
            "ts": start, "dur": max(cycle - start, 0),
            "pid": WINDOWS_PID, "tid": window,
            "args": {"owner": tid},
        })

    # -- telemetry overlays --------------------------------------------------

    def add_counter_track(self, name: str, samples) -> int:
        """Append a counter ("C") track from ``(cycle, value)`` samples.

        Overlays telemetry series — window occupancy from the
        cycle-domain profiler, hit rates, queue depths — on the event
        trace, alongside the built-in ready-queue counter.  Returns the
        number of samples added.
        """
        count = 0
        for cycle, value in samples:
            self._counters.append({
                "name": name, "ph": "C", "ts": cycle,
                "pid": THREADS_PID, "tid": 0,
                "args": {"value": value},
            })
            count += 1
        return count

    def add_telemetry(self, telemetry) -> int:
        """Add the standard counter tracks from a
        :class:`repro.metrics.telemetry.RunTelemetry` bundle (currently
        the profiler's window-occupancy series)."""
        return self.add_counter_track("window_occupancy",
                                      telemetry.profiler.occupancy)

    def finish(self, cycle: Optional[int] = None) -> None:
        """Close every open slice (idempotent; run automatically on the
        ``run_end`` event)."""
        if self._finished:
            return
        end = cycle if cycle is not None else self._last_cycle
        self._close_quantum(end)
        for window in list(self._open_windows):
            self._close_window(window, end)
        self._finished = True

    # -- export --------------------------------------------------------------

    def _metadata(self) -> List[dict]:
        meta = [
            {"name": "process_name", "ph": "M", "pid": THREADS_PID,
             "tid": 0, "args": {"name": "threads"}},
            {"name": "process_name", "ph": "M", "pid": WINDOWS_PID,
             "tid": 0, "args": {"name": "windows"}},
        ]
        for tid in sorted(self._thread_names):
            meta.append({"name": "thread_name", "ph": "M",
                         "pid": THREADS_PID, "tid": tid,
                         "args": {"name": self._thread_names[tid]}})
        for window in sorted(self._windows_seen):
            meta.append({"name": "thread_name", "ph": "M",
                         "pid": WINDOWS_PID, "tid": window,
                         "args": {"name": "W%d" % window}})
        return meta

    def to_dict(self) -> dict:
        """The complete trace as a Chrome trace-event JSON object."""
        self.finish()
        return {
            "traceEvents": (self._metadata() + self._slices
                            + self._instants + self._counters),
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.metrics.perfetto",
                          "clock": "simulated cycles (1 cycle = 1 us)"},
        }

    def dumps(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str, indent: Optional[int] = None) -> str:
        """Write the trace JSON to ``path`` atomically, creating a
        missing directory; returns the path."""
        atomic_write_text(path, self.dumps(indent=indent))
        return path
