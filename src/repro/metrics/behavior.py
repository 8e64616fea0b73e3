"""Program-behaviour analysis: the five measures of paper §5.

* **Window activity per thread** — windows used between two successive
  context switches of a thread, assuming infinitely many windows.  For
  one scheduling quantum this is ``max_depth - min_depth + 1`` (the
  distinct stack slots touched).
* **Total window activity** — windows used during a period by all
  threads together (a repeatedly-used window counts once).
* **Concurrency** — distinct threads scheduled at least once in a
  period.
* **Granularity** — execution run length between switches (cycles).
* **Parallel slackness** — ready-queue length when a thread is picked
  (sampled by :class:`repro.runtime.scheduler.ReadyQueue`).

Attach with ``kernel.tracker = BehaviorTracker()``: the kernel feeds it
once per scheduling quantum (``on_dispatch``, then the quantum's lowest
and highest call depth through ``on_depth``, and ``finish`` at run
end) on every execution loop, without the event bus.  It records one
row per quantum; the analysis functions then aggregate over
configurable periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Quantum:
    """One scheduling quantum of one thread."""

    tid: int
    start_cycle: int
    end_cycle: int
    min_depth: int
    max_depth: int

    @property
    def windows_used(self) -> int:
        return self.max_depth - self.min_depth + 1

    @property
    def run_length(self) -> int:
        return self.end_cycle - self.start_cycle


class BehaviorTracker:
    """Records per-quantum depth excursions and run lengths."""

    def __init__(self):
        self.quanta: List[Quantum] = []
        self._tid: Optional[int] = None
        self._start = 0
        self._min = 0
        self._max = 0

    # -- kernel hooks -------------------------------------------------------

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
            self.quanta.append(Quantum(
                self._tid, self._start, cycles, self._min, self._max))
            self._tid = None

    # -- §5 measures ------------------------------------------------------------

    def window_activity_per_thread(self) -> Dict[int, float]:
        """Mean windows used per quantum, per thread."""
        sums: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for q in self.quanta:
            sums[q.tid] = sums.get(q.tid, 0) + q.windows_used
            counts[q.tid] = counts.get(q.tid, 0) + 1
        return {tid: sums[tid] / counts[tid] for tid in sums}

    def mean_window_activity(self) -> float:
        if not self.quanta:
            return 0.0
        return sum(q.windows_used for q in self.quanta) / len(self.quanta)

    def concurrency(self, period: int = 64) -> List[int]:
        """Distinct threads scheduled in each window of ``period``
        consecutive quanta."""
        out = []
        for i in range(0, len(self.quanta), period):
            chunk = self.quanta[i:i + period]
            out.append(len({q.tid for q in chunk}))
        return out

    def total_window_activity(self, period: int = 64) -> List[int]:
        """Windows used per period by all threads together: the union
        of (thread, depth-slot) pairs touched (a repeatedly used window
        counts once) — the measure the sharing schemes' saturation
        point is proportional to (§6.3)."""
        out = []
        for i in range(0, len(self.quanta), period):
            chunk = self.quanta[i:i + period]
            slots = set()
            for q in chunk:
                for d in range(q.min_depth, q.max_depth + 1):
                    slots.add((q.tid, d))
            out.append(len(slots))
        return out

    def mean_total_window_activity(self, period: int = 64) -> float:
        values = self.total_window_activity(period)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def mean_concurrency(self, period: int = 64) -> float:
        values = self.concurrency(period)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def granularity(self) -> float:
        """Mean run length (cycles) between context switches."""
        if not self.quanta:
            return 0.0
        return (sum(q.run_length for q in self.quanta)
                / len(self.quanta))
