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
  (not sampled: a RunReport's ``slackness`` section is always null).

A :class:`repro.metrics.observer.RunObserver` keeps the kernel's
per-run record log, one record per scheduling quantum (see
:meth:`repro.runtime.kernel.Kernel._run_batched`);
:meth:`Behavior.from_log` turns it into one row per quantum when a
report is built, and the measures aggregate the rows over
configurable periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.events import STOP_KINDS


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


class Behavior:
    """The §5 measures over a run's quanta, one
    ``(tid, start_cycle, end_cycle, min_depth, max_depth)`` row each."""

    def __init__(self, rows: List[Tuple[int, int, int, int, int]]):
        self._rows = rows

    @classmethod
    def from_log(cls, log, end: Optional[int]) -> "Behavior":
        """The quanta of a kernel record log.

        A quantum ends at the next dispatch's cycle, or at ``end``, the
        finish cycle of a completed run; without ``end`` (a failed run)
        the last quantum stays open and is left out.  A quantum that
        stopped (blocked, yielded or retired) spans the depths its saves
        and restores reached; one cut short keeps its dispatch depth as
        both.
        """
        rows = []
        # ``(tid, start_cycle, min_depth, max_depth)`` of the quantum
        # the next dispatch (or the run end) closes
        current = None
        for tid, depth, cycle, __, low, high, state, __ in log:
            if current is not None:
                rows.append((current[0], current[1], cycle, current[2],
                             current[3]))
            if state in STOP_KINDS:
                current = (tid, cycle, low, high)
            else:
                current = (tid, cycle, depth, depth)
        if end is not None and current is not None:
            rows.append((current[0], current[1], end, current[2],
                         current[3]))
        return cls(rows)

    @property
    def n_quanta(self) -> int:
        """How many quanta there are (without building them)."""
        return len(self._rows)

    @property
    def quanta(self) -> List[Quantum]:
        """Every quantum, in dispatch order (built anew on each
        access; the measures below work on the rows)."""
        return [Quantum(*row) for row in self._rows]

    # -- §5 measures ------------------------------------------------------------

    def window_activity_per_thread(self) -> Dict[int, float]:
        """Mean windows used per quantum, per thread."""
        sums: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for tid, __, __, low, high in self._rows:
            sums[tid] = sums.get(tid, 0) + high - low + 1
            counts[tid] = counts.get(tid, 0) + 1
        return {tid: sums[tid] / counts[tid] for tid in sums}

    def mean_window_activity(self) -> float:
        rows = self._rows
        if not rows:
            return 0.0
        return (sum(high - low + 1 for __, __, __, low, high in rows)
                / len(rows))

    def concurrency(self, period: int = 64) -> List[int]:
        """Distinct threads scheduled in each window of ``period``
        consecutive quanta."""
        rows = self._rows
        return [len({row[0] for row in rows[i:i + period]})
                for i in range(0, len(rows), period)]

    def total_window_activity(self, period: int = 64) -> List[int]:
        """Windows used per period by all threads together: the union
        of (thread, depth-slot) pairs touched (a repeatedly used window
        counts once) — the measure the sharing schemes' saturation
        point is proportional to (§6.3)."""
        rows = self._rows
        out = []
        for i in range(0, len(rows), period):
            # a thread's quanta mostly repeat the same excursion
            excursions = {(tid, low, high) for tid, __, __, low, high
                          in rows[i:i + period]}
            out.append(len({(tid, d) for tid, low, high in excursions
                            for d in range(low, high + 1)}))
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
        rows = self._rows
        if not rows:
            return 0.0
        return (sum(end - start for __, start, end, __, __ in rows)
                / len(rows))
