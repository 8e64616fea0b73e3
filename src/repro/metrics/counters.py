"""Event counters shared by the CPU, the window-management schemes and the
runtime kernel.

Everything the paper's evaluation reports is derived from these counts:

* dynamic ``save``/``restore`` instruction counts (Table 1, Figure 13),
* overflow/underflow trap counts (Figure 13),
* per-context-switch window-transfer histograms (Table 2, Figure 12),
* cycle totals split by category (Figures 11, 12, 14, 15).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, Optional, Tuple


@dataclass
class SwitchRecord:
    """One context switch: which threads, how many windows moved, cycle cost."""

    out_tid: Optional[int]
    in_tid: int
    saves: int
    restores: int
    cycles: int


@dataclass
class TrapRecord:
    """One window trap: kind, whether a window was transferred, cycle cost."""

    kind: str  # "overflow" | "underflow"
    tid: int
    spilled: bool
    restored: bool
    cycles: int


@dataclass
class Counters:
    """Mutable aggregate statistics for one simulation run."""

    saves: int = 0
    restores: int = 0
    overflow_traps: int = 0
    underflow_traps: int = 0
    windows_spilled: int = 0
    windows_restored: int = 0
    context_switches: int = 0
    #: (saves, restores) -> switches, bumped once per switch.  A
    #: defaultdict, not a Counter: Counter overrides ``__delitem__``,
    #: which sends every item store through a Python-level slot and
    #: about doubles the cost of that bump.
    switch_transfer_hist: DefaultDict[Tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int))

    compute_cycles: int = 0
    call_cycles: int = 0
    trap_cycles: int = 0
    switch_cycles: int = 0

    per_thread_switches: Dict[int, int] = field(default_factory=dict)
    per_thread_saves: Dict[int, int] = field(default_factory=dict)
    per_thread_restores: Dict[int, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        """Total simulated cycles across all cost categories."""
        return (self.compute_cycles + self.call_cycles
                + self.trap_cycles + self.switch_cycles)

    @property
    def window_traps(self) -> int:
        """Overflow plus underflow traps (numerator of Figure 13)."""
        return self.overflow_traps + self.underflow_traps

    @property
    def trap_probability(self) -> float:
        """Window traps divided by executed save+restore instructions.

        This is exactly the y-axis of the paper's Figure 13.
        """
        executed = self.saves + self.restores
        if executed == 0:
            return 0.0
        return self.window_traps / executed

    @property
    def avg_switch_cycles(self) -> float:
        """Average cycles per context switch (y-axis of Figure 12)."""
        if self.context_switches == 0:
            return 0.0
        return self.switch_cycles / self.context_switches

    def fold_thread_stats(self, thread_windows) -> None:
        """Fold the batched per-thread tallies each
        :class:`~repro.windows.thread_windows.ThreadWindows` accumulated
        (plain int fields, bumped inline on the hot path) into the
        per-thread dicts, and zero them.

        The CPU and schemes keep the scalar totals (``saves``,
        ``restores``, cycle counters) up to date immediately — the trace
        clock reads ``total_cycles`` mid-run — but only touch the
        dicts here, at run end and at crash capture.  Idempotent across
        repeated folds because the fields are reset.
        """
        for tw in thread_windows:
            if tw.stat_saves:
                self.per_thread_saves[tw.tid] = (
                    self.per_thread_saves.get(tw.tid, 0) + tw.stat_saves)
                tw.stat_saves = 0
            if tw.stat_restores:
                self.per_thread_restores[tw.tid] = (
                    self.per_thread_restores.get(tw.tid, 0)
                    + tw.stat_restores)
                tw.stat_restores = 0
            if tw.stat_switches:
                self.per_thread_switches[tw.tid] = (
                    self.per_thread_switches.get(tw.tid, 0)
                    + tw.stat_switches)
                tw.stat_switches = 0

    def record_compute(self, cycles: int) -> None:
        self.compute_cycles += cycles

    def transfer_histogram(self) -> Dict[Tuple[int, int], int]:
        """Histogram of (windows saved, windows restored) per switch."""
        return dict(self.switch_transfer_hist)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict summary, convenient for reporting and assertions."""
        return {
            "saves": self.saves,
            "restores": self.restores,
            "overflow_traps": self.overflow_traps,
            "underflow_traps": self.underflow_traps,
            "windows_spilled": self.windows_spilled,
            "windows_restored": self.windows_restored,
            "context_switches": self.context_switches,
            "compute_cycles": self.compute_cycles,
            "call_cycles": self.call_cycles,
            "trap_cycles": self.trap_cycles,
            "switch_cycles": self.switch_cycles,
            "total_cycles": self.total_cycles,
            "per_thread_saves": dict(self.per_thread_saves),
            "per_thread_restores": dict(self.per_thread_restores),
        }
