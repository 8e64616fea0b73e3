"""Per-thread window-residency state.

A thread's procedure-call stack is split between physical windows and
its memory backing store.  The resident frames always form a cyclically
contiguous run of windows ``[cwp .. bottom]`` (top of stack at ``cwp``,
oldest resident frame at ``bottom``); everything deeper lives in
``store``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.windows.backing_store import BackingStore
from repro.windows.errors import WindowGeometryError


class ThreadWindows:
    """Window-related state of one thread, as the monitor tracks it."""

    __slots__ = ("tid", "cwp", "bottom", "resident", "depth", "prw",
                 "store", "saved_outs", "started",
                 "stat_saves", "stat_restores", "stat_switches")

    def __init__(self, tid: int):
        self.tid = tid
        #: physical window of the top-of-stack frame (None: no windows)
        self.cwp: Optional[int] = None
        #: physical window of the oldest resident frame
        self.bottom: Optional[int] = None
        #: number of resident frames
        self.resident = 0
        #: logical call depth (resident frames + stored frames)
        self.depth = 0
        #: private reserved window (SP scheme only)
        self.prw: Optional[int] = None
        #: spilled frames, outermost first
        self.store = BackingStore()
        #: out registers of the top frame, saved at switch-out (NS/SNP)
        self.saved_outs: Optional[List[int]] = None
        #: has this thread ever been dispatched?
        self.started = False
        #: batched per-thread tallies, bumped inline on the hot path and
        #: folded into :meth:`repro.metrics.counters.Counters.fold_thread_stats`
        #: at run end / crash capture
        self.stat_saves = 0
        self.stat_restores = 0
        self.stat_switches = 0

    @property
    def has_windows(self) -> bool:
        return self.resident > 0

    def resident_windows(self, n_windows: int) -> List[int]:
        """Physical windows of the resident frames, top first."""
        if self.resident == 0:
            return []
        assert self.cwp is not None
        return [(self.cwp + i) % n_windows for i in range(self.resident)]

    def drop_windows(self) -> None:
        """Forget all residency (after a flush or full spill)."""
        self.cwp = None
        self.bottom = None
        self.resident = 0
        self.prw = None

    def check_consistency(self, n_windows: int) -> None:
        """Internal invariants; raised violations indicate simulator bugs."""
        if self.resident == 0:
            if self.cwp is not None or self.bottom is not None:
                raise WindowGeometryError(
                    "thread %d: zero resident frames but cwp/bottom set"
                    % self.tid)
        else:
            if self.cwp is None or self.bottom is None:
                raise WindowGeometryError(
                    "thread %d: resident frames but no cwp/bottom" % self.tid)
            span = (self.bottom - self.cwp) % n_windows + 1
            if span != self.resident:
                raise WindowGeometryError(
                    "thread %d: resident=%d but cwp..bottom spans %d"
                    % (self.tid, self.resident, span))
        if self.depth != self.resident + len(self.store):
            raise WindowGeometryError(
                "thread %d: depth %d != resident %d + stored %d"
                % (self.tid, self.depth, self.resident, len(self.store)))

    def __repr__(self) -> str:
        return ("ThreadWindows(tid=%d, cwp=%s, bottom=%s, resident=%d, "
                "stored=%d, depth=%d, prw=%s)" % (
                    self.tid, self.cwp, self.bottom, self.resident,
                    len(self.store), self.depth, self.prw))
