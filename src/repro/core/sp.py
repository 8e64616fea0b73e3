"""SP — sharing scheme with private reserved windows (paper §4.5).

Every thread with resident windows keeps its own private reserved
window (PRW) immediately above its stack-top.  The PRW physically holds
the thread's stack-top out registers and is never given away while the
thread sleeps, so **switching to a thread whose windows are resident
transfers nothing at all** — the best case of Table 2 and the reason SP
wins whenever there are enough windows.

At switch-out, if the suspended thread vacated windows above its top
(by plain restores during its quantum), its PRW is moved down to sit
immediately above the current top; the reserved window carries no data,
so this costs only bookkeeping (§4.1).

A windowless thread needs *two* windows (top frame + PRW), allocated
above the suspended thread's PRW under the simple policy — hence the
scheme's worst case of two spills (Table 2's ``2 1`` row).
"""

from __future__ import annotations

from typing import Optional

from repro.core.sharing import SharingScheme
from repro.windows.errors import WindowGeometryError
from repro.windows.thread_windows import ThreadWindows


class SPScheme(SharingScheme):
    """Sharing with a private reserved window per thread."""

    kind = "SP"
    _prw_boundary = True

    def __init__(self, cpu, allocation=None):
        super().__init__(cpu, allocation)
        if cpu.n_windows < self.min_windows():
            raise WindowGeometryError(
                "SP needs at least %d windows, got %d"
                % (self.min_windows(), cpu.n_windows))
        #: where to allocate when there is no suspended thread to anchor
        #: on (start of run, or the previous thread exited)
        self._anchor = 0
        self.wf.set_wim(set(range(self.wf.n_windows)))

    # -- scheme hooks --------------------------------------------------------

    def boundary_of(self, tw: ThreadWindows) -> int:
        if tw.prw is None:
            raise WindowGeometryError(
                "thread %d has no PRW while running" % tw.tid)
        return tw.prw

    def simple_top(self, out_tw: Optional[ThreadWindows]) -> int:
        # "The window above the reserved window of the suspended thread
        # is allocated."
        anchor = self._anchor
        if out_tw is not None and out_tw.prw is not None:
            anchor = out_tw.prw
        return self.wf.above(anchor)

    def _switch_cost(self, saves: int, restores: int,
                     allocated: bool) -> int:
        return self.cost.sp_switch_cost(saves, restores, allocated)

    def retire(self, tw: ThreadWindows) -> None:
        if tw.prw is not None and self._anchor == tw.prw:
            self._anchor = 0
        super().retire(tw)
