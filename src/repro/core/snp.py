"""SNP — sharing scheme without private reserved windows (paper §4.5).

Windows are shared among threads; a single global reserved window
guards the *running* thread's growth.  Because a suspended thread's
stack-top out registers physically live in the window above its top —
which is not protected while it sleeps — the outs are saved into the
thread context on every switch-out and restored on switch-in (§4.1).

If the newly-scheduled thread has no windows, the simple policy
allocates the window above the suspended thread's windows: the old
reserved window itself is available, so at most one window must be
spilled to re-establish the reserved window above it (§4.1, Table 2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.sharing import SharingScheme
from repro.windows.thread_windows import ThreadWindows


class SNPScheme(SharingScheme):
    """Sharing without PRW: one global reserved window."""

    kind = "SNP"

    def __init__(self, cpu, allocation=None):
        super().__init__(cpu, allocation)
        self.reserved = 0
        self.map.set_reserved(self.reserved)
        self.wf.set_wim(set(range(self.wf.n_windows)))

    # -- scheme hooks --------------------------------------------------------

    def boundary_of(self, tw: ThreadWindows) -> int:
        return self.reserved

    def simple_top(self, out_tw: Optional[ThreadWindows]) -> int:
        # "The window above the suspended thread's is allocated": the
        # old reserved window sits exactly there and is available.
        return self.reserved

    def _switch_cost(self, saves: int, restores: int,
                     allocated: bool) -> int:
        return self.cost.snp_switch_cost(saves, restores)
