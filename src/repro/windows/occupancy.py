"""Software bookkeeping of who owns each physical window.

The multi-tasking monitor of the paper keeps, per physical window,
whether it is free, holds a live frame of some thread, or is reserved
(the single global reserved window of the NS/SNP schemes, or a
thread's private reserved window in the SP scheme).  This map is what
the context-switch and trap-handler code of :mod:`repro.core` consults;
the hardware-visible state (registers, CWP, WIM) lives in
:class:`repro.windows.window_file.WindowFile`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

FREE = "free"
FRAME = "frame"
RESERVED = "reserved"


class WindowMap:
    """Ownership map over the physical windows."""

    __slots__ = ("n_windows", "_kind", "_tid")

    def __init__(self, n_windows: int):
        self.n_windows = n_windows
        self._kind: List[str] = [FREE] * n_windows
        self._tid: List[Optional[int]] = [None] * n_windows

    # -- mutation ---------------------------------------------------------

    def set_free(self, w: int) -> None:
        self._kind[w] = FREE
        self._tid[w] = None

    def set_reserved(self, w: int, tid: Optional[int] = None) -> None:
        self._kind[w] = RESERVED
        self._tid[w] = tid

    # -- queries ----------------------------------------------------------

    def kind(self, w: int) -> str:
        return self._kind[w]

    def tid(self, w: int) -> Optional[int]:
        return self._tid[w]

    def entry(self, w: int) -> Tuple[str, Optional[int]]:
        return self._kind[w], self._tid[w]

    def is_free(self, w: int) -> bool:
        return self._kind[w] == FREE

    def free_count(self) -> int:
        return self._kind.count(FREE)

    def __repr__(self) -> str:
        cells = []
        for w in range(self.n_windows):
            kind, tid = self._kind[w], self._tid[w]
            if kind == FREE:
                cells.append(".")
            elif kind == FRAME:
                cells.append("T%s" % tid)
            else:
                cells.append("R" if tid is None else "P%s" % tid)
        return "WindowMap[%s]" % " ".join(cells)
