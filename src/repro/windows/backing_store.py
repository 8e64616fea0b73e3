"""Per-thread memory backing store for spilled register windows.

Each thread owns a stack of frames kept in (simulated) memory: the part
of its procedure-call stack that does not fit in the physical window
file.  Frames are ordered outermost first; the innermost stored frame
is the one an underflow trap restores next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(slots=True)
class Frame:
    """Snapshot of one window: eight in and eight local registers.

    ``depth`` records the logical call depth the frame belongs to; it is
    used purely for integrity checking (a frame restored at the wrong
    depth indicates a window-management bug).
    """

    ins: List[int]
    local_regs: List[int]
    depth: int = -1


@dataclass(slots=True)
class BackingStore:
    """Memory stack of spilled frames for one thread (outermost first)."""

    frames: List[Frame] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)

    def __bool__(self) -> bool:
        return bool(self.frames)
