"""The kernel watchdog: max-steps-without-progress livelock detection.

"Progress" is anything that moves the simulation forward: a tick, a
call, a return, a spawn, or a completed blocking operation.  A pure
yield storm — threads bouncing through the ready queue without ever
moving data — makes none of these, and after ``max_stall`` such steps
the kernel raises :class:`~repro.runtime.errors.LivelockError` with
per-thread diagnostics instead of spinning forever.

The kernel increments a single progress counter at each progress site.
The batched loop makes no call per step: it copies the watchdog's
marks (the progress count last seen and the step it was seen at) into
frame locals, updates them inline at every step while the watchdog is
armed, and writes them back here on every exit, a LivelockError
included, so :meth:`Watchdog.stalled_for` reads what the step-granular
reference loop's own per-step ``stalled_for`` calls leave.  Unarmed, and
with no step budget, a step pays one integer compare.
"""

from __future__ import annotations

DEFAULT_MAX_STALL = 100_000


class Watchdog:
    """Tracks the gap between the step clock and the progress clock."""

    def __init__(self, max_stall: int = DEFAULT_MAX_STALL):
        if max_stall < 1:
            raise ValueError("watchdog max_stall must be >= 1, got %d"
                             % max_stall)
        self.max_stall = max_stall
        self._last_marks = -1
        self._last_step = 0

    def stalled_for(self, marks: int, step: int) -> int:
        """Steps since the progress counter last moved (0 = progress)."""
        if marks != self._last_marks:
            self._last_marks = marks
            self._last_step = step
            return 0
        return step - self._last_step

    def __repr__(self) -> str:
        return "Watchdog(max_stall=%d)" % self.max_stall
