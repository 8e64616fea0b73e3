"""Simulated threads: a stack of generator procedures plus window state."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.windows.thread_windows import ThreadWindows

NEW = "new"
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"


class SimThread:
    """One thread of the simulated application."""

    __slots__ = ("tid", "name", "factory", "args", "windows", "state",
                 "gen_stack", "resume_value", "pending", "blocked_on",
                 "result", "flush_on_switch", "join_waiters",
                 "calls", "returns", "blocks")

    def __init__(self, tid: int, name: str, factory, args=()):
        self.tid = tid
        self.name = name or ("thread-%d" % tid)
        self.factory = factory
        self.args = tuple(args)
        self.windows = ThreadWindows(tid)
        self.state = NEW
        #: live generator stack, caller-first
        self.gen_stack: List[Any] = []
        #: value to send into the top generator at the next resume
        self.resume_value: Any = None
        #: the blocking op the thread is blocked in, replayed when it
        #: resumes: (kind, stream or joined thread, the Read/Write/
        #: ReadLine/Join op, bytes of a partial write already pushed)
        self.pending: Optional[tuple] = None
        #: what the thread is blocked on, for diagnostics
        self.blocked_on: Optional[str] = None
        #: return value of the root procedure
        self.result: Any = None
        #: §4.4: flush windows at the next switch-out
        self.flush_on_switch = False
        #: threads blocked in Join on this thread
        self.join_waiters: List["SimThread"] = []
        #: per-thread statistics
        self.calls = 0
        self.returns = 0
        self.blocks = 0

    def start_root(self) -> None:
        """Instantiate the root generator (runs in the first frame)."""
        self.gen_stack.append(self.factory(*self.args))

    def __repr__(self) -> str:
        return "SimThread(%d, %r, %s, depth=%d)" % (
            self.tid, self.name, self.state, len(self.gen_stack))
