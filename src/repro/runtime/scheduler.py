"""The ready queue: FIFO base order plus a pluggable enqueue policy.

The paper's scheduling is non-preemptive FIFO (§4.5); the working-set
variant (§4.6) differs only in letting an awoken thread with resident
windows enter at the front.  Both policies live in
:mod:`repro.core.working_set`; this class just applies them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.working_set import FIFOPolicy, FRONT, QueuePolicy
from repro.runtime.thread import READY, SimThread


class ReadyQueue:
    """Deque of ready threads with policy-driven insertion."""

    __slots__ = ("policy", "_queue", "events", "faults", "_tracing",
                 "_fifo")

    def __init__(self, policy: Optional[QueuePolicy] = None):
        self.policy = policy if policy is not None else FIFOPolicy()
        #: plain FIFO never front-enqueues, so the per-wake policy call
        #: can be skipped entirely on the default path
        self._fifo = type(self.policy) is FIFOPolicy
        self._queue: deque = deque()
        #: the kernel's trace recorder (None when standalone)
        self.events = None
        #: guards the enqueue emit (set by ``Kernel.enable_tracing``)
        self._tracing = False
        #: optional fault injector with enqueue specs pending; attached
        #: by FaultInjector.attach only when the plan targets this site
        self.faults = None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def push_new(self, thread: SimThread) -> None:
        """A freshly spawned thread always enters at the back."""
        thread.state = READY
        self._queue.append(thread)
        if self._tracing or self.faults is not None:
            self._note_enqueue(thread, "new", "back")

    def push_woken(self, thread: SimThread) -> None:
        """A thread awoken by another thread; placement is the policy's
        single decision point (§4.6)."""
        thread.state = READY
        if self._fifo or \
                self.policy.enqueue_position(thread.windows) != FRONT:
            self._queue.append(thread)
            position = "back"
        else:
            self._queue.appendleft(thread)
            position = "front"
        if self._tracing or self.faults is not None:
            self._note_enqueue(thread, "woken", position)

    def push_yielded(self, thread: SimThread) -> None:
        """A thread that voluntarily yielded the CPU."""
        thread.state = READY
        if self._fifo or \
                self.policy.yield_position(thread.windows) != FRONT:
            self._queue.append(thread)
            position = "back"
        else:
            self._queue.appendleft(thread)
            position = "front"
        if self._tracing or self.faults is not None:
            self._note_enqueue(thread, "yielded", position)

    def _note_enqueue(self, thread: SimThread, reason: str,
                      position: str) -> None:
        if self._tracing:
            self.events.emit("enqueue", tid=thread.tid, reason=reason,
                             position=position, depth=len(self._queue))
        faults = self.faults
        if faults is not None:
            faults.on_enqueue(self)
