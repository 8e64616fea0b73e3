"""Bounded FIFO byte streams (the S1–S6 of the paper's Figure 10).

Each stream is a cyclic buffer of fixed capacity.  A thread writing to
a full stream blocks; a thread reading from an empty stream blocks.
Because scheduling is non-preemptive, "a thread execution continues
until an input (output) buffer becomes empty (full)" (§5.1) — the
buffer capacities M and N are therefore exactly the granularity and
concurrency knobs of the evaluation.
"""

from __future__ import annotations

from typing import List

from repro.runtime.errors import RuntimeFault


class StreamClosedError(RuntimeFault):
    """Write attempted on a closed stream."""


class Stream:
    """A bounded cyclic FIFO byte buffer with blocking semantics."""

    __slots__ = ("capacity", "name", "_data", "closed", "read_waiters",
                 "write_waiters", "bytes_written", "bytes_read",
                 "read_label", "write_label")

    def __init__(self, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("stream capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        #: precomputed ``blocked_on`` diagnostics labels, so blocking a
        #: thread never formats a string on the hot path
        self.read_label = "read %s" % (name or "stream")
        self.write_label = "write %s" % (name or "stream")
        self._data = bytearray()
        self.closed = False
        #: threads blocked on this stream (managed by the kernel)
        self.read_waiters: List[object] = []
        self.write_waiters: List[object] = []
        #: lifetime statistics
        self.bytes_written = 0
        self.bytes_read = 0

    # -- capacity queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    @property
    def is_empty(self) -> bool:
        return not self._data

    @property
    def is_full(self) -> bool:
        return len(self._data) >= self.capacity

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:
        return "Stream(%r, %d/%d%s)" % (
            self.name, len(self._data), self.capacity,
            ", closed" if self.closed else "")
