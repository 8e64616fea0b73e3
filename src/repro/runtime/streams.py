"""Bounded FIFO byte streams (the S1–S6 of the paper's Figure 10).

Each stream is a cyclic buffer of fixed capacity.  A thread writing to
a full stream blocks; a thread reading from an empty stream blocks.
Because scheduling is non-preemptive, "a thread execution continues
until an input (output) buffer becomes empty (full)" (§5.1) — the
buffer capacities M and N are therefore exactly the granularity and
concurrency knobs of the evaluation.
"""

from __future__ import annotations

from typing import List, Optional

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
    def space(self) -> int:
        return self.capacity - len(self._data)

    @property
    def is_empty(self) -> bool:
        return not self._data

    @property
    def is_full(self) -> bool:
        return len(self._data) >= self.capacity

    @property
    def at_eof(self) -> bool:
        return self.closed and not self._data

    # -- data transfer (non-blocking primitives; the kernel blocks) -----------

    def push(self, data: bytes) -> int:
        """Accept as much of ``data`` as fits; return the byte count."""
        if self.closed:
            raise StreamClosedError(
                "write to closed stream %r" % (self.name,))
        take = min(self.space, len(data))
        if take:
            self._data.extend(data[:take])
            self.bytes_written += take
        return take

    def pull(self, max_bytes: int) -> bytes:
        """Remove and return up to ``max_bytes`` (may be empty)."""
        take = min(max_bytes, len(self._data))
        if take == 0:
            return b""
        out = bytes(self._data[:take])
        del self._data[:take]
        self.bytes_read += take
        return out

    def pull_line(self) -> Optional[bytes]:
        """Remove and return one full line, or None if no complete line
        is buffered yet (at EOF the residue counts as a line)."""
        idx = self._data.find(b"\n")
        if idx < 0:
            if self.closed and self._data:
                out = bytes(self._data)
                self._data.clear()
                self.bytes_read += len(out)
                return out
            return None
        out = bytes(self._data[:idx + 1])
        del self._data[:idx + 1]
        self.bytes_read += len(out)
        return out

    def has_line(self) -> bool:
        return self._data.find(b"\n") >= 0 or (self.closed
                                               and bool(self._data))

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:
        return "Stream(%r, %d/%d%s)" % (
            self.name, len(self._data), self.capacity,
            ", closed" if self.closed else "")
