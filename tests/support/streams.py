"""Reference data transfer on a :class:`repro.runtime.streams.Stream`.

The kernel's batched loop moves stream bytes inline.  These are the
same operations one call at a time, as the step-granular reference
loop (:mod:`tests.support.trampoline`) performs them; the stream unit
and model tests pin their semantics.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.streams import Stream, StreamClosedError


def space(stream: Stream) -> int:
    return stream.capacity - len(stream._data)


def at_eof(stream: Stream) -> bool:
    return stream.closed and not stream._data


def push(stream: Stream, data: bytes) -> int:
    """Accept as much of ``data`` as fits; return the byte count."""
    if stream.closed:
        raise StreamClosedError(
            "write to closed stream %r" % (stream.name,))
    take = min(space(stream), len(data))
    if take:
        stream._data.extend(data[:take])
        stream.bytes_written += take
    return take


def pull(stream: Stream, max_bytes: int) -> bytes:
    """Remove and return up to ``max_bytes`` (may be empty)."""
    take = min(max_bytes, len(stream._data))
    if take == 0:
        return b""
    out = bytes(stream._data[:take])
    del stream._data[:take]
    stream.bytes_read += take
    return out


def pull_line(stream: Stream) -> Optional[bytes]:
    """Remove and return one full line, or None if no complete line
    is buffered yet (at EOF the residue counts as a line)."""
    data = stream._data
    idx = data.find(b"\n")
    if idx < 0:
        if stream.closed and data:
            out = bytes(data)
            data.clear()
            stream.bytes_read += len(out)
            return out
        return None
    out = bytes(data[:idx + 1])
    del data[:idx + 1]
    stream.bytes_read += len(out)
    return out


def has_line(stream: Stream) -> bool:
    return (stream._data.find(b"\n") >= 0
            or (stream.closed and bool(stream._data)))
