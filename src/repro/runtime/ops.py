"""Commands a generator procedure may yield to the kernel.

These are deliberately tiny value objects: the kernel dispatches on
``type(cmd)`` in its hot loop.
"""

from __future__ import annotations


class Call:
    """Call a subprocedure: ``factory(*args)`` must return a generator.

    The kernel writes ``args`` into the caller's out registers,
    executes a simulated ``save`` (which may overflow-trap), and runs
    the callee; the callee's return value travels back through the in/
    out register overlap across the ``restore``.
    """

    __slots__ = ("factory", "args")

    def __init__(self, factory, *args):
        self.factory = factory
        self.args = args


class Tick:
    """Charge ``cycles`` of straight-line computation."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        self.cycles = cycles


class Read:
    """Read up to ``max_bytes`` from a stream; blocks while it is empty.

    Resumes with a ``bytes`` object (``b""`` only at end-of-stream).
    """

    __slots__ = ("stream", "max_bytes")

    def __init__(self, stream, max_bytes: int = 1 << 30):
        self.stream = stream
        self.max_bytes = max_bytes


class ReadLine:
    """Read one ``\\n``-terminated line (the trailing newline included);
    blocks until a full line or end-of-stream is available.  Resumes
    with ``bytes`` (``b""`` only at end-of-stream)."""

    __slots__ = ("stream",)

    def __init__(self, stream):
        self.stream = stream


class Write:
    """Write all of ``data`` to a stream; blocks whenever it is full."""

    __slots__ = ("stream", "data")

    def __init__(self, stream, data: bytes):
        self.stream = stream
        self.data = data


class CloseStream:
    """Close a stream for writing; readers then see end-of-stream."""

    __slots__ = ("stream",)

    def __init__(self, stream):
        self.stream = stream


class YieldCPU:
    """Voluntarily give up the CPU (stays ready)."""

    __slots__ = ()


class Spawn:
    """Create a new thread running ``factory(*args)``; resumes with the
    new thread's handle (non-preemptive: the spawner keeps the CPU)."""

    __slots__ = ("factory", "args", "name")

    def __init__(self, factory, *args, name: str = ""):
        self.factory = factory
        self.args = args
        self.name = name


class Join:
    """Wait until ``thread`` finishes; resumes with its result."""

    __slots__ = ("thread",)

    def __init__(self, thread):
        self.thread = thread


class FlushHint:
    """Request the flush-type context switch (§4.4) at the next
    suspension: the thread expects to sleep for a long time, so its
    windows are flushed at switch-out instead of being left in place."""

    __slots__ = ()
