"""Abstract window-management scheme and shared geometry helpers.

A scheme owns all policy: how overflow and underflow traps are handled,
what a context switch moves, and where windows are allocated.  The CPU
(:class:`repro.windows.cpu.WindowCPU`) calls back into the bound scheme
when a ``save``/``restore`` hits an invalid window.

Geometry facts the shared helpers rely on (see DESIGN.md):

* a thread's resident frames form a cyclically contiguous run
  ``[cwp .. bottom]`` (top at ``cwp``, oldest at ``bottom``);
* regions pack around the cyclic file so that, scanning *upward* from
  any region boundary, the first non-free window is some thread's
  stack-bottom window (a private reserved window is only exposed when
  its thread has no frames, and it is freed at that moment);
* overflow spills therefore always remove a stack-bottom window, never
  a stack-top one — exactly the property §3.1 demands.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from repro.core import SCHEME_MIN_WINDOWS
from repro.windows.backing_store import Frame
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE
from repro.windows.thread_windows import ThreadWindows


class Scheme(ABC):
    """Base class for the NS, SNP and SP window-management schemes."""

    #: paper name of the scheme ("NS", "SNP" or "SP")
    kind: str = "?"
    #: does the scheme share windows among threads?
    shares_windows: bool = False

    def __init__(self, cpu):
        self.cpu = cpu
        self.wf = cpu.wf
        self.map = cpu.map
        self.cost = cpu.cost
        self.counters = cpu.counters
        #: the CPU's trace recorder (shared with the kernel)
        self.events = cpu.events
        #: guards this scheme's emit sites (``cpu.enable_tracing``)
        self._tracing = cpu._tracing
        cpu.bind_scheme(self)
        self.threads: Dict[int, ThreadWindows] = {}
        #: memo of switch-cost calls — the cost model is a frozen
        #: dataclass, so (args) -> cycles never changes per instance
        #: (the sharing schemes memoize (cycles, histogram key))
        self._switch_cost_cache: Dict[tuple, Any] = {}
        # The switch and trap sites' sinks besides the trace: each is
        # None until armed, so an unarmed site pays one check.
        #: telemetry's int buffers of switch and trap cycles
        #: (``RunTelemetry.attach``)
        self._tel_switch = None
        self._tel_trap = None
        #: the ordered SwitchRecord/TrapRecord list: a plain list, or
        #: the kernel's bounded flight ring when it writes crash bundles
        self.records = None

    # -- registration ------------------------------------------------------

    def register(self, tw: ThreadWindows) -> None:
        if tw.tid in self.threads:
            raise WindowGeometryError("thread %d already registered" % tw.tid)
        self.threads[tw.tid] = tw

    # -- abstract policy -----------------------------------------------------

    @abstractmethod
    def handle_overflow(self, tw: ThreadWindows) -> None:
        """Make the window above the CWP valid and free (trap handler)."""

    @abstractmethod
    def handle_underflow(self, tw: ThreadWindows) -> None:
        """Bring the caller's frame back from memory (trap handler)."""

    @abstractmethod
    def context_switch(self, out_tw: Optional[ThreadWindows],
                       in_tw: ThreadWindows,
                       flush_out: bool = False) -> None:
        """Suspend ``out_tw`` (if any), dispatch ``in_tw``.

        ``flush_out`` requests the flush-type context switch of §4.4:
        the suspended thread's windows are written out at switch time
        (cheaper than later overflow traps when the thread will sleep
        long).  The NS scheme always flushes, so it ignores the flag.
        """

    @classmethod
    def min_windows(cls) -> int:
        """Smallest window file this scheme can run on."""
        return SCHEME_MIN_WINDOWS[cls.kind]

    # -- thread exit ---------------------------------------------------------

    def retire(self, tw: ThreadWindows) -> None:
        """Free every window the exiting thread holds."""
        for w in tw.resident_windows(self.wf.n_windows):
            self.map.set_free(w)
        if tw.prw is not None:
            self.map.set_free(tw.prw)
        tw.drop_windows()
        tw.depth = 0
        tw.store.frames.clear()
        if self.cpu.current is tw:
            self.cpu.current = None

    # -- shared helpers --------------------------------------------------------

    def _spill_bottom(self, w: int) -> None:
        """Spill the stack-bottom frame in window ``w`` to its owner's
        backing store and free the window.

        Only a frame that is its owner's stack-bottom is legal here;
        anything else (a reserved window, a deeper frame) means the
        caller broke the packing invariant.  If the owner loses its
        last frame its private reserved window (if any) is freed too,
        keeping the "first occupant above a boundary is a bottom"
        invariant alive.
        """
        wmap = self.map
        kinds = wmap._kind
        tids = wmap._tid
        if kinds[w] is not FRAME:
            raise WindowGeometryError(
                "window %d is %s; expected a stack-bottom frame"
                % (w, wmap.kind(w)))
        victim = self.threads[tids[w]]
        if victim.bottom != w:
            raise WindowGeometryError(
                "window %d belongs to thread %d but is not its bottom"
                % (w, victim.tid))
        wf = self.wf
        depth = victim.depth - victim.resident + 1
        # reuse a pooled frame buffer (the restore paths return them)
        regs = wf._regs
        base = wf._in_base[w]
        mid = base + 8
        pool = wf._frame_pool
        if pool:
            frame = pool.pop()
            frame.ins[:] = regs[base:mid]
            frame.local_regs[:] = regs[mid:mid + 8]
            frame.depth = depth
        else:
            frame = Frame(regs[base:mid], regs[mid:mid + 8], depth)
        fault_store = self.cpu._fault_store
        if fault_store is not None:
            fault_store("spill", victim, frame, self.counters)
        frames = victim.store.frames
        if frames:
            last_depth = frames[-1].depth
            if last_depth >= 0 and depth >= 0 and depth != last_depth + 1:
                raise WindowIntegrityError(
                    "non-contiguous spill: depth %d pushed over depth %d"
                    % (depth, last_depth))
        frames.append(frame)
        kinds[w] = FREE
        tids[w] = None
        victim.resident -= 1
        if victim.resident:
            victim.bottom = wf._above[w]
            return
        victim.cwp = None
        victim.bottom = None
        prw = victim.prw
        if prw is not None:
            # The thread's last frame is gone, so its PRW goes too; the
            # stack-top outs physically lived in the PRW's in registers
            # and must survive in the thread context until re-dispatch.
            prw_base = wf._in_base[prw]
            victim.saved_outs = regs[prw_base:prw_base + 8]
            kinds[prw] = FREE
            tids[prw] = None
            victim.prw = None
