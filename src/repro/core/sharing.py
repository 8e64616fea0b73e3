"""Shared machinery of the two window-sharing schemes (SNP and SP).

Both schemes use the paper's key algorithm (§3.2): on a window
*underflow*, the caller's frame is restored **in place** — into the
same physical window the callee used — after the callee's in registers
(return values, frame linkage) are copied to its out registers.  The
CWP does not physically move; logically the thread is one frame
shallower.  Underflow therefore never spills a window, which is what
makes sharing windows among threads tractable (§3.1 problems 1–3).

On a window *overflow*, the boundary (the global reserved window in
SNP, the thread's private reserved window in SP) moves one window up;
if the window above the boundary holds another thread's stack-bottom
frame, that frame is spilled — always a stack-bottom, never a
stack-top, exactly as the paper requires.
"""

from __future__ import annotations

from typing import Optional

from repro.core.allocation import AllocationPolicy, SimpleAllocation
from repro.core.scheme import Scheme
from repro.metrics.counters import TrapRecord
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


class SharingScheme(Scheme):
    """Common trap handling for the SNP and SP schemes."""

    shares_windows = True
    #: True when the boundary is a per-thread PRW (SP); False when it is
    #: the single global reserved window (SNP).  Lets the shared hot
    #: paths read the boundary directly instead of a virtual call.
    _prw_boundary = False

    #: how many free windows are granted as growth headroom when the
    #: boundary is placed (typical per-quantum call-depth excursion);
    #: granting costs nothing — the WIM is recomputed anyway — but an
    #: unbounded grant would push the boundary far from the thread and
    #: crowd the next windowless allocation into its neighbour's back.
    grant_headroom = 4

    def __init__(self, cpu, allocation: Optional[AllocationPolicy] = None):
        super().__init__(cpu)
        self.allocation = (allocation if allocation is not None
                           else SimpleAllocation())
        #: the default policy just delegates to ``simple_top``; skip
        #: the double indirection on the hot windowless-dispatch path
        self._simple_alloc = type(self.allocation) is SimpleAllocation
        self._dispatch_seq = 0
        self.last_dispatched = {}
        #: trap costs cached off the (frozen) cost model at construction
        #: instead of being recomputed on every trap
        self._overflow_spill_cost = self.cost.overflow_cost(True)
        self._overflow_free_cost = self.cost.overflow_cost(False)
        self._underflow_cost = self.cost.underflow_inplace_cost()

    # -- hooks the concrete schemes provide ---------------------------------

    def boundary_of(self, tw: ThreadWindows) -> int:
        """The reserved window guarding the running thread's growth."""
        raise NotImplementedError

    def simple_top(self, out_tw: Optional[ThreadWindows]) -> int:
        """Where the simple allocation policy (§4.2) puts a windowless
        thread's new stack-top window."""
        raise NotImplementedError

    # -- traps ----------------------------------------------------------------

    def handle_overflow(self, tw: ThreadWindows) -> None:
        wf = self.wf
        above = wf._above
        boundary = above[wf.cwp]
        if self._prw_boundary:
            expected = tw.prw
            if expected is None:
                raise WindowGeometryError(
                    "thread %d has no PRW while running" % tw.tid)
        else:
            expected = self.reserved
        if boundary != expected:
            raise WindowGeometryError(
                "%s overflow at window %d but the boundary is %d"
                % (self.kind, boundary, expected))
        if above[boundary] == wf.cwp:
            raise WindowGeometryError(
                "window file too small: overflow wrapped onto the CWP")
        # The old boundary becomes the thread's new stack-top window;
        # the boundary is re-placed above it, granting any free run on
        # the way (recomputing the WIM costs the same either way).
        wmap = self.map
        wmap._kind[boundary] = FREE
        wmap._tid[boundary] = None
        spilled = self._position_boundary(tw, top=boundary)
        cycles = (self._overflow_spill_cost if spilled
                  else self._overflow_free_cost)
        counters = self.counters
        counters.overflow_traps += 1
        if spilled:
            counters.windows_spilled += 1
        counters.trap_cycles += cycles
        if counters.keep_trace:
            counters.trap_trace.append(
                TrapRecord("overflow", tw.tid, spilled > 0, False, cycles))
        if self._tel_trap is not None:
            self._tel_trap.append(cycles)
        if self._tracing:
            self.events.emit("overflow", tid=tw.tid, spilled=spilled,
                             cycles=cycles)

    def _position_boundary(self, tw: ThreadWindows, top: int) -> int:
        """Place the thread's boundary (global reserved window or PRW)
        above window ``top``, granting the contiguous run of free
        windows in between as valid growth room, and rebuild the WIM.

        ``top`` is the thread's stack-top window — or the window a
        trapped ``save`` is about to claim.  Returns the number of
        windows spilled (0 or 1: when not even one free window exists
        above ``top``, the stack-bottom frame sitting there is spilled
        to become the boundary).
        """
        wf = self.wf
        wmap = self.map
        n = wf.n_windows
        above = wf._above
        kinds = wmap._kind
        tids = wmap._tid
        prw_boundary = self._prw_boundary
        relocatable = tw.prw if prw_boundary else self.reserved
        resident = tw.resident
        # ``top`` is either the thread's resident stack-top (a FRAME,
        # the context-switch path) or the window just above it that the
        # trapped save is claiming (freed by the caller, the overflow
        # path); either way the resident span plus ``top`` is one
        # contiguous cyclic run ending at window cwp + resident - 1.
        if kinds[top] is FRAME:
            limit = n - resident
            above_len = resident - 1   # valid windows above ``top``
        else:
            limit = n - resident - 1
            above_len = resident
        headroom = self.grant_headroom + 1
        if limit > headroom:
            limit = headroom
        count = 0
        w = above[top]
        while count < limit and (kinds[w] is FREE or w == relocatable):
            count += 1
            w = above[w]
        saves = 0
        if not count:
            saves = self._make_free(above[top])
            if saves > 1:
                raise WindowGeometryError(
                    "boundary placement spilled %d windows" % saves)
            count = 1
            # The eviction may have spilled ``tw``'s *own* bottom (the
            # file held nothing but this thread); the valid span must
            # reflect the post-spill resident count.
            if kinds[top] is FRAME:
                above_len = tw.resident - 1
            else:
                above_len = tw.resident
        boundary = (top - count) % n
        if (relocatable is not None and relocatable != boundary
                and kinds[relocatable] is RESERVED):
            kinds[relocatable] = FREE
            tids[relocatable] = None
        kinds[boundary] = RESERVED
        if prw_boundary:
            tids[boundary] = tw.tid
            tw.prw = boundary
        else:
            tids[boundary] = None
            self.reserved = boundary
        # The whole valid set — granted run, ``top``, resident span —
        # is the single cyclic span of count + above_len windows just
        # above the boundary, so the WIM rebuild is (at most) two
        # slice copies from the all-valid template.
        bitmap = wf._wim
        bitmap[:] = wf._all_invalid
        valid_t = wf._all_valid
        start = boundary + 1
        if start == n:
            start = 0
        end = start + count + above_len
        if end <= n:
            bitmap[start:end] = valid_t[start:end]
        else:
            bitmap[start:] = valid_t[start:]
            end -= n
            bitmap[:end] = valid_t[:end]
        return saves

    def handle_underflow(self, tw: ThreadWindows) -> None:
        """The paper's in-place restore (§3.2 / Figure 8)."""
        wf = self.wf
        w = wf.cwp
        if tw.resident != 1 or tw.bottom != w:
            raise WindowGeometryError(
                "underflow with resident=%d bottom=%s cwp=%d"
                % (tw.resident, tw.bottom, w))
        if not tw.store:
            raise WindowGeometryError(
                "thread %d underflowed with an empty backing store" % tw.tid)
        # Return values and frame linkage move to the caller's outs.
        regs = wf._regs
        src = wf._in_base[w]
        dst = wf._out_base[w]
        regs[dst:dst + 8] = regs[src:src + 8]
        # The caller's frame comes back *into the callee's window*.
        frame = tw.store.frames.pop()
        fault_store = self.cpu._fault_store
        if fault_store is not None:
            fault_store("restore", tw, frame, self.counters)
        expected = tw.depth - tw.resident
        if frame.depth >= 0 and frame.depth != expected:
            raise WindowIntegrityError(
                "thread %d restored frame of depth %d at depth %d"
                % (tw.tid, frame.depth, expected),
                thread=tw.tid, frame_depth=frame.depth, expected=expected)
        mid = src + 8
        regs[src:mid] = frame.ins
        regs[mid:mid + 8] = frame.local_regs
        if len(frame.ins) == 8 and len(frame.local_regs) == 8:
            wf._frame_pool.append(frame)
        tw.depth -= 1
        # CWP, bottom, resident, WIM and occupancy all stay put: the
        # thread virtually moved one window down without physical motion.
        cycles = self._underflow_cost
        counters = self.counters
        counters.underflow_traps += 1
        counters.windows_restored += 1
        counters.trap_cycles += cycles
        if counters.keep_trace:
            counters.trap_trace.append(
                TrapRecord("underflow", tw.tid, False, True, cycles))
        if self._tel_trap is not None:
            self._tel_trap.append(cycles)
        if self._tracing:
            self.events.emit("underflow", tid=tw.tid, restored=1,
                             cycles=cycles, inplace=True)

    # -- flush-type context switch (§4.4) ------------------------------------

    def _flush_out_windows(self, out_tw: Optional[ThreadWindows],
                           flush_out: bool) -> int:
        """Write out every window of the suspended thread at switch
        time.  Cheaper per window than the later overflow traps it
        avoids, because the trap entry/exit overhead is not paid."""
        if not flush_out or out_tw is None or not out_tw.has_windows:
            return 0
        assert out_tw.cwp is not None
        out_tw.saved_outs = list(self.wf.outs_of(out_tw.cwp))
        count = 0
        while out_tw.resident:
            self._spill_bottom(out_tw)
            count += 1
        return count
