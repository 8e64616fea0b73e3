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
stack-top, exactly as the paper requires.  The context switch is shared
too; the concrete schemes supply the boundary hooks and their Table 2
cost row.
"""

from __future__ import annotations

from typing import Optional

from repro.core.allocation import AllocationPolicy, SimpleAllocation
from repro.core.scheme import Scheme
from repro.metrics.counters import SwitchRecord, TrapRecord
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


class SharingScheme(Scheme):
    """Common trap handling and context switch for SNP and SP."""

    shares_windows = True
    #: True when the boundary is a per-thread PRW (SP); False when it is
    #: the single global reserved window (SNP).  The shared hot paths
    #: branch on it instead of making a virtual call.
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
        #: dispatch recency, read by ``LRUBottomAllocation`` and kept
        #: only under a non-simple policy
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

    def _switch_cost(self, saves: int, restores: int,
                     allocated: bool) -> int:
        """The scheme's Table 2 context-switch cost row."""
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
        if self.records is not None:
            self.records.append(
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
            self._spill_bottom(above[top])
            saves = count = 1
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
        # is the single cyclic span of count + above_len windows from
        # boundary + 1, so the WIM rebuild is one slice of its pattern.
        k = n - 1 - boundary
        wf._wim[:] = wf._wim_spans[count + above_len][k:k + n]
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
        if self.records is not None:
            self.records.append(
                TrapRecord("underflow", tw.tid, False, True, cycles))
        if self._tel_trap is not None:
            self._tel_trap.append(cycles)
        if self._tracing:
            self.events.emit("underflow", tid=tw.tid, restored=1,
                             cycles=cycles, inplace=True)

    # -- context switch ------------------------------------------------------

    def context_switch(self, out_tw: Optional[ThreadWindows],
                       in_tw: ThreadWindows,
                       flush_out: bool = False) -> None:
        """Suspend ``out_tw`` (if any) and dispatch ``in_tw``.

        One body serves both schemes (a once-per-quantum path, so it
        stays inline); where they differ it branches on
        ``_prw_boundary``: at switch-out SNP saves the stack-top outs
        while SP snugs the PRW, and the boundary written at the end is
        the global reserved window (SNP) or the incoming thread's PRW
        (SP).
        """
        wf = self.wf
        regs = wf._regs
        wmap = self.map
        kinds = wmap._kind
        tids = wmap._tid
        prw_boundary = self._prw_boundary
        saves = 0
        restores = 0
        allocated = False
        flushed = self._flush_out_windows(out_tw) if flush_out else 0
        if out_tw is not None and out_tw.resident > 0:
            if prw_boundary:
                # Snug the PRW: move it down to immediately above the
                # stack-top (§4.1) — bookkeeping only.
                snug = wf._above[out_tw.cwp]
                prw = out_tw.prw
                if prw != snug:
                    if kinds[snug] is not FREE:
                        raise WindowGeometryError(
                            "window %d above thread %d's top is %s, "
                            "expected vacated"
                            % (snug, out_tw.tid, wmap.kind(snug)))
                    kinds[prw] = FREE
                    tids[prw] = None
                    kinds[snug] = RESERVED
                    tids[snug] = out_tw.tid
                    out_tw.prw = snug
                self._anchor = out_tw.prw
            else:
                # The stack-top outs always travel through memory (§4.1).
                ob = wf._out_base[out_tw.cwp]
                out_tw.saved_outs = regs[ob:ob + 8]
        if in_tw.resident > 0:
            # SP transfers nothing here: windows, outs and PRW are all
            # in place (the PRW may still drift upward over a free run
            # below, as costless growth headroom).
            if prw_boundary and (in_tw.prw is None
                                 or in_tw.prw != wf._above[in_tw.cwp]):
                raise WindowGeometryError(
                    "thread %d resident without a snug PRW (%s)"
                    % (in_tw.tid, in_tw.prw))
        else:
            allocated = True
            if not self._simple_alloc:
                top = self.allocation.choose_top(self, out_tw, in_tw, need=2)
            elif prw_boundary:
                # simple_top: above the suspended thread's PRW
                anchor = self._anchor
                if out_tw is not None and out_tw.prw is not None:
                    anchor = out_tw.prw
                top = wf._above[anchor]
            else:
                # simple_top: the old global reserved window
                top = self.reserved
            # SNP may take its own reserved window as the new top.
            if kinds[top] is not FREE and (prw_boundary
                                           or top != self.reserved):
                self._spill_bottom(top)
                saves = 1
            # Install one frame at ``top``: the innermost stored frame,
            # or a zeroed one for a fresh thread (every windowless
            # re-entry runs this, straight against the flat file).
            base = wf._in_base[top]
            mid = base + 8
            if in_tw.started:
                frames = in_tw.store.frames
                if not frames:
                    raise WindowGeometryError(
                        "started thread %d is windowless with an empty "
                        "backing store" % in_tw.tid)
                frame = frames.pop()
                fault_store = self.cpu._fault_store
                if fault_store is not None:
                    fault_store("restore", in_tw, frame, self.counters)
                expected = in_tw.depth - in_tw.resident
                if frame.depth >= 0 and frame.depth != expected:
                    raise WindowIntegrityError(
                        "thread %d restored frame of depth %d at depth %d"
                        % (in_tw.tid, frame.depth, expected),
                        thread=in_tw.tid, frame_depth=frame.depth,
                        expected=expected)
                regs[base:mid] = frame.ins
                regs[mid:mid + 8] = frame.local_regs
                if len(frame.ins) == 8 and len(frame.local_regs) == 8:
                    wf._frame_pool.append(frame)
                restores = 1
            else:
                regs[base:base + 16] = [0] * 16
                in_tw.depth = 1
                # a resident thread was dispatched before, so only
                # this path can meet one not yet started
                in_tw.started = True
            in_tw.cwp = top
            in_tw.bottom = top
            in_tw.resident = 1
            kinds[top] = FRAME
            tids[top] = in_tw.tid
        # Place the boundary above the incoming thread's top, granting
        # any free run on the way (the WIM must be recomputed for the
        # new thread regardless, §3); the spill this may need is SP's
        # second one, the worst case of Table 2.  This is
        # _position_boundary inlined and specialized: ``top`` is the
        # thread's stack-top on both paths above, so the FREE-top case
        # (the overflow path) vanishes and ``above_len`` is
        # ``resident - 1``.
        top = in_tw.cwp
        n = wf.n_windows
        above = wf._above
        resident = in_tw.resident
        relocatable = in_tw.prw if prw_boundary else self.reserved
        limit = n - resident
        headroom = self.grant_headroom + 1
        if limit > headroom:
            limit = headroom
        count = 0
        w = above[top]
        while count < limit and (kinds[w] is FREE or w == relocatable):
            count += 1
            w = above[w]
        if not count:
            self._spill_bottom(above[top])
            saves += 1
            count = 1
            # The eviction may have spilled ``in_tw``'s own bottom;
            # the valid span must use the post-spill resident count.
            resident = in_tw.resident
        boundary = top - count
        if boundary < 0:
            boundary += n
        if (relocatable is not None and relocatable != boundary
                and kinds[relocatable] is RESERVED):
            kinds[relocatable] = FREE
            tids[relocatable] = None
        kinds[boundary] = RESERVED
        if prw_boundary:
            tids[boundary] = in_tw.tid
            in_tw.prw = boundary
        else:
            tids[boundary] = None
            self.reserved = boundary
        k = n - 1 - boundary
        wf._wim[:] = wf._wim_spans[count + resident - 1][k:k + n]
        # SNP's outs come back on every switch-in; SP's only after the
        # thread lost its PRW to a spill while suspended.
        saved = in_tw.saved_outs
        if saved is not None:
            ob = wf._out_base[in_tw.cwp]
            regs[ob:ob + 8] = saved
            in_tw.saved_outs = None
        # point the hardware at the incoming thread; stamp the dispatch
        # for the one policy that reads it
        wf.cwp = in_tw.cwp
        self.cpu.current = in_tw
        if not self._simple_alloc:
            seq = self._dispatch_seq + 1
            self._dispatch_seq = seq
            self.last_dispatched[in_tw.tid] = seq
        # one lookup: the cost and the histogram key, cached together
        key = (saves, restores, allocated, flushed)
        cache = self._switch_cost_cache
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = (
                self._switch_cost(saves, restores, allocated)
                + self.cost.flush_cost(flushed),
                (saves + flushed, restores))
        cycles, hist = entry
        # count the switch (one per quantum)
        saves += flushed
        counters = self.counters
        counters.context_switches += 1
        counters.switch_transfer_hist[hist] += 1
        if saves:
            counters.windows_spilled += saves
        if restores:
            counters.windows_restored += restores
        counters.switch_cycles += cycles
        in_tw.stat_switches += 1
        if self.records is not None:
            self.records.append(SwitchRecord(
                out_tw.tid if out_tw is not None else None,
                in_tw.tid, saves, restores, cycles))
        if self._tel_switch is not None:
            self._tel_switch.append(cycles)
        if self._tracing:
            self.events.emit(
                "switch", tid=in_tw.tid,
                out_tid=out_tw.tid if out_tw is not None else None,
                saves=saves, restores=restores, cycles=cycles)

    # -- flush-type context switch (§4.4) ------------------------------------

    def _flush_out_windows(self, out_tw: Optional[ThreadWindows]) -> int:
        """Write out every window of the suspended thread at switch
        time.  Cheaper per window than the later overflow traps it
        avoids, because the trap entry/exit overhead is not paid."""
        if out_tw is None or not out_tw.has_windows:
            return 0
        assert out_tw.cwp is not None
        out_tw.saved_outs = list(self.wf.outs_of(out_tw.cwp))
        count = 0
        while out_tw.resident:
            self._spill_bottom(out_tw.bottom)
            count += 1
        return count
