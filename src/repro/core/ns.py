"""NS — the non-sharing scheme (paper §4.5, the conventional baseline).

Windows are never shared between threads: a context switch flushes
every active window of the suspended thread to memory and restores only
the stack-top window of the scheduled thread.  Deeper frames come back
later through ordinary underflow traps — the "hidden overhead" the
paper points out in §6.2.

Trap handling is the *basic* algorithm of §2: a single reserved window;
overflow spills the stack-bottom window (Figure 3); underflow restores
the missing window below the CWP and moves the reserved window down
(Figure 4).
"""

from __future__ import annotations

from typing import Optional

from repro.core.scheme import Scheme
from repro.metrics.counters import SwitchRecord, TrapRecord
from repro.windows.backing_store import Frame
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows

#: Tamir & Sequin transfer-depth default ("transferring one window is
#: the best in most cases", §2).
DEFAULT_TRANSFER_DEPTH = 1


class NSScheme(Scheme):
    """Non-sharing: flush all active windows on every context switch.

    ``transfer_depth`` is the Tamir & Sequin knob the paper cites in
    §2: how many windows each overflow spills / each underflow restores
    ahead.  The paper follows their finding that "transferring one
    window is the best in most cases"; other depths are provided for
    the ablation benchmark that re-verifies the claim on our workload.
    """

    kind = "NS"
    shares_windows = False

    def __init__(self, cpu, transfer_depth: int = DEFAULT_TRANSFER_DEPTH):
        super().__init__(cpu)
        if transfer_depth < 1:
            raise WindowGeometryError(
                "transfer depth must be >= 1, got %d" % transfer_depth)
        self.transfer_depth = transfer_depth
        self.reserved = 0
        self.map.set_reserved(self.reserved)
        self.wf.set_wim_only(self.reserved)
        #: the WIM span pattern with one invalid window: reserved ``r``
        #: is marked by the slice ``[n - 1 - r : 2n - 1 - r]``
        self._wim_one_invalid = self.wf._wim_spans[self.wf.n_windows - 1]
        #: trap costs for 1..transfer_depth windows, cached off the
        #: (frozen) cost model at construction (index 0 unused)
        self._overflow_costs = [0] + [
            self.cost.overflow_cost_multi(k)
            for k in range(1, transfer_depth + 1)]
        self._underflow_costs = [0] + [
            self.cost.underflow_conventional_multi(k)
            for k in range(1, transfer_depth + 1)]

    # -- traps (basic algorithm, §2) ----------------------------------------

    def handle_overflow(self, tw: ThreadWindows) -> None:
        """Figure 3: spill the thread's stack-bottom window(s); the
        last freed window becomes the new reserved window."""
        boundary = self.wf.above(self.wf.cwp)
        if boundary != self.reserved:
            raise WindowGeometryError(
                "NS overflow at window %d but reserved is %d"
                % (boundary, self.reserved))
        if tw.resident < 2:
            raise WindowGeometryError(
                "NS overflow with %d resident frames" % tw.resident)
        spills = min(self.transfer_depth, tw.resident - 1)
        new_reserved = self.reserved
        for __ in range(spills):
            new_reserved = tw.bottom
            self._spill_bottom(new_reserved)
        self.map.set_free(self.reserved)
        self.map.set_reserved(new_reserved)
        self.reserved = new_reserved
        n = self.wf.n_windows
        k = n - 1 - new_reserved
        self.wf._wim[:] = self._wim_one_invalid[k:k + n]
        cycles = self._overflow_costs[spills]
        counters = self.counters
        counters.overflow_traps += 1
        counters.windows_spilled += spills
        counters.trap_cycles += cycles
        if self.records is not None:
            self.records.append(
                TrapRecord("overflow", tw.tid, True, False, cycles))
        if self._tel_trap is not None:
            self._tel_trap.append(cycles)
        if self._tracing:
            self.events.emit("overflow", tid=tw.tid, spilled=spills,
                             cycles=cycles)

    def handle_underflow(self, tw: ThreadWindows) -> None:
        """Figure 4: restore the missing frame(s) into the window(s)
        below the CWP and move the reserved window further down."""
        wf = self.wf
        target = wf.below(wf.cwp)
        if target != self.reserved:
            raise WindowGeometryError(
                "NS underflow at window %d but reserved is %d"
                % (target, self.reserved))
        if tw.resident != 1:
            raise WindowGeometryError(
                "NS underflow with %d resident frames" % tw.resident)
        restores = min(self.transfer_depth, len(tw.store),
                       wf.n_windows - 2)
        if restores < 1:
            raise WindowGeometryError(
                "NS underflow with an empty backing store")
        # Innermost stored frame goes to the target window, the next
        # ones (read-ahead, transfer_depth > 1) below it.
        regs = wf._regs
        in_base = wf._in_base
        below = wf._below
        kinds = self.map._kind
        tids = self.map._tid
        frames = tw.store.frames
        w = target
        for i in range(restores):
            frame = frames.pop()
            expected = tw.depth - 1 - i
            if frame.depth >= 0 and frame.depth != expected:
                raise WindowIntegrityError(
                    "thread %d restored frame of depth %d at depth %d"
                    % (tw.tid, frame.depth, expected))
            base = in_base[w]
            mid = base + 8
            regs[base:mid] = frame.ins
            regs[mid:mid + 8] = frame.local_regs
            if len(frame.ins) == 8 and len(frame.local_regs) == 8:
                wf._frame_pool.append(frame)
            kinds[w] = FRAME
            tids[w] = tw.tid
            last = w
            w = below[w]
        # The callee's window is vacated; the caller's frame now lives
        # in what was the reserved window.
        kinds[wf.cwp] = FREE
        tids[wf.cwp] = None
        wf.cwp = target
        tw.cwp = target
        tw.bottom = last
        tw.resident = restores
        tw.depth -= 1
        new_reserved = below[last]
        if kinds[new_reserved] is not FREE:
            raise WindowGeometryError(
                "NS: window %d below the restored frames is %s"
                % (new_reserved, self.map.kind(new_reserved)))
        kinds[new_reserved] = RESERVED
        tids[new_reserved] = None
        self.reserved = new_reserved
        n = wf.n_windows
        k = n - 1 - new_reserved
        wf._wim[:] = self._wim_one_invalid[k:k + n]
        cycles = self._underflow_costs[restores]
        counters = self.counters
        counters.underflow_traps += 1
        counters.windows_restored += restores
        counters.trap_cycles += cycles
        if self.records is not None:
            self.records.append(
                TrapRecord("underflow", tw.tid, False, True, cycles))
        if self._tel_trap is not None:
            self._tel_trap.append(cycles)
        if self._tracing:
            self.events.emit("underflow", tid=tw.tid, restored=restores,
                             cycles=cycles, inplace=False)

    # -- context switch --------------------------------------------------------

    def context_switch(self, out_tw: Optional[ThreadWindows],
                       in_tw: ThreadWindows,
                       flush_out: bool = False) -> None:
        # NS always flushes; the flush_out hint (§4.4) changes nothing.
        # The whole switch — flush-all, single-frame install, outs
        # restore, WIM rebuild — runs against the flat register file
        # and the raw occupancy arrays: this is the hottest loop of the
        # NS evaluation sweeps (one flush per quantum, §6.2).
        wf = self.wf
        regs = wf._regs
        wmap = self.map
        kinds = wmap._kind
        tids = wmap._tid
        fault_store = self.cpu._fault_store
        saves = 0
        if out_tw is not None and out_tw.resident > 0:
            ob = wf._out_base[out_tw.cwp]
            out_tw.saved_outs = regs[ob:ob + 8]
            # -- flush-all (one per quantum): spill every resident
            # window, bottom first; NS threads never hold a PRW --
            above = wf._above
            in_base = wf._in_base
            pool = wf._frame_pool
            frames = out_tw.store.frames
            bottom = out_tw.bottom
            depth = out_tw.depth - out_tw.resident + 1
            while out_tw.resident > 0:
                base = in_base[bottom]
                mid = base + 8
                if pool:
                    frame = pool.pop()
                    frame.ins[:] = regs[base:mid]
                    frame.local_regs[:] = regs[mid:mid + 8]
                    frame.depth = depth
                else:
                    frame = Frame(regs[base:mid], regs[mid:mid + 8],
                                  depth)
                if fault_store is not None:
                    fault_store("spill", out_tw, frame, self.counters)
                if frames:
                    last_depth = frames[-1].depth
                    if last_depth >= 0 and depth >= 0 \
                            and depth != last_depth + 1:
                        raise WindowIntegrityError(
                            "non-contiguous spill: depth %d pushed "
                            "over depth %d" % (depth, last_depth))
                frames.append(frame)
                kinds[bottom] = FREE
                tids[bottom] = None
                out_tw.resident -= 1
                bottom = above[bottom]
                depth += 1
                saves += 1
            out_tw.cwp = None
            out_tw.bottom = None
        top = wf._above[self.reserved]
        if kinds[top] is not FREE:
            raise WindowGeometryError(
                "NS: window %d above the reserved window is %s after a flush"
                % (top, wmap.kind(top)))
        base = wf._in_base[top]
        mid = base + 8
        restores = 0
        if in_tw.started:
            frames = in_tw.store.frames
            if not frames:
                raise WindowGeometryError(
                    "started thread %d is windowless with an empty "
                    "backing store" % in_tw.tid)
            frame = frames.pop()
            if fault_store is not None:
                fault_store("restore", in_tw, frame, self.counters)
            depth = frame.depth
            if depth >= 0 and depth != in_tw.depth:
                raise WindowIntegrityError(
                    "thread %d restored frame of depth %d at depth %d"
                    % (in_tw.tid, depth, in_tw.depth),
                    thread=in_tw.tid, frame_depth=depth,
                    expected=in_tw.depth)
            regs[base:mid] = frame.ins
            regs[mid:mid + 8] = frame.local_regs
            if len(frame.ins) == 8 and len(frame.local_regs) == 8:
                wf._frame_pool.append(frame)
            restores = 1
        else:
            regs[base:base + 16] = [0] * 16
            in_tw.depth = 1
            in_tw.started = True
        in_tw.cwp = top
        in_tw.bottom = top
        in_tw.resident = 1
        kinds[top] = FRAME
        tids[top] = in_tw.tid
        saved = in_tw.saved_outs
        if saved is not None:
            ob = wf._out_base[top]
            regs[ob:ob + 8] = saved
            in_tw.saved_outs = None
        wf.cwp = top
        self.cpu.current = in_tw
        n = wf.n_windows
        k = n - 1 - self.reserved
        wf._wim[:] = self._wim_one_invalid[k:k + n]
        key = (saves, restores)
        cache = self._switch_cost_cache
        cycles = cache.get(key)
        if cycles is None:
            cycles = self.cost.ns_switch_cost(saves, restores)
            cache[key] = cycles
        # count the switch (one per quantum); the cost key is the
        # histogram key too
        counters = self.counters
        counters.context_switches += 1
        counters.switch_transfer_hist[key] += 1
        counters.windows_spilled += saves
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
