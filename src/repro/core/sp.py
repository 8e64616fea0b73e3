"""SP — sharing scheme with private reserved windows (paper §4.5).

Every thread with resident windows keeps its own private reserved
window (PRW) immediately above its stack-top.  The PRW physically holds
the thread's stack-top out registers and is never given away while the
thread sleeps, so **switching to a thread whose windows are resident
transfers nothing at all** — the best case of Table 2 and the reason SP
wins whenever there are enough windows.

At switch-out, if the suspended thread vacated windows above its top
(by plain restores during its quantum), its PRW is moved down to sit
immediately above the current top; the reserved window carries no data,
so this costs only bookkeeping (§4.1).

A windowless thread needs *two* windows (top frame + PRW), allocated
above the suspended thread's PRW under the simple policy — hence the
scheme's worst case of two spills (Table 2's ``2 1`` row).
"""

from __future__ import annotations

from typing import Optional

from repro.core.sharing import SharingScheme
from repro.metrics.counters import SwitchRecord
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


class SPScheme(SharingScheme):
    """Sharing with a private reserved window per thread."""

    kind = "SP"
    _prw_boundary = True

    def __init__(self, cpu, allocation=None):
        super().__init__(cpu, allocation)
        if cpu.n_windows < self.min_windows():
            raise WindowGeometryError(
                "SP needs at least %d windows, got %d"
                % (self.min_windows(), cpu.n_windows))
        #: where to allocate when there is no suspended thread to anchor
        #: on (start of run, or the previous thread exited)
        self._anchor = 0
        self.wf.set_wim(set(range(self.wf.n_windows)))

    # -- boundary hooks -------------------------------------------------------

    def boundary_of(self, tw: ThreadWindows) -> int:
        if tw.prw is None:
            raise WindowGeometryError(
                "thread %d has no PRW while running" % tw.tid)
        return tw.prw

    def simple_top(self, out_tw: Optional[ThreadWindows]) -> int:
        # "The window above the reserved window of the suspended thread
        # is allocated."
        anchor = self._anchor
        if out_tw is not None and out_tw.prw is not None:
            anchor = out_tw.prw
        return self.wf.above(anchor)

    # -- context switch -----------------------------------------------------------

    def context_switch(self, out_tw: Optional[ThreadWindows],
                       in_tw: ThreadWindows,
                       flush_out: bool = False) -> None:
        wf = self.wf
        wmap = self.map
        kinds = wmap._kind
        tids = wmap._tid
        saves = 0
        restores = 0
        allocated = False
        flushed = (self._flush_out_windows(out_tw, flush_out)
                   if flush_out else 0)
        if out_tw is not None and out_tw.has_windows:
            # Snug the PRW: move it down to immediately above the
            # stack-top (§4.1) — bookkeeping only.
            snug = wf._above[out_tw.cwp]
            prw = out_tw.prw
            if prw != snug:
                if kinds[snug] is not FREE:
                    raise WindowGeometryError(
                        "window %d above thread %d's top is %s, expected "
                        "vacated" % (snug, out_tw.tid, wmap.kind(snug)))
                kinds[prw] = FREE
                tids[prw] = None
                kinds[snug] = RESERVED
                tids[snug] = out_tw.tid
                out_tw.prw = snug
            self._anchor = out_tw.prw
        if in_tw.has_windows:
            if in_tw.prw is None or in_tw.prw != wf._above[in_tw.cwp]:
                raise WindowGeometryError(
                    "thread %d resident without a snug PRW (%s)"
                    % (in_tw.tid, in_tw.prw))
            # Nothing is transferred: windows, outs and PRW are all in
            # place; the PRW may drift upward over a free run while the
            # WIM is recomputed (costless growth headroom).
        else:
            allocated = True
            if self._simple_alloc:
                anchor = self._anchor
                if out_tw is not None and out_tw.prw is not None:
                    anchor = out_tw.prw
                top = wf._above[anchor]
            else:
                top = self.allocation.choose_top(self, out_tw, in_tw, need=2)
            if kinds[top] is not FREE:
                saves += self._make_free(top)
            # Install one frame at ``top``: the innermost stored frame,
            # or a zeroed one for a fresh thread (the windowless
            # re-entry path dominates the SP switch mix on small files,
            # so it runs straight against the flat register file)
            regs = wf._regs
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
            in_tw.cwp = top
            in_tw.bottom = top
            in_tw.resident = 1
            kinds[top] = FRAME
            tids[top] = in_tw.tid
        # Place the PRW above the top, granting any free run; a second
        # spill can happen here (the worst case of Table 2's SP rows).
        # _position_boundary, inlined and specialized: ``top`` is the
        # thread's stack-top on both paths above, so the FREE-top case
        # (the overflow path) vanishes and ``above_len`` is
        # ``resident - 1``.
        top = in_tw.cwp
        n = wf.n_windows
        above = wf._above
        resident = in_tw.resident
        relocatable = in_tw.prw
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
            saves += self._make_free(above[top])
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
        tids[boundary] = in_tw.tid
        in_tw.prw = boundary
        bitmap = wf._wim
        bitmap[:] = wf._all_invalid
        valid_t = wf._all_valid
        start = boundary + 1
        if start == n:
            start = 0
        end = start + count + resident - 1
        if end <= n:
            bitmap[start:end] = valid_t[start:end]
        else:
            bitmap[start:] = valid_t[start:]
            end -= n
            bitmap[:end] = valid_t[:end]
        saved = in_tw.saved_outs
        if saved is not None:
            # Only set when the thread lost its PRW to a spill while
            # suspended; the outs move back into the window above top.
            ob = wf._out_base[in_tw.cwp]
            wf._regs[ob:ob + 8] = saved
            in_tw.saved_outs = None
        # point the hardware at the incoming thread; stamp the dispatch
        wf.cwp = in_tw.cwp
        self.cpu.current = in_tw
        in_tw.started = True
        seq = self._dispatch_seq + 1
        self._dispatch_seq = seq
        self.last_dispatched[in_tw.tid] = seq
        key = (saves, restores, allocated, flushed)
        cache = self._switch_cost_cache
        cycles = cache.get(key)
        if cycles is None:
            cycles = (self.cost.sp_switch_cost(saves, restores, allocated)
                      + self.cost.flush_cost(flushed))
            cache[key] = cycles
        # count the switch (one per quantum)
        saves += flushed
        counters = self.counters
        counters.context_switches += 1
        counters.switch_transfer_hist[(saves, restores)] += 1
        counters.windows_spilled += saves
        counters.windows_restored += restores
        counters.switch_cycles += cycles
        in_tw.stat_switches += 1
        if counters.keep_trace:
            counters.switch_trace.append(SwitchRecord(
                out_tw.tid if out_tw is not None else None,
                in_tw.tid, saves, restores, cycles))
        if self._tel_switch is not None:
            self._tel_switch.append(cycles)
        if self._tracing:
            self.events.emit(
                "switch", tid=in_tw.tid,
                out_tid=out_tw.tid if out_tw is not None else None,
                saves=saves, restores=restores, cycles=cycles)

    def retire(self, tw: ThreadWindows) -> None:
        if tw.prw is not None and self._anchor == tw.prw:
            self._anchor = 0
        super().retire(tw)

    def min_windows(self) -> int:
        return 4
