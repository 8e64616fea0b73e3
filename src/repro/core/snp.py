"""SNP — sharing scheme without private reserved windows (paper §4.5).

Windows are shared among threads; a single global reserved window
guards the *running* thread's growth.  Because a suspended thread's
stack-top out registers physically live in the window above its top —
which is not protected while it sleeps — the outs are saved into the
thread context on every switch-out and restored on switch-in (§4.1).

If the newly-scheduled thread has no windows, the simple policy
allocates the window above the suspended thread's windows: the old
reserved window itself is available, so at most one window must be
spilled to re-establish the reserved window above it (§4.1, Table 2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.sharing import SharingScheme
from repro.metrics.counters import SwitchRecord
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


class SNPScheme(SharingScheme):
    """Sharing without PRW: one global reserved window."""

    kind = "SNP"

    def __init__(self, cpu, allocation=None):
        super().__init__(cpu, allocation)
        self.reserved = 0
        self.map.set_reserved(self.reserved)
        self.wf.set_wim(set(range(self.wf.n_windows)))

    # -- boundary hooks ------------------------------------------------------

    def boundary_of(self, tw: ThreadWindows) -> int:
        return self.reserved

    def simple_top(self, out_tw: Optional[ThreadWindows]) -> int:
        # "The window above the suspended thread's is allocated": the
        # old reserved window sits exactly there and is available.
        return self.reserved

    # -- context switch ---------------------------------------------------------

    def context_switch(self, out_tw: Optional[ThreadWindows],
                       in_tw: ThreadWindows,
                       flush_out: bool = False) -> None:
        wf = self.wf
        regs = wf._regs
        wmap = self.map
        kinds = wmap._kind
        tids = wmap._tid
        saves = 0
        flushed = (self._flush_out_windows(out_tw, flush_out)
                   if flush_out else 0)
        if out_tw is not None and out_tw.resident > 0:
            # The stack-top outs always travel through memory (§4.1).
            ob = wf._out_base[out_tw.cwp]
            out_tw.saved_outs = regs[ob:ob + 8]
        if in_tw.has_windows:
            restores = 0
        else:
            top = (self.reserved if self._simple_alloc else
                   self.allocation.choose_top(self, out_tw, in_tw, need=2))
            if top != self.reserved and kinds[top] is not FREE:
                saves += self._make_free(top)
            # Install one frame at ``top``: the innermost stored frame,
            # or a zeroed one for a fresh thread (a per-quantum path:
            # every windowless re-entry runs it).
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
        # Re-site the global reserved window above the incoming
        # thread's top, granting any free run on the way (the WIM must
        # be recomputed for the new thread regardless, §3).
        # _position_boundary, inlined and specialized: ``top`` is the
        # thread's stack-top on both paths above, so the FREE-top case
        # (the overflow path) vanishes and ``above_len`` is
        # ``resident - 1``.
        top = in_tw.cwp
        n = wf.n_windows
        above = wf._above
        resident = in_tw.resident
        relocatable = self.reserved
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
        if relocatable != boundary and kinds[relocatable] is RESERVED:
            kinds[relocatable] = FREE
            tids[relocatable] = None
        kinds[boundary] = RESERVED
        tids[boundary] = None
        self.reserved = boundary
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
            ob = wf._out_base[in_tw.cwp]
            regs[ob:ob + 8] = saved
            in_tw.saved_outs = None
        # point the hardware at the incoming thread; stamp the dispatch
        wf.cwp = in_tw.cwp
        self.cpu.current = in_tw
        in_tw.started = True
        seq = self._dispatch_seq + 1
        self._dispatch_seq = seq
        self.last_dispatched[in_tw.tid] = seq
        key = (saves, restores, flushed)
        cache = self._switch_cost_cache
        cycles = cache.get(key)
        if cycles is None:
            cycles = (self.cost.snp_switch_cost(saves, restores)
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

    def min_windows(self) -> int:
        return 3
