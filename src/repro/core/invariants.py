"""Whole-system invariant checks: the window-geometry audit.

These verify the geometric claims DESIGN.md (and the paper's §3) rely
on: contiguous per-thread regions, exactly one reserved window per
boundary, WIM matching the running thread, and occupancy/thread-state
agreement.  Property tests call :func:`check_invariants` after every
step, and the kernel calls it after every dispatch, call and return
when the audit is on (``Kernel(audit=True)``, which every fuzz trial
arms).

The check runs in one pass: it builds the occupancy map the threads'
state implies (each thread's resident run from ``cwp``, its private
reserved window, the scheme's global reserved window) and compares it
with the real map in one list compare, then checks the running
thread's CWP and the WIM.  Only when that fails does it walk the state
invariant by invariant (:func:`_walk`) to raise the first violation
with its full diagnosis; a state the one-pass check rejects but the
walk accepts (a free window with a stale thread id, which the walk
does not look at) passes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.windows.errors import WindowGeometryError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows

_ABSENT = object()


def check_invariants(cpu, scheme, threads: Iterable[ThreadWindows]) -> None:
    """Raise :class:`WindowGeometryError` on any violated invariant."""
    if type(threads) is not list:
        threads = list(threads)
    try:
        if _consistent(cpu, scheme, threads):
            return
    except (TypeError, IndexError):
        pass  # malformed state: the walk raises the diagnosis
    _walk(cpu, scheme, threads)


def _consistent(cpu, scheme, threads: List[ThreadWindows]) -> bool:
    """One pass over the state; True only when every invariant holds
    (False says nothing about which one failed)."""
    wf = cpu.wf
    wmap = cpu.map
    n = wf.n_windows
    below = wf._below
    kinds = [FREE] * n
    tids = [None] * n
    for tw in threads:
        tid = tw.tid
        resident = tw.resident
        frames = tw.store.frames
        if tw.depth != resident + len(frames):
            return False
        w = tw.cwp
        if resident > 0:
            bottom = tw.bottom
            if (w is None or bottom is None or not 0 <= w < n
                    or (bottom - w) % n + 1 != resident):
                return False
            for __ in range(resident):
                if kinds[w] is not FREE:
                    return False
                kinds[w] = FRAME
                tids[w] = tid
                w = below[w]
        elif resident or w is not None or tw.bottom is not None:
            return False
        prw = tw.prw
        if prw is not None:
            if resident <= 0 or not 0 <= prw < n or kinds[prw] is not FREE:
                return False
            kinds[prw] = RESERVED
            tids[prw] = tid
        depth = 1
        for frame in frames:
            if frame.depth != depth and frame.depth >= 0:
                return False
            depth += 1
    reserved = getattr(scheme, "reserved", _ABSENT)
    if reserved is not _ABSENT:
        if not 0 <= reserved < n or kinds[reserved] is not FREE:
            return False
        kinds[reserved] = RESERVED
    if kinds != wmap._kind or tids != wmap._tid:
        return False
    running = cpu.current
    if running is not None:
        w = running.cwp
        if w != wf.cwp:
            return False
        wim = wf._wim
        if scheme.shares_windows:
            for __ in range(running.resident):
                if wim[w]:
                    return False
                w = below[w]
            if not wim[scheme.boundary_of(running)]:
                return False
        elif not wim[reserved] or wim.count(0) != n - 1:
            return False
    return True


def _walk(cpu, scheme, threads: List[ThreadWindows]) -> None:
    """The invariants one at a time, in a fixed order: raises the first
    violation found with its full diagnosis."""
    wf = cpu.wf
    wmap = cpu.map
    n = wf.n_windows

    claimed: Dict[int, str] = {}

    for tw in threads:
        tw.check_consistency(n)
        for w in tw.resident_windows(n):
            if w in claimed:
                raise WindowGeometryError(
                    "window %d claimed twice (%s and thread %d)"
                    % (w, claimed[w], tw.tid),
                    window=w, thread=tw.tid, claimed_by=claimed[w])
            claimed[w] = "thread %d frame" % tw.tid
            kind, tid = wmap.entry(w)
            if kind != FRAME or tid != tw.tid:
                raise WindowGeometryError(
                    "window %d should be thread %d's frame, map says %s/%s"
                    % (w, tw.tid, kind, tid),
                    window=w, thread=tw.tid, map_kind=kind, map_tid=tid)
        if tw.prw is not None:
            if not tw.has_windows:
                raise WindowGeometryError(
                    "thread %d keeps a PRW with no resident frames" % tw.tid,
                    thread=tw.tid, prw=tw.prw)
            if tw.prw in claimed:
                raise WindowGeometryError(
                    "window %d claimed twice (%s and thread %d PRW)"
                    % (tw.prw, claimed[tw.prw], tw.tid),
                    window=tw.prw, thread=tw.tid,
                    claimed_by=claimed[tw.prw])
            claimed[tw.prw] = "thread %d PRW" % tw.tid
            kind, tid = wmap.entry(tw.prw)
            if kind != RESERVED or tid != tw.tid:
                raise WindowGeometryError(
                    "window %d should be thread %d's PRW, map says %s/%s"
                    % (tw.prw, tw.tid, kind, tid),
                    window=tw.prw, thread=tw.tid, map_kind=kind,
                    map_tid=tid)
        # Backing-store frames must be contiguous in depth, outermost
        # first, directly below the resident frames.
        for i, frame in enumerate(tw.store.frames):
            if frame.depth >= 0 and frame.depth != i + 1:
                raise WindowGeometryError(
                    "thread %d stored frame %d has depth %d"
                    % (tw.tid, i, frame.depth),
                    thread=tw.tid, frame=i, depth=frame.depth,
                    expected_depth=i + 1)

    # Scheme-global reserved window bookkeeping.
    if hasattr(scheme, "reserved"):
        w = scheme.reserved
        if w in claimed:
            raise WindowGeometryError(
                "global reserved window %d also %s" % (w, claimed[w]),
                window=w, claimed_by=claimed[w])
        claimed[w] = "global reserved"
        if wmap.kind(w) != RESERVED or wmap.tid(w) is not None:
            raise WindowGeometryError(
                "global reserved window %d is %s in the map"
                % (w, wmap.kind(w)), window=w, map_kind=wmap.kind(w))

    # Every unclaimed window must be free in the map.
    for w in range(n):
        if w not in claimed and wmap.kind(w) != FREE:
            raise WindowGeometryError(
                "window %d is %s/%s in the map but unclaimed"
                % (w, wmap.kind(w), wmap.tid(w)),
                window=w, map_kind=wmap.kind(w), map_tid=wmap.tid(w))

    # The running thread's CWP must match the hardware, and WIM must
    # invalidate everything outside its valid region.
    running = cpu.current
    if running is not None:
        if running.cwp != wf.cwp:
            raise WindowGeometryError(
                "running thread %d cwp %s != hardware cwp %d"
                % (running.tid, running.cwp, wf.cwp),
                thread=running.tid, thread_cwp=running.cwp,
                hardware_cwp=wf.cwp)
        if scheme.shares_windows:
            for w in running.resident_windows(n):
                if wf.is_invalid(w):
                    raise WindowGeometryError(
                        "running thread %d's window %d is invalid in WIM"
                        % (running.tid, w), thread=running.tid, window=w)
            boundary = scheme.boundary_of(running)
            if not wf.is_invalid(boundary):
                raise WindowGeometryError(
                    "boundary window %d is valid in WIM" % boundary,
                    thread=running.tid, window=boundary)
        else:
            if wf.wim != {scheme.reserved}:
                raise WindowGeometryError(
                    "NS WIM %s != {reserved %d}"
                    % (sorted(wf.wim), scheme.reserved),
                    wim=sorted(wf.wim), reserved=scheme.reserved)
