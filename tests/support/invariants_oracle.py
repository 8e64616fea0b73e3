"""The window-geometry audit as it was before the one-pass rewrite: the
reference :func:`repro.core.invariants.check_invariants` is held to.

It walks the threads in order, claiming each resident frame, private
reserved window and the scheme's global reserved window in a dict,
then checks the map, the running thread's CWP and the WIM, raising on
the first violation.  ``tests/core/test_invariants_differential.py``
plants random corruptions and requires the production audit to raise
the same error type, message and context as this walk, and to pass
exactly when it passes.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.windows.errors import WindowGeometryError
from repro.windows.occupancy import FRAME, FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


def reference_check_invariants(cpu, scheme,
                               threads: Iterable[ThreadWindows]) -> None:
    """Raise :class:`WindowGeometryError` on any violated invariant."""
    wf = cpu.wf
    wmap = cpu.map
    n = wf.n_windows
    threads = list(threads)

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
