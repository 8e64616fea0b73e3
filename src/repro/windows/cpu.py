"""The simulated processor: executes ``save``/``restore``, raising window
traps to the attached management scheme.

This class plays the role of the paper's "register window emulator"
(§6.1): ordinary computation runs at full (host) speed and only the
window-related operations are interpreted, with a cycle counter charged
from the cost model.  The number of physical windows is a constructor
parameter, which is how the evaluation sweeps 4–32 windows.

``save``/``restore`` are the hottest functions of the whole simulator
(one per procedure call/return of every simulated thread), so they are
written against the flat register file directly: geometry comes from
the precomputed ``_above``/``_below`` tables, the trap check reads the
WIM bitmap, counter updates are inline scalar bumps plus a batched
per-thread tally (folded at run end), trace emits hide behind the
``_tracing`` flag (:meth:`WindowCPU.enable_tracing`), and fault hooks
are per-site attributes that stay ``None`` unless a fault plan
actually targets the site
(:meth:`repro.faults.inject.FaultInjector.attach`).
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.metrics.counters import Counters
from repro.metrics.events import TraceRecorder
from repro.windows.errors import WindowGeometryError
from repro.windows.occupancy import FRAME, FREE, WindowMap
from repro.windows.thread_windows import ThreadWindows
from repro.windows.window_file import WindowFile


class WindowCPU:
    """Window file + occupancy map + counters, with scheme trap hooks."""

    def __init__(self, n_windows: int, cost_model=None,
                 counters: Optional[Counters] = None):
        from repro.core.costs import CostModel  # local: avoid import cycle

        self.wf = WindowFile(n_windows)
        self.map = WindowMap(n_windows)
        self.counters = counters if counters is not None else Counters()
        self.cost = cost_model if cost_model is not None else CostModel()
        #: the run's trace, stamped with this CPU's cycle clock; it
        #: records nothing until ``enable_tracing``
        counters = self.counters
        self.events = TraceRecorder(clock=lambda: counters.total_cycles)
        #: guards this CPU's emit sites (see ``enable_tracing``)
        self._tracing = False
        #: a weak reference to the bound scheme (see ``scheme``)
        self._scheme = None
        #: the thread currently executing on this CPU
        self.current: Optional[ThreadWindows] = None
        #: optional :class:`repro.faults.inject.FaultInjector`; kept for
        #: trap-action consumption and crash bundles.  The per-site
        #: hooks below are bound by ``FaultInjector.attach`` only when
        #: the plan has specs for that site, so an unfaulted run (and a
        #: run faulted elsewhere) pays one ``is None`` check per site.
        self.faults = None
        self._fault_save = None
        self._fault_restore = None
        self._fault_store = None
        #: per-instruction costs, cached off the (frozen) cost model
        self._save_instr_cost = self.cost.save_instr
        self._restore_instr_cost = self.cost.restore_instr

    def enable_tracing(self) -> TraceRecorder:
        """Record this CPU's and its scheme's events in ``events`` from
        now on; returns the recorder."""
        self.events.active = self._tracing = True
        if self.scheme is not None:
            self.scheme._tracing = True
        return self.events

    @property
    def n_windows(self) -> int:
        return self.wf.n_windows

    @property
    def scheme(self):
        """The bound scheme, or None.  The scheme holds this CPU, so the
        CPU holds it weakly: with no reference cycle between them, both
        are freed by reference counting when their owner (a kernel, a
        machine) is."""
        return self._scheme() if self._scheme is not None else None

    def bind_scheme(self, scheme) -> None:
        if self._scheme is not None and self._scheme() is not scheme:
            raise WindowGeometryError("a scheme is already bound to this CPU")
        self._scheme = weakref.ref(scheme)

    # -- the two window instructions --------------------------------------

    def save(self, tw: ThreadWindows) -> None:
        """Execute a ``save``: enter a new window for a procedure call.

        May raise a (simulated) window overflow trap, handled by the
        bound scheme, whose postcondition is that the target window is
        valid and free.
        """
        if self.current is not tw or tw.cwp != self.wf.cwp:
            self._check_running(tw)
        wf = self.wf
        if self._fault_save is not None:
            self._fault_save(self, tw)
        counters = self.counters
        counters.saves += 1
        counters.call_cycles += self._save_instr_cost
        tw.stat_saves += 1
        target = wf._above[wf.cwp]
        if wf._wim[target]:
            faults = self.faults
            action = (faults.take_trap_action(tw)
                      if faults is not None else None)
            if action != "drop":
                handle_overflow = self._scheme().handle_overflow
                handle_overflow(tw)
                if action == "dup":
                    handle_overflow(tw)
                target = wf._above[wf.cwp]
                if wf._wim[target]:
                    raise WindowGeometryError(
                        "overflow handler left target window %d invalid"
                        % target, window=target, thread=tw.tid)
            # a dropped trap falls through: the save runs straight into
            # the invalid window, exactly the hardware failure mode
        wf.cwp = target
        tw.cwp = target
        tw.resident += 1
        tw.depth += 1
        wmap = self.map
        wmap._kind[target] = FRAME
        wmap._tid[target] = tw.tid
        if self._tracing:
            self.events.emit("save", tid=tw.tid, window=target,
                             depth=tw.depth)

    def restore(self, tw: ThreadWindows) -> bool:
        """Execute a ``restore``: return to the caller's window.

        May raise a (simulated) window underflow trap.  Returns True if
        the trap handler performed an in-place restore (the CWP did not
        physically move) — callers never need this, but tests do.
        """
        if self.current is not tw or tw.cwp != self.wf.cwp:
            self._check_running(tw)
        if tw.depth <= 1:
            raise WindowGeometryError(
                "thread %d executed restore at depth %d" % (tw.tid, tw.depth))
        if self._fault_restore is not None:
            self._fault_restore(self, tw)
        wf = self.wf
        counters = self.counters
        counters.restores += 1
        counters.call_cycles += self._restore_instr_cost
        tw.stat_restores += 1
        target = wf._below[wf.cwp]
        if wf._wim[target]:
            self._scheme().handle_underflow(tw)
            if self._tracing:
                self.events.emit("restore", tid=tw.tid, window=wf.cwp,
                                 depth=tw.depth, inplace=True)
            return True
        # Plain restore: the callee's window is vacated.
        freed = wf.cwp
        wmap = self.map
        wmap._kind[freed] = FREE
        wmap._tid[freed] = None
        wf.cwp = target
        tw.cwp = target
        tw.resident -= 1
        tw.depth -= 1
        if self._tracing:
            self.events.emit("restore", tid=tw.tid, window=target,
                             depth=tw.depth, freed=freed, inplace=False)
        return False

    # -- register accessors (current window) ------------------------------

    def write_local(self, i: int, value) -> None:
        self.wf.write_local(i, value)

    def read_local(self, i: int):
        return self.wf.read_local(i)

    def write_in(self, i: int, value) -> None:
        self.wf.write_in(i, value)

    def read_in(self, i: int):
        return self.wf.read_in(i)

    def write_out(self, i: int, value) -> None:
        self.wf.write_out(i, value)

    def read_out(self, i: int):
        return self.wf.read_out(i)

    def _check_running(self, tw: ThreadWindows) -> None:
        if self.scheme is None:
            raise WindowGeometryError("no scheme bound to the CPU")
        if self.current is not tw:
            raise WindowGeometryError(
                "thread %d is not the running thread" % tw.tid)
        if tw.cwp != self.wf.cwp:
            raise WindowGeometryError(
                "thread %d cwp desynchronised (%s != %s)"
                % (tw.tid, tw.cwp, self.wf.cwp))
