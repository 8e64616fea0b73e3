"""The fault injector: compiles a :class:`~repro.faults.plan.FaultPlan`
into hook callbacks the CPU, the schemes and the ready queue invoke.

Each hook site keeps an occurrence counter; a spec fires when its
site's counter reaches ``spec.at``.  Every firing is recorded on
:attr:`fired` and, in a traced run, recorded as a ``fault`` event, so
a Perfetto trace shows exactly where the fault landed relative to the
saves, traps and switches around it.

The injector only *perturbs* state — detection is entirely the job of
the existing machinery (argument/signature/return-value verification,
the invariant audit, the geometry checks, the watchdog), which is the
point: a fault the machinery cannot catch and that changes results is
a real robustness bug.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.errors import TransientError
from repro.faults.plan import FaultPlan, FaultSpec

#: marker value written into corrupted registers, shaped like the
#: kernel's signature tuples so it is obvious in dumps and never
#: accidentally equal to real application data
CORRUPT = "fault"

#: extra cycles a ``store_delay`` charges when the spec carries no arg
DEFAULT_STORE_DELAY = 200


class InjectedStoreError(TransientError):
    """A backing-store access failed by injection (transient)."""


class FaultInjector:
    """Stateful executor of one fault plan.

    The kernel wires one injector per run: ``cpu.faults``,
    ``ready.faults`` and (via the CPU) the scheme hooks all point at
    it.  Injectors are single-use — counters and the RNG advance as the
    run proceeds — so replay builds a fresh injector from the plan.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: the kernel's trace recorder; bound by ``attach``
        self.events = None
        #: every spec that fired, with its site and concrete detail
        self.fired: List[Dict[str, Any]] = []
        self._counts: Dict[str, int] = {}
        self._pending: Dict[str, Dict[int, List[FaultSpec]]] = {}
        for spec in plan.specs:
            site = self._pending.setdefault(spec.site, {})
            site.setdefault(spec.at, []).append(spec)
        self._trap_action: Optional[str] = None
        #: armed drop/dup actions a trap consumed; each is one more
        #: ``fault`` event on top of ``fired``
        self.trap_actions_applied = 0

    def attach(self, kernel) -> None:
        """Wire this injector into ``kernel``, hooking **only** the
        sites the plan actually targets.

        The CPU's per-site hook attributes stay ``None`` for every
        other site, so the unfaulted hot path (and the unfaulted sites
        of a faulted run) keep their single ``is None`` check and never
        pay a callable indirection or a site-counter lookup.
        """
        self.events = kernel.events
        # always visible for trap-action consumption and crash bundles
        kernel.cpu.faults = self
        pending = self._pending
        if "save" in pending:
            kernel.cpu._fault_save = self.on_save
        if "restore" in pending:
            kernel.cpu._fault_restore = self.on_restore
        if "store" in pending:
            kernel.cpu._fault_store = self.on_store_access
        if "enqueue" in pending:
            kernel.ready.faults = self

    # -- bookkeeping --------------------------------------------------------

    def _hits(self, site: str) -> List[FaultSpec]:
        """Advance the site counter, return the specs due right now."""
        if site not in self._pending:
            return []
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        return self._pending[site].pop(count, [])

    def _fire(self, spec: FaultSpec, site: str, **detail: Any) -> None:
        record = {"kind": spec.kind, "at": spec.at, "site": site}
        record.update(detail)
        self.fired.append(record)
        events = self.events
        if events is not None and events.active:
            events.emit("fault", tid=detail.get("tid"), fault=spec.kind,
                        at=spec.at, site=site,
                        **{k: v for k, v in detail.items() if k != "tid"})

    # -- hook: cpu.save ------------------------------------------------------

    def on_save(self, cpu, tw) -> None:
        for spec in self._hits("save"):
            kind = spec.kind
            if kind == "register":
                reg = (spec.arg if spec.arg is not None
                       else self.rng.randrange(8))
                cpu.wf.write_out(reg, (CORRUPT, "register", spec.at))
                self._fire(spec, "save", tid=tw.tid, reg=reg)
            elif kind == "wim":
                w = (spec.arg if spec.arg is not None
                     else self.rng.randrange(cpu.n_windows))
                if cpu.wf.is_invalid(w):
                    cpu.wf.mark_valid(w)
                else:
                    cpu.wf.mark_invalid(w)
                self._fire(spec, "save", tid=tw.tid, window=w)
            elif kind == "cwp":
                old = cpu.wf.cwp
                cpu.wf.cwp = cpu.wf.above(old)
                self._fire(spec, "save", tid=tw.tid, old_cwp=old,
                           new_cwp=cpu.wf.cwp)
            elif kind == "trap_drop":
                self._trap_action = "drop"
                self._fire(spec, "save", tid=tw.tid)
            elif kind == "trap_dup":
                self._trap_action = "dup"
                self._fire(spec, "save", tid=tw.tid)

    def take_trap_action(self, tw) -> Optional[str]:
        """Consume the armed drop/dup action at the next overflow trap."""
        action, self._trap_action = self._trap_action, None
        if action is not None:
            self.trap_actions_applied += 1
            if self.events is not None and self.events.active:
                self.events.emit("fault", tid=tw.tid,
                                 fault="trap_" + action,
                                 site="overflow", applied=True)
        return action

    # -- hook: cpu.restore ---------------------------------------------------

    def on_restore(self, cpu, tw) -> None:
        for spec in self._hits("restore"):
            if spec.kind == "retval":
                cpu.wf.write_in(0, (CORRUPT, "retval", spec.at))
                self._fire(spec, "restore", tid=tw.tid)

    # -- hook: backing-store access (spill or underflow restore) ------------

    def on_store_access(self, op: str, tw, frame, counters) -> None:
        for spec in self._hits("store"):
            kind = spec.kind
            if kind == "store_corrupt":
                frame.local_regs[0] = (CORRUPT, "store", spec.at)
                self._fire(spec, "store", tid=tw.tid, op=op,
                           depth=frame.depth)
            elif kind == "store_fail":
                self._fire(spec, "store", tid=tw.tid, op=op)
                raise InjectedStoreError(
                    "injected backing-store failure during %s" % op,
                    thread=tw.tid, op=op, at=spec.at)
            elif kind == "store_delay":
                delay = (spec.arg if spec.arg is not None
                         else DEFAULT_STORE_DELAY)
                counters.record_compute(delay)
                self._fire(spec, "store", tid=tw.tid, op=op,
                           cycles=delay)

    # -- hook: ready-queue enqueue -------------------------------------------

    def on_enqueue(self, queue) -> None:
        for spec in self._hits("enqueue"):
            if spec.kind == "sched":
                order = list(queue._queue)
                self.rng.shuffle(order)
                queue._queue.clear()
                queue._queue.extend(order)
                self._fire(spec, "enqueue",
                           order=[t.tid for t in order])

    # -- reporting -----------------------------------------------------------

    @property
    def armed(self) -> int:
        """How many specs have not fired yet."""
        return sum(len(specs) for site in self._pending.values()
                   for specs in site.values())

    def summary(self) -> str:
        fired = ", ".join("%s@%d/%s" % (f["kind"], f["at"], f["site"])
                          for f in self.fired) or "none"
        return "faults fired: %s (%d armed, plan %s)" % (
            fired, self.armed, self.plan.describe())
