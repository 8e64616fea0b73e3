"""The structured trace-event bus: one stream of timestamped events for
everything the kernel, CPU, schemes, ready queue and streams do.

Every observable action of a run — a ``save``/``restore`` instruction, a
window trap, a context switch, a dispatch, a block/wake, a spawn/retire —
is published as one :class:`TraceEvent` stamped with the simulated cycle
clock.  Consumers subscribe to the bus instead of being hand-wired into
the kernel; the stock ones are:

* :class:`TraceRecorder` (here) — keeps the raw event list and computes
  per-thread cycle attribution and switch-cost percentiles;
* :class:`repro.metrics.perfetto.PerfettoExporter` — Chrome trace-event
  JSON for ``chrome://tracing`` / Perfetto.

The bus is **disabled by default**: publishers guard every emit with a
single ``if bus.active`` check (or a mirrored flag), so an
uninstrumented run pays one no-op branch per event site and allocates
nothing.  A traced run keeps the kernel's batched loop, whose emit
sites read the flag once per quantum.  The RunReport observers still
do not subscribe, because per-event fan-out is far dearer than a
quantum hook: :class:`EventTally` (here) and the paper-§5 analyses
(:class:`repro.metrics.behavior.BehaviorTracker`,
:class:`repro.metrics.tracing.OccupancyTimeline`) are fed once per
scheduling quantum by the kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

#: every event kind the runtime publishes, in rough lifecycle order
EVENT_KINDS = (
    "spawn",        # thread created                 (tid, name)
    "enqueue",      # thread entered the ready queue (tid, reason, position)
    "switch",       # scheme context switch          (tid=in, out_tid, saves,
                    #                                 restores, cycles)
    "dispatch",     # thread starts a quantum        (tid, depth)
    "save",         # save instruction retired       (tid, window, depth)
    "restore",      # restore instruction retired    (tid, window, depth,
                    #                                 inplace)
    "overflow",     # window overflow trap           (tid, spilled, cycles)
    "underflow",    # window underflow trap          (tid, restored, cycles,
                    #                                 inplace)
    "block",        # thread blocked                 (tid, on, op)
    "wake",         # thread woken                   (tid, on, op)
    "yield",        # thread yielded the CPU         (tid)
    "retire",       # thread finished                (tid, name)
    "stream_close", # stream closed                  (stream, written, read)
    "fault",        # injected fault fired           (tid, kind, at, site)
    "run_end",      # simulation finished            ()
)


@dataclass
class TraceEvent:
    """One structured event, stamped with the simulated cycle clock."""

    kind: str
    cycle: int
    tid: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        out = {"kind": self.kind, "cycle": self.cycle}
        if self.tid is not None:
            out["tid"] = self.tid
        out.update(self.attrs)
        return out

    def __str__(self) -> str:
        attrs = " ".join("%s=%s" % (k, v) for k, v in self.attrs.items())
        tid = "-" if self.tid is None else str(self.tid)
        return "%10d  tid=%-3s %-12s %s" % (self.cycle, tid, self.kind,
                                            attrs)


class EventBus:
    """Publish/subscribe fan-out for :class:`TraceEvent`.

    ``active`` is maintained as a plain attribute so the hot path in the
    kernel and CPU is a single attribute check when nobody listens.
    Publishers that emit on every simulated step go one cheaper: they
    register an *activity watcher* (:meth:`watch_activity`) and mirror
    ``active`` into a ``_tracing`` boolean of their own, turning the
    per-emit-site guard into one load on ``self`` with no cross-object
    hop.  ``clock`` supplies the simulated cycle stamp (the kernel binds
    it to ``counters.total_cycles``).
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._subscribers: List[tuple] = []
        self._watchers: List[Callable[[bool], None]] = []
        self.active = False
        self.clock = clock if clock is not None else (lambda: 0)

    def watch_activity(self, watcher: Callable[[bool], None]):
        """Register ``watcher(active)``; called immediately with the
        current state and again on every subscribe/unsubscribe edge."""
        self._watchers.append(watcher)
        watcher(self.active)
        return watcher

    def _set_active(self, active: bool) -> None:
        if active == self.active:
            return
        self.active = active
        for watcher in self._watchers:
            watcher(active)

    def subscribe(self, consumer) -> Any:
        """Attach ``consumer`` (a callable, or an object with an
        ``on_event(event)`` method); returns it for later unsubscribe."""
        fn = getattr(consumer, "on_event", None)
        if fn is None:
            fn = consumer
        self._subscribers.append((consumer, fn))
        self._set_active(True)
        return consumer

    def unsubscribe(self, consumer) -> None:
        self._subscribers = [(c, f) for c, f in self._subscribers
                             if c is not consumer]
        self._set_active(bool(self._subscribers))

    def emit(self, kind: str, tid: Optional[int] = None,
             **attrs) -> TraceEvent:
        """Build an event stamped with the current clock and fan it out."""
        event = TraceEvent(kind, self.clock(), tid, attrs)
        for __, fn in self._subscribers:
            fn(event)
        return event


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = int(round(q / 100.0 * (len(ordered) - 1)))
    return float(ordered[rank])


def switch_cost_stats(costs: List[int]) -> Dict[str, float]:
    """Count / mean / p50 / p95 / p99 / max of a list of switch costs."""
    if not costs:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    return {
        "count": len(costs),
        "mean": sum(costs) / len(costs),
        "p50": percentile(costs, 50),
        "p95": percentile(costs, 95),
        "p99": percentile(costs, 99),
        "max": float(max(costs)),
    }


class TraceRecorder:
    """Bus subscriber that keeps every event and derives run statistics."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- filtering ---------------------------------------------------------

    def filter(self, kinds: Optional[Iterable[str]] = None,
               tid: Optional[int] = None,
               start: Optional[int] = None,
               end: Optional[int] = None) -> List[TraceEvent]:
        """Events matching every given constraint."""
        kindset = set(kinds) if kinds is not None else None
        out = []
        for e in self.events:
            if kindset is not None and e.kind not in kindset:
                continue
            if tid is not None and e.tid != tid:
                continue
            if start is not None and e.cycle < start:
                continue
            if end is not None and e.cycle > end:
                continue
            out.append(e)
        return out

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    # -- derived statistics ------------------------------------------------

    def per_thread_cycles(self) -> Dict[int, int]:
        """Cycles attributed to each thread: the time between its
        ``dispatch`` and the moment it stops running (the next
        ``block``/``yield``/``retire``/``switch``-out or the run end)."""
        totals: Dict[int, int] = {}
        current: Optional[int] = None
        started = 0
        last_cycle = 0
        for e in self.events:
            last_cycle = e.cycle
            if e.kind == "dispatch":
                if current is not None:
                    totals[current] = (totals.get(current, 0)
                                       + e.cycle - started)
                current = e.tid
                started = e.cycle
            elif e.kind in ("block", "yield", "retire", "run_end"):
                if current is not None and (e.tid == current
                                            or e.kind == "run_end"):
                    totals[current] = (totals.get(current, 0)
                                       + e.cycle - started)
                    current = None
        if current is not None:
            totals[current] = totals.get(current, 0) + last_cycle - started
        return totals

    def switch_costs(self) -> List[int]:
        """Cycle cost of every recorded context switch."""
        return [e.attrs.get("cycles", 0) for e in self.events
                if e.kind == "switch"]

    def switch_cost_stats(self) -> Dict[str, float]:
        """Mean / p50 / p95 / p99 / max of the switch-cost distribution."""
        return switch_cost_stats(self.switch_costs())

    def trap_timeline(self) -> List[TraceEvent]:
        """Every overflow/underflow trap, in cycle order."""
        return self.filter(kinds=("overflow", "underflow"))


class EventTally:
    """The RunReport ``events`` statistics, tallied without the bus.

    Arm with ``kernel.tally = EventTally()`` before the first spawn.
    The kernel reports every scheduling quantum to it — the dispatch
    (cycle and the cost of the switch into it) and the block, yield or
    retire that stopped it — at the points where it would emit those
    events, on every loop, so the run keeps the batched loop.
    :meth:`summary` rebuilds exactly what a :class:`TraceRecorder`
    subscribed for the same run reports: ``total``, ``by_kind``,
    ``switch_cost`` and ``per_thread_cycles``.
    """

    def __init__(self):
        self.dispatches = 0
        #: quanta stopped by each event kind
        self.stops: Dict[str, int] = {"block": 0, "yield": 0, "retire": 0}
        #: cycle cost of every context switch, in order
        self.switch_costs: List[int] = []
        #: tid -> cycles between its dispatches and its stops
        self.per_thread_cycles: Dict[int, int] = {}
        #: streams closed (set by the kernel)
        self.stream_closes = 0
        #: ``fault`` events: injector firings plus applied trap actions
        #: (set at run end)
        self.faults = 0
        self.finished = False
        self._tid = 0
        self._start = 0

    # -- kernel hooks -------------------------------------------------------

    def on_dispatch(self, tid: int, cycle: int,
                    switch_cost: Optional[int]) -> None:
        """A quantum starts; ``switch_cost`` is None when the thread
        resumed with no context switch."""
        self.dispatches += 1
        if switch_cost is not None:
            self.switch_costs.append(switch_cost)
        self._tid = tid
        self._start = cycle

    def on_stop(self, kind: str, cycle: int) -> None:
        """The running quantum ended in ``kind`` (block/yield/retire);
        a completed run stops every quantum it dispatched."""
        self.stops[kind] += 1
        tid = self._tid
        self.per_thread_cycles[tid] = (
            self.per_thread_cycles.get(tid, 0) + cycle - self._start)

    def finish(self, faults: int) -> None:
        self.faults = faults
        self.finished = True

    # -- the report section ----------------------------------------------

    def by_kind(self, result) -> Dict[str, int]:
        """Event counts per kind for the finished run ``result``.

        Window instructions and traps come from its counters.  The rest
        follow from the quanta and two invariants of a completed run:
        every block parks its thread on exactly one waiter list and
        every wake takes one off, with no thread left blocked at the
        end (so wakes equal blocks); and a thread enters the ready
        queue exactly when it is spawned, woken or yields.
        """
        counters = result.counters
        spawns = len(result.threads)
        blocks = self.stops["block"]
        counts = {
            "spawn": spawns,
            "enqueue": spawns + blocks + self.stops["yield"],
            "switch": len(self.switch_costs),
            "dispatch": self.dispatches,
            "save": counters.saves,
            "restore": counters.restores,
            "overflow": counters.overflow_traps,
            "underflow": counters.underflow_traps,
            "block": blocks,
            "wake": blocks,
            "yield": self.stops["yield"],
            "retire": self.stops["retire"],
            "stream_close": self.stream_closes,
            "fault": self.faults,
            "run_end": int(self.finished),
        }
        return {kind: n for kind, n in sorted(counts.items()) if n}

    def summary(self, result) -> Optional[Dict[str, Any]]:
        """The RunReport ``events`` section (None when nothing ran)."""
        by_kind = self.by_kind(result)
        if not by_kind:
            return None
        return {
            "total": sum(by_kind.values()),
            "by_kind": by_kind,
            "switch_cost": switch_cost_stats(self.switch_costs),
            "per_thread_cycles": {str(tid): n for tid, n
                                  in self.per_thread_cycles.items()},
        }
