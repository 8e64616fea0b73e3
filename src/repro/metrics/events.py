"""The structured trace: one list of timestamped events for everything
the kernel, CPU, schemes and ready queue do.

Every observable action of a traced run — a ``save``/``restore``
instruction, a window trap, a context switch, a dispatch, a block/wake,
a spawn/retire, a stream close — is recorded as one :class:`TraceEvent`
stamped with the simulated cycle clock, in the order it happened.  The
kernel is cooperative, so a run's event sequence is fixed by the run,
and every consumer reads the list after the run:

* the trace CLI (:mod:`repro.metrics.trace`) — the raw event listing;
* :class:`repro.metrics.perfetto.PerfettoExporter` — Chrome trace-event
  JSON for ``chrome://tracing`` / Perfetto.

Tracing is **off by default**: publishers guard every emit with one
load of their own ``_tracing`` flag, so an untraced run pays one no-op
branch per event site and allocates nothing; ``Kernel.enable_tracing``
sets the flags before the run.  The RunReport observer
(:class:`repro.metrics.observer.RunObserver`) does not read events,
because one event per site is far dearer than one record per quantum:
the kernel records each scheduling quantum once in the observer's
record log, from which the report's ``events`` section is computed.
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


#: the event a quantum's stop state stands for in a kernel record log;
#: a quantum an error or the step budget cut short is still
#: ``running`` and stops nothing.  The keys spell out the
#: :mod:`repro.runtime.thread` states, because the kernel imports this
#: module (``tests/metrics/test_events.py`` pins them to the constants)
STOP_KINDS = {"blocked": "block", "ready": "yield", "done": "retire"}


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
    """The event list of a traced run.

    Every kernel, CPU, scheme and ready queue shares one recorder
    (``kernel.events``).  It records nothing until tracing is enabled
    before the run (``Kernel.enable_tracing``), which sets ``active``
    and each publisher's ``_tracing`` flag; from then on every guarded
    emit site appends one event, stamped by ``clock`` (the kernel binds
    it to ``counters.total_cycles``).  Consumers read :attr:`events`
    after the run.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self.events: List[TraceEvent] = []
        self.active = False
        self.clock = clock if clock is not None else (lambda: 0)

    def emit(self, kind: str, tid: Optional[int] = None,
             **attrs) -> TraceEvent:
        """Record an event stamped with the current clock."""
        event = TraceEvent(kind, self.clock(), tid, attrs)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

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

    def trap_timeline(self) -> List[TraceEvent]:
        """Every overflow/underflow trap, in cycle order."""
        return self.filter(kinds=("overflow", "underflow"))
