"""Window traces: record a run's window instructions once, replay them
through any scheme and window count.

Under FIFO scheduling no kernel decision reads a cycle count or the
window state (DESIGN §7.1), so every (scheme, windows) point of one
workload runs the same quanta, in the same order, with the same saves,
restores and compute charges.  A :class:`WindowTrace` armed on an
observed run records those per quantum; :meth:`WindowTrace.replay`
then drives another kernel's scheme and
:class:`~repro.windows.cpu.WindowCPU` through them without running a
guest generator or a stream op.  The replayed run's counters, record
log and timeline are the ones executing it would give, so its
RunReport is byte-identical.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.runtime.errors import RuntimeFault
from repro.runtime.kernel import (
    TRACE_FLUSH,
    TRACE_RESTORE,
    TRACE_SAVE,
    RunResult,
)
from repro.runtime.thread import BLOCKED, DONE, READY
from repro.windows.thread_windows import ThreadWindows

#: the states a quantum stops in, by code (a quantum the step budget
#: cut stops in none, so a cut run does not replay)
_STOPS = (READY, BLOCKED, DONE)
_STOP_CODE = {state: code for code, state in enumerate(_STOPS)}

#: ints per quantum in ``WindowTrace.quanta``
_FIELDS = 7


class ThreadFacts:
    """What a RunReport reads of one recorded thread: its
    :class:`~repro.runtime.thread.SimThread` without the generators,
    windows and streams, so a trace pickles into another process."""

    __slots__ = ("tid", "name", "state", "calls", "returns", "blocks",
                 "result")

    def __init__(self, thread):
        for name in self.__slots__:
            setattr(self, name, getattr(thread, name))


class WindowTrace:
    """The window trace of one observed, completed run; it pickles, so
    a recording can replay in another process."""

    __slots__ = ("ops", "quanta", "stream_closes", "threads", "steps",
                 "_observer")

    def __init__(self):
        #: one op code per window instruction or flush hint, in run order
        self.ops = bytearray()
        #: per quantum, in dispatch order: its thread's tid, 1 if the
        #: dispatch switched (0: the thread had just suspended), the
        #: lowest and highest call depth it reached, its stop state's
        #: code, where its ops end, and ``counters.compute_cycles`` at
        #: its end
        self.quanta = array("q")
        #: streams the run closed (its observer's count)
        self.stream_closes = 0
        #: the recorded run's threads and step count, set when the run
        #: completes (None: not completed)
        self.threads: Optional[List[ThreadFacts]] = None
        self.steps = 0
        self._observer = None

    def attach(self, kernel) -> "WindowTrace":
        """Record ``kernel``'s run: arm it after its RunObserver, before
        its first spawn.  Only a run whose trace is independent of the
        scheme and the window count records: FIFO, and no fault plan,
        audit, watchdog or register verification."""
        if (kernel._observer is None or not kernel.ready._fifo
                or kernel.faults is not None or kernel.audit
                or kernel._watchdog is not None
                or kernel.verify_registers):
            raise RuntimeFault(
                "a window trace records only an observed FIFO run "
                "without faults, audit, watchdog or register "
                "verification")
        kernel._trace = self
        self._observer = kernel._observer
        return self

    def end_quantum(self, tid: int, switched: bool, low: int, high: int,
                    state: str, compute_cycles: int) -> None:
        """Record the quantum the kernel is logging."""
        self.quanta.extend((tid, switched, low, high,
                            _STOP_CODE.get(state, -1), len(self.ops),
                            compute_cycles))

    def finish(self, result: RunResult) -> None:
        """The recorded run completed with ``result``."""
        self.stream_closes = self._observer.stream_closes
        self._observer = None
        self.threads = [ThreadFacts(thread) for thread in result.threads]
        self.steps = result.steps

    def replay(self, kernel) -> RunResult:
        """Run the recorded quanta on ``kernel`` (fresh, with a
        RunObserver attached, no thread spawned), through its scheme and
        CPU; returns the replayed run's RunResult.

        Per quantum it switches exactly where the dispatch loop does (no
        switch into the thread that just suspended, and no outgoing
        thread after a retire), logs and snapshots the dispatch as the
        loop does, executes the recorded saves and restores one by one
        on the CPU, charges the compute cycles and retires a finished
        thread.  The threads' own facts (state, calls, returns, blocks,
        result) and the step count are the recorded run's."""
        quanta = self.quanta
        if self.threads is None or -1 in quanta[4::_FIELDS]:
            raise RuntimeFault("only a completed, uncut recording replays")
        observer = kernel._observer
        cpu = kernel.cpu
        counters = kernel.counters
        scheme = kernel.scheme
        windows = []
        for thread in self.threads:
            tw = ThreadWindows(thread.tid)
            scheme.register(tw)
            windows.append(tw)
        flushing = set()
        execute = {TRACE_SAVE: cpu.save, TRACE_RESTORE: cpu.restore,
                   TRACE_FLUSH: flushing.add}  # flushed at next switch-out
        context_switch = scheme.context_switch
        snapshot = observer.timeline.snapshot
        log_append = observer.log.append
        ops = self.ops
        stops = _STOPS
        out = None
        start = 0
        fields = [iter(quanta)] * _FIELDS
        for tid, switched, low, high, stop, end, compute in zip(*fields):
            tw = windows[tid]
            if switched:
                context_switch(out, tw, out in flushing)
                switched = counters.switch_cycles
            else:
                switched = None
            depth = tw.depth
            cycle = counters.total_cycles
            snapshot(cpu, tid, cycle)
            for op in ops[start:end]:
                execute[op](tw)
            start = end
            counters.compute_cycles = compute
            state = stops[stop]
            if state == DONE:
                scheme.retire(tw)
                out = None
            else:
                out = tw
            log_append((tid, depth, cycle, switched, low, high, state,
                        counters.total_cycles))
        observer.stream_closes = self.stream_closes
        observer.finish(kernel)
        counters.fold_thread_stats(windows)
        return RunResult(counters, list(self.threads), self.steps,
                         loop="replay")
