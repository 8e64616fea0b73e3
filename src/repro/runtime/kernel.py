"""The multi-tasking kernel: run-until-event execution + non-preemptive
scheduling over the window simulator.

Every procedure call a thread makes becomes a simulated ``save`` and
every return a ``restore``; blocking stream operations suspend the
thread and context-switch through the window-management scheme.  The
register file is used *functionally*: arguments travel through the
caller's outs into the callee's ins, return values travel back through
the in/out overlap across the restore, and each frame carries a
signature in a local register — so a window-management bug corrupts
application results instead of passing silently.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core import make_scheme
from repro.core.invariants import _consistent, check_invariants
from repro.errors import ReproError
from repro.metrics.counters import Counters
from repro.runtime.errors import DeadlockError, LivelockError, RuntimeFault
from repro.runtime.ops import (
    Call,
    CloseStream,
    FlushHint,
    Join,
    Read,
    ReadLine,
    Spawn,
    Tick,
    Write,
    YieldCPU,
)
from repro.runtime.scheduler import ReadyQueue
from repro.runtime.streams import Stream, StreamClosedError
from repro.runtime.thread import (
    BLOCKED,
    DONE,
    READY,
    RUNNING,
    SimThread,
)
from repro.windows.cpu import WindowCPU
from repro.windows.errors import (
    WindowError,
    WindowGeometryError,
    WindowIntegrityError,
)
from repro.windows.occupancy import FRAME, FREE
from repro.windows.thread_windows import ThreadWindows


#: records the crash-bundle flight recorder keeps (switches and traps)
FLIGHT_CAPACITY = 256

#: the batched loop's step limit when a run has no step budget
_UNBOUNDED = sys.maxsize


@dataclass
class RunResult:
    """Outcome of a completed simulation."""

    counters: Counters
    threads: List[SimThread]
    steps: int
    #: the dispatch loop that executed (``"pure-batched"``; the test
    #: suite's reference loop reports ``"step"``)
    loop: Optional[str] = None

    @property
    def total_cycles(self) -> int:
        return self.counters.total_cycles

    def result_of(self, name: str) -> Any:
        for t in self.threads:
            if t.name == name:
                return t.result
        raise KeyError(name)


class Kernel:
    """Owns the CPU, the scheme, the ready queue and all threads."""

    def __init__(self, n_windows: int = 8, scheme: str = "SP",
                 queue_policy=None, cost_model=None,
                 allocation=None, verify_registers: bool = True,
                 scheme_kwargs: Optional[dict] = None,
                 faults=None, audit: bool = False,
                 watchdog: Optional[int] = None,
                 crash_dir=None,
                 crash_config: Optional[dict] = None):
        self.counters = Counters()
        self.cpu = WindowCPU(n_windows, cost_model, self.counters)
        kwargs = dict(scheme_kwargs or {})
        if allocation is not None and str(scheme).upper() != "NS":
            kwargs.setdefault("allocation", allocation)
        self.scheme = make_scheme(scheme, self.cpu, **kwargs)
        self.ready = ReadyQueue(queue_policy)
        self.threads: List[SimThread] = []
        #: every thread's ThreadWindows, in spawn order (what the audit
        #: and the statistics fold read)
        self._windows: List[ThreadWindows] = []
        self.current: Optional[SimThread] = None
        self.last_suspended: Optional[SimThread] = None
        self.verify_registers = verify_registers
        #: the run's trace recorder (shared with the CPU, the scheme
        #: and the ready queue); records nothing until
        #: ``enable_tracing``
        self.events = self.cpu.events
        self.ready.events = self.events
        #: guards the kernel's emit sites (see ``enable_tracing``)
        self._tracing = False
        #: the RunReport observer ``RunObserver.attach`` arms (None:
        #: off), whose record log the dispatch loop appends to
        self._observer = None
        #: the cycle profiler ``RunTelemetry.attach`` arms (None: off;
        #: the batched loop's guard is a hoisted-local None check)
        self._profiler = None
        self._running = False
        self._steps = 0
        #: 1 after a step-budget exit: ``_steps`` counts the step the
        #: budget cut, which the next ``run()`` runs without counting
        #: it again
        self._cut = 0
        #: the running call's step budget (run(max_steps=...))
        self._max_steps: Optional[int] = None
        #: progress clock: ticks, calls, returns, spawns and completed
        #: blocking operations move it; yield storms do not
        self._progress = 0
        #: optional fault injector (see :mod:`repro.faults`), shared
        #: with the CPU, the scheme's store paths and the ready queue
        self.faults = faults
        if faults is not None:
            faults.attach(self)
        #: audit the window geometry after every dispatch, call and
        #: return (see ``_audit`` and ``_run_batched``)
        self.audit = audit
        self._watchdog = None
        if watchdog:
            from repro.faults.watchdog import Watchdog

            self._watchdog = Watchdog(watchdog)
        #: where crash bundles land (None: no bundles); crash_config is
        #: embedded in the bundle so a replay can rebuild the workload
        self.crash_dir = crash_dir
        self.crash_config = dict(crash_config or {})
        if crash_dir is not None:
            # The flight recorder: the scheme's switch and trap sites
            # append their records, in run order, to a bounded ring;
            # tracing stays off.
            self.scheme.records = deque(maxlen=FLIGHT_CAPACITY)

    # -- observability ------------------------------------------------------

    def enable_tracing(self):
        """Record every event of the run in ``events`` (the returned
        :class:`~repro.metrics.events.TraceRecorder`), which consumers
        read after the run.  Before ``run()`` only: tracing is fixed
        for the whole run."""
        if self._running:
            raise RuntimeFault("enable_tracing() after run() started")
        self._tracing = self.ready._tracing = True
        return self.cpu.enable_tracing()

    # -- setup ------------------------------------------------------------

    def spawn(self, factory, *args, name: str = "") -> SimThread:
        """Create a thread running ``factory(*args)`` (a generator).

        Before ``run()`` only; running threads use the ``Spawn`` op.
        """
        if self._running:
            raise RuntimeFault(
                "spawn() after run() started; yield Spawn(...) instead")
        return self._spawn(factory, args, name)

    def _spawn(self, factory, args, name: str) -> SimThread:
        thread = SimThread(len(self.threads), name, factory, args)
        self.threads.append(thread)
        self._windows.append(thread.windows)
        self.scheme.register(thread.windows)
        if self._tracing:
            parent = self.current.tid if self.current is not None else None
            self.events.emit("spawn", tid=thread.tid, name=thread.name,
                             parent=parent)
        self.ready.push_new(thread)
        return thread

    def stream(self, capacity: int, name: str = "") -> Stream:
        """Convenience stream constructor."""
        return Stream(capacity, name)

    # -- main loop -----------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run every thread to completion; raises on deadlock.

        Any escaping :class:`~repro.errors.ReproError` is enriched with
        crash context (step, cycle, running thread, CWP) and — when
        ``crash_dir`` is set — dumped as a replayable crash bundle whose
        path lands on the exception as ``bundle_path``.
        """
        self._running = True
        try:
            result = self._run_to_completion(max_steps)
        except ReproError as exc:
            self._capture_crash(exc)
            raise
        if self._observer is not None:
            self._observer.finish(self)
        return result

    def _run_to_completion(self, max_steps: Optional[int]) -> RunResult:
        # Every hook rides the batched loop.
        self._max_steps = max_steps
        self._run_batched()
        if max_steps is not None and self._steps >= max_steps:
            self._cut = 1
            raise RuntimeFault("step budget of %d exceeded" % max_steps)
        blocked = [t for t in self.threads if t.state == BLOCKED]
        if blocked:
            raise self._deadlock_error(blocked)
        return self._finish("pure-batched")

    def _finish(self, loop: str) -> RunResult:
        if self._tracing:
            self.events.emit("run_end")
        self.counters.fold_thread_stats(self._windows)
        return RunResult(self.counters, list(self.threads), self._steps,
                         loop=loop)

    # -- failure reporting --------------------------------------------------

    def _deadlock_error(self, blocked: List[SimThread]) -> DeadlockError:
        """Build a DeadlockError naming every wedged thread and what it
        waits for — including the fill state of the stream involved."""
        details = []
        for t in blocked:
            pending = t.pending or (None,)
            kind = pending[0]
            if kind == "join":
                target = pending[1]
                entry = {"thread": t.name, "op": "join", "on": target.name,
                         "detail": "target is %s" % target.state}
            elif kind in ("read", "readline", "write"):
                stream = pending[1]
                if kind == "write":
                    state = "full" if stream.is_full else (
                        "%d/%d bytes buffered"
                        % (len(stream), stream.capacity))
                else:
                    state = "empty" if stream.is_empty else (
                        "%d bytes buffered" % len(stream))
                if stream.closed:
                    state += ", closed"
                entry = {"thread": t.name, "op": kind,
                         "on": stream.name or "stream",
                         "detail": "stream %s (capacity %d)"
                                   % (state, stream.capacity)}
            else:
                entry = {"thread": t.name, "op": kind or "?",
                         "on": t.blocked_on or "?", "detail": ""}
            details.append(entry)
        lines = "; ".join(
            "%s waits to %s %r (%s)" % (d["thread"], d["op"], d["on"],
                                        d["detail"])
            if d["detail"] else
            "%s waits to %s %r" % (d["thread"], d["op"], d["on"])
            for d in details)
        return DeadlockError(
            "deadlock: no ready threads; blocked: %s" % lines,
            blocked=details, threads=len(self.threads),
            blocked_count=len(details))

    def _capture_crash(self, exc: ReproError) -> None:
        """Enrich an escaping error and (optionally) write its bundle."""
        self.counters.fold_thread_stats(self._windows)
        running = self.current
        exc.with_context(step=self._steps,
                         cycle=self.counters.total_cycles)
        if running is not None:
            exc.with_context(thread=running.name, cwp=self.cpu.wf.cwp)
        if self.faults is not None and self.faults.fired:
            exc.with_context(faults_fired=len(self.faults.fired))
        exc.bundle_path = None
        if self.crash_dir is not None:
            from repro.faults.bundle import write_crash_bundle

            exc.bundle_path = write_crash_bundle(self.crash_dir, exc, self)

    # -- run hooks ------------------------------------------------------------

    def _audit(self, steps: int = 0, cycles: int = 0) -> None:
        """The full invariant audit (opt-in): the one-pass geometry
        check, and only when it fails ``check_invariants``, which walks
        the state to raise the first violation with its diagnosis.  The
        batched loop runs it after every dispatch, overflow trap, NS
        underflow and fired fault hook, and wherever its O(1) check
        after a plain save or restore cannot vouch for the state (see
        ``_run_batched``); the reference loop runs it after every
        dispatch, call and return.  The batched loop passes the steps
        and cycles its accumulators have not folded yet, so the crash
        context is exact."""
        windows = self._windows
        try:
            if _consistent(self.cpu, self.scheme, windows):
                return
        except (TypeError, IndexError):
            pass  # malformed state: check_invariants diagnoses it
        try:
            check_invariants(self.cpu, self.scheme, windows)
        except WindowError as exc:
            raise exc.with_context(
                audit=True, step=self._steps + steps,
                cycle=self.counters.total_cycles + cycles)

    def _stall_error(self, progress: int, steps: int,
                     mark_step: int) -> LivelockError:
        """The batched loop's LivelockError, given its unfolded progress
        and step counts and the step its watchdog last saw progress
        at: the watchdog's marks are written back first, so the error
        reads them as the reference loop's does."""
        watchdog = self._watchdog
        progress += self._progress
        watchdog._last_marks = progress
        watchdog._last_step = self._steps + mark_step
        return self._livelock_error(watchdog, progress, self._steps + steps)

    def _livelock_error(self, watchdog, progress: int,
                        step: int) -> LivelockError:
        return LivelockError(
            "no progress for %d steps (watchdog max_stall=%d); "
            "threads: %s" % (
                watchdog.stalled_for(progress, step),
                watchdog.max_stall,
                ", ".join("%s=%s" % (t.name, t.state)
                          for t in self.threads)),
            max_stall=watchdog.max_stall, progress=progress)

    # -- quantum execution ----------------------------------------------------------

    def _run_batched(self) -> None:
        """The run-until-event core: dispatch loop plus batch executor
        fused into one frame.

        Each thread's quantum executes as a straight-line batch of
        steps, returning control only on a batch-exit event — block,
        yield, completion (:mod:`repro.runtime.batch`) — after which
        the next thread is dispatched at the loop's top without
        leaving this frame, so the simulator-invariant locals (register
        file geometry, WIM, occupancy arrays, op classes) hoist once
        per *run* instead of once per step or quantum.  The loop
        returns when no thread is ready; the caller tells completion
        from deadlock.

        A blocked thread resumes by replaying the op it blocked in
        (``thread.pending`` keeps it): the op runs through its own
        branch again, whose attempt step is the quantum's entry step,
        so every blocking op has one attempt, wake and block body.

        Bit-identical to a step-granular trampoline that executes one
        runtime op per step through ``WindowCPU.save``/``restore`` (the
        differential suites hold it to ``tests/support/trampoline.py``),
        with the per-step machinery inlined: the two window
        instructions, stream completion, and the counter updates.
        Run-global counters (steps, progress, compute/call cycles,
        save/restore totals) accumulate in frame locals and fold once
        in the outer ``finally``; per-thread statistics fold at each
        quantum boundary in the inner ``finally``.  Both folds run on
        exceptional exits too, so a window trap escaping mid-batch
        leaves step and cycle counts exactly where the reference loop
        would (crash-context identity).  Trap handlers and context
        switches run through the scheme exactly as in the reference
        loop; they touch only trap/switch counters, never the
        batch-local ones, so folding late is safe.

        Every hook runs here, each a hoisted local that is None (or
        False) unless armed, so an unhooked run pays one check per
        site:

        * fault injection: the CPU's save/restore fault hooks at the
          inlined save/restore, the armed trap action on the overflow
          path, and the ready queue's enqueue hook (the FIFO wake fast
          path is off while it is armed);
        * the invariant audit after every dispatch, call and return,
          given the unfolded step and cycle counts.  The full audit
          (``_audit``) runs after every dispatch, overflow trap, NS
          underflow and fired fault hook; ``clean`` records that it
          passed and that only plain saves and restores (and SNP/SP's
          in-place underflow, which changes only the depth and the
          store) have run since.  While
          it holds, a plain save needs only the saved-into window to
          have been free, and a plain restore only the thread to hold a
          window after it; when that check fails the full audit runs,
          so every violation raises at the event and with the message
          the full audit gives (DESIGN §10.1 has the proof).  A
          ``Spawn`` clears ``clean`` too;
        * the step budget and the watchdog at the start of every step,
          inline: one compare of the batch's step count against
          ``limit`` (the budget, or 0 while the watchdog is armed,
          whose marks ``marks``/``mark_step`` then update in frame
          locals and are written back to the ``Watchdog`` on every
          exit).  A spent budget returns with the thread still current
          (EXIT_BUDGET), and on a blocking op's attempt step leaves the
          op pending, so a later ``run()`` replays it;
        * tracing: ``events_on``, fixed for the whole run by
          ``enable_tracing``, guards the kernel's and the CPU's emit
          sites (dispatch, save, restore, block, wake, yield, retire).
          While it is on, the compute and call-cycle accumulators fold
          into ``counters`` at each Tick and before each save/restore
          emit or window trap, so every recorded stamp — the scheme's,
          the ready queue's, the kernel's and the injector's too —
          reads the exact cycle (an untrapped save or restore pays
          one ``events_on`` check), and nothing is left to fold at a
          dispatch.

        The profiler and the telemetry buffers are quantum-granular and
        fed per batch.  With a ``RunObserver`` armed (``observed``),
        each quantum is recorded once in its record log: the dispatch
        keeps its facts in frame locals — tid, call depth, cycle, and
        the cumulative ``switch_cycles`` after the switch into it (None
        when the thread resumed without one) — and the quantum's exit
        appends them with its stop facts: the lowest and highest call
        depth its saves and restores reached (two frame-local compares
        at those sites), ``thread.state`` and the stop cycle, for which
        the cycle accumulators fold.  A quantum an error or the step budget
        cut short is still recorded, with the state ``running``; so is
        a dispatch whose audit failed before its quantum began.  A
        quantum the step budget cut, resumed by the next ``run()``,
        takes its record back off the log and carries on with its
        dispatch facts and depth bounds, so a cut and resumed run logs
        exactly what the uncut run does.  The report reads the log
        after the run; the observer's timeline snapshots the window map
        at the dispatch itself.
        """
        cpu = self.cpu
        wf = cpu.wf
        regs = wf._regs
        wim = wf._wim
        above = wf._above
        below = wf._below
        in_base = wf._in_base
        out_base = wf._out_base
        wmap = cpu.map
        kinds = wmap._kind
        tids = wmap._tid
        scheme = self.scheme
        ready = self.ready
        counters = cpu.counters
        verify = self.verify_registers
        save_cost = cpu._save_instr_cost
        restore_cost = cpu._restore_instr_cost
        prof = self._profiler
        prof_cd = prof._cd if prof is not None else 0
        # the fuzz hooks: each is None unless armed, so an unhooked run
        # pays one None check per site
        faults = cpu.faults
        fault_save = cpu._fault_save
        fault_restore = cpu._fault_restore
        audit = self._audit if self.audit else None
        # the audit's fast path: ``clean`` holds while the state is one
        # a full audit passed plus plain saves and restores the O(1)
        # checks vouched for (never set in an unaudited run); a fired
        # fault hook grows ``fired`` past ``n_fired`` and clears it
        clean = False
        fired = faults.fired if faults is not None else []
        n_fired = len(fired)
        # the step gate: one compare per step against ``limit``, which
        # is the step budget in batch-local steps (unbounded without
        # one), or 0 while the watchdog is armed, whose marks then
        # update at every step in frame locals
        max_steps = self._max_steps
        budget = (max_steps - self._steps if max_steps is not None
                  else _UNBOUNDED)
        watchdog = self._watchdog
        if watchdog is not None:
            limit = 0
            max_stall = watchdog.max_stall
            marks = watchdog._last_marks - self._progress
            mark_step = watchdog._last_step - self._steps
        else:
            limit = budget
            max_stall = marks = mark_step = 0
        stall = self._stall_error
        observer = self._observer
        observed = observer is not None
        log_append = observer.log.append if observed else None
        snapshot = observer.timeline.snapshot if observed else None
        events = self.events
        events_on = self._tracing
        handle_overflow = scheme.handle_overflow
        handle_underflow = scheme.handle_underflow
        in_place = scheme.shares_windows
        context_switch = scheme.context_switch
        wake_readers = self._wake_readers
        wake_writers = self._wake_writers
        do_close = self._do_close
        queue = ready._queue
        popleft = queue.popleft
        queue_extend = queue.extend
        # Plain FIFO with no fault injector attached and no tracing: a
        # wake is exactly "state = READY, append to the deque" (the
        # push_woken fast path); none of these can change during a run.
        fifo_wake = (ready._fifo and ready.faults is None
                     and not events_on)
        READY_, BLOCKED_ = READY, BLOCKED
        # op classes as frame locals (one global load each, not per step)
        Tick_, Call_, Read_, Write_ = Tick, Call, Read, Write
        ReadLine_, CloseStream_, YieldCPU_ = ReadLine, CloseStream, YieldCPU
        FlushHint_, Spawn_, Join_ = FlushHint, Spawn, Join
        # -- run-global accumulators, folded once in the outer finally --
        steps = -self._cut         # -> self._steps (a cut step counts once)
        self._cut = 0
        progress = 0               # -> self._progress
        compute = 0                # -> counters.compute_cycles
        call_cycles = 0            # -> counters.call_cycles
        saves_total = 0            # -> counters.saves
        restores_total = 0         # -> counters.restores
        # the running quantum's depth excursion, for the observer;
        # reset at each observed dispatch (unobserved, the save/restore
        # compares run on stale bounds that nothing reads)
        low = high = 0
        # an observed quantum's dispatch facts, until its record is
        # logged at the quantum's exit
        dispatched = None
        if observed and steps:
            # resume the quantum the step budget cut (``steps`` starts
            # at -1): its provisional record gives way to the one its
            # exit appends
            dispatched = observer.log.pop()
            low, high = dispatched[4], dispatched[5]
            dispatched = dispatched[:4]
        # a blocked thread's op, replayed through its own branch below
        # when the thread resumes, and a partial write's progress
        replay = None
        offset = 0
        try:
            while True:            # one iteration per quantum
                thread = self.current
                if thread is None:
                    if not queue:
                        return     # all done, or deadlock (caller decides)
                    thread = popleft()
                    out = self.last_suspended
                    if out is not thread:
                        if out is not None:
                            context_switch(out.windows, thread.windows,
                                           out.flush_on_switch)
                        else:
                            context_switch(None, thread.windows, False)
                    # else: a ``sched`` fault shuffled the thread that
                    # just yielded back to the head of the queue; it
                    # resumes with no switch and no cost, like a
                    # YieldCPU with nobody else ready.
                    self.last_suspended = None
                    self.current = thread
                    thread.state = RUNNING
                    if not thread.gen_stack:
                        thread.start_root()
                        if verify:
                            cpu.write_local(0, ("sig", thread.tid, 1))
                    if events_on:
                        events.emit("dispatch", tid=thread.tid,
                                    depth=thread.windows.depth)
                    if observed:
                        low = high = thread.windows.depth
                        cycle = counters.total_cycles
                        dispatched = (thread.tid, low, cycle,
                                      counters.switch_cycles
                                      if out is not thread else None)
                        snapshot(cpu, thread.tid, cycle)
                    if audit is not None:
                        audit(steps, compute + call_cycles)
                        clean = True
                tw = thread.windows
                gen_stack = thread.gen_stack
                gen = gen_stack[-1]
                # -- per-quantum accumulators (per-thread statistics) --
                n_saves = 0        # -> tw.stat_saves (== thread.calls)
                n_restores = 0     # -> tw.stat_restores (== thread.returns)
                resume = thread.resume_value
                pending = thread.pending
                try:
                    if pending is None:
                        steps += 1     # the entry iteration
                        if steps >= limit:
                            if steps >= budget:
                                return  # EXIT_BUDGET
                            if progress != marks:
                                marks = progress
                                mark_step = steps
                            elif steps - mark_step >= max_stall:
                                raise stall(progress, steps, mark_step)
                    else:
                        # Resume by replay: the op's own branch retries
                        # it, and its attempt step is the entry step.
                        thread.pending = None
                        replay = pending[2]
                        offset = pending[3]
                    while True:
                        try:
                            cmd = replay or gen.send(resume)
                        except StopIteration as stop:
                            value = stop.value
                            gen_stack.pop()
                            progress += 1
                            if not gen_stack:
                                if verify and tw.depth != 1:
                                    raise WindowIntegrityError(
                                        "thread %s finished at call "
                                        "depth %d"
                                        % (thread.name, tw.depth))
                                thread.result = value
                                thread.state = DONE
                                scheme.retire(tw)
                                self.current = None
                                if events_on:
                                    events.emit("retire", tid=thread.tid,
                                                name=thread.name)
                                for waiter in thread.join_waiters:
                                    waiter.blocked_on = None
                                    if events_on:
                                        events.emit(
                                            "wake", tid=waiter.tid,
                                            on=thread.name, op="join")
                                    ready.push_woken(waiter)
                                del thread.join_waiters[:]
                                break  # EXIT_DONE
                            cwp = wf.cwp
                            if verify:
                                sig = regs[in_base[cwp] + 8]
                                if sig != ("sig", thread.tid, tw.depth):
                                    # the return counts before the
                                    # check, the restore after it
                                    thread.returns += 1
                                    raise WindowIntegrityError(
                                        "thread %s frame signature "
                                        "corrupted: %r at depth %d"
                                        % (thread.name, sig, tw.depth),
                                        thread=thread.name,
                                        depth=tw.depth)
                            # The return value travels through the
                            # in/out overlap across the restore
                            # (written before, read after).
                            regs[in_base[cwp]] = value
                            # -- WindowCPU.restore, inlined --
                            if tw.depth <= 1:
                                thread.returns += 1
                                raise WindowGeometryError(
                                    "thread %d executed restore at "
                                    "depth %d" % (tw.tid, tw.depth))
                            if fault_restore is not None:
                                fault_restore(cpu, tw)
                                cwp = wf.cwp
                                if len(fired) != n_fired:
                                    n_fired = len(fired)
                                    clean = False
                            n_restores += 1
                            call_cycles += restore_cost
                            target = below[cwp]
                            if wim[target]:
                                # Underflow: SNP/SP restore in place
                                # (§3.2), changing only the depth and
                                # the store; NS refills windows below.
                                if events_on:
                                    counters.call_cycles += call_cycles
                                    call_cycles = 0
                                handle_underflow(tw)
                                if not in_place:
                                    clean = False
                                if events_on:
                                    events.emit(
                                        "restore", tid=tw.tid,
                                        window=wf.cwp, depth=tw.depth,
                                        inplace=True)
                            else:
                                kinds[cwp] = FREE
                                tids[cwp] = None
                                wf.cwp = target
                                tw.cwp = target
                                tw.resident -= 1
                                tw.depth -= 1
                                if events_on:
                                    counters.call_cycles += call_cycles
                                    call_cycles = 0
                                    events.emit(
                                        "restore", tid=tw.tid,
                                        window=target, depth=tw.depth,
                                        freed=cwp, inplace=False)
                            if tw.depth < low:
                                low = tw.depth
                            got = regs[out_base[wf.cwp]]
                            if verify and got is not value \
                                    and got != value:
                                raise WindowIntegrityError(
                                    "return value of %s corrupted "
                                    "across restore: %r != %r"
                                    % (thread.name, got, value),
                                    thread=thread.name, depth=tw.depth)
                            if audit is not None and not (
                                    clean and tw.resident >= 1):
                                audit(steps, compute + call_cycles)
                                clean = True
                            resume = got
                            gen = gen_stack[-1]
                            steps += 1
                            if steps >= limit:
                                if steps >= budget:
                                    return  # EXIT_BUDGET
                                if progress != marks:
                                    marks = progress
                                    mark_step = steps
                                elif steps - mark_step >= max_stall:
                                    raise stall(progress, steps, mark_step)
                            continue
                        resume = None
                        t = type(cmd)
                        if t is Tick_:
                            compute += cmd.cycles
                            progress += 1
                            if events_on:
                                counters.compute_cycles += compute
                                compute = 0
                        elif t is Call_:
                            progress += 1
                            args = cmd.args
                            cwp = wf.cwp
                            if verify:
                                ob = out_base[cwp]
                                for i, a in enumerate(args[:8]):
                                    regs[ob + i] = a
                            # -- WindowCPU.save, inlined --
                            if fault_save is not None:
                                fault_save(cpu, tw)
                                cwp = wf.cwp
                                if len(fired) != n_fired:
                                    n_fired = len(fired)
                                    clean = False
                            n_saves += 1
                            call_cycles += save_cost
                            target = above[cwp]
                            if wim[target]:
                                clean = False
                                if events_on:
                                    counters.call_cycles += call_cycles
                                    call_cycles = 0
                                action = (faults.take_trap_action(tw)
                                          if faults is not None else None)
                                # a dropped trap falls through: the save
                                # runs straight into the invalid window
                                if action != "drop":
                                    handle_overflow(tw)
                                    if action == "dup":
                                        handle_overflow(tw)
                                    target = above[wf.cwp]
                                    if wim[target]:
                                        raise WindowGeometryError(
                                            "overflow handler left "
                                            "target window %d invalid"
                                            % target,
                                            window=target, thread=tw.tid)
                            wf.cwp = target
                            tw.cwp = target
                            tw.resident += 1
                            tw.depth += 1
                            if tw.depth > high:
                                high = tw.depth
                            if clean and kinds[target] is not FREE:
                                clean = False  # a claimed window
                            kinds[target] = FRAME
                            tids[target] = tw.tid
                            if events_on:
                                counters.call_cycles += call_cycles
                                call_cycles = 0
                                events.emit("save", tid=tw.tid,
                                            window=target, depth=tw.depth)
                            if verify:
                                ib = in_base[target]
                                for i, a in enumerate(args[:8]):
                                    got = regs[ib + i]
                                    if got is not a and got != a:
                                        raise WindowIntegrityError(
                                            "argument %d of %s "
                                            "corrupted across save: "
                                            "%r != %r"
                                            % (i, thread.name, got, a),
                                            thread=thread.name,
                                            argument=i, depth=tw.depth)
                                regs[ib + 8] = ("sig", thread.tid,
                                                tw.depth)
                            if audit is not None and not clean:
                                audit(steps, compute + call_cycles)
                                clean = True
                            gen = cmd.factory(*args)
                            gen_stack.append(gen)
                        elif t is Read_:
                            stream = cmd.stream
                            steps += 1  # the attempt iteration
                            if steps >= limit:
                                if steps >= budget:
                                    # resume replays the op
                                    thread.pending = ("read", stream,
                                                      cmd, 0)
                                    return  # EXIT_BUDGET
                                if progress != marks:
                                    marks = progress
                                    mark_step = steps
                                elif steps - mark_step >= max_stall:
                                    raise stall(progress, steps, mark_step)
                            replay = None
                            sdata = stream._data
                            if sdata or stream.closed:
                                # -- reference ``pull``, inlined --
                                take = cmd.max_bytes
                                avail = len(sdata)
                                if take >= avail:
                                    take = avail
                                    data = bytes(sdata)
                                    del sdata[:]
                                else:
                                    data = bytes(sdata[:take])
                                    del sdata[:take]
                                if take:
                                    stream.bytes_read += take
                                    if stream.write_waiters:
                                        if fifo_wake:
                                            for waiter in \
                                                    stream.write_waiters:
                                                waiter.blocked_on = None
                                                waiter.state = READY_
                                            queue_extend(
                                                stream.write_waiters)
                                            del stream.write_waiters[:]
                                        else:
                                            wake_writers(stream)
                                progress += 1
                                resume = data
                                # completion shares the next send's step
                                continue
                            # -- _block, inlined --
                            thread.pending = ("read", stream, cmd, 0)
                            stream.read_waiters.append(thread)
                            thread.blocked_on = stream.read_label
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=stream.name or "stream", op="read")
                            break  # EXIT_BLOCKED
                        elif t is Write_:
                            stream = cmd.stream
                            data = cmd.data
                            steps += 1
                            if steps >= limit:
                                if steps >= budget:
                                    # resume replays the op
                                    thread.pending = ("write", stream,
                                                      cmd, offset)
                                    return  # EXIT_BUDGET
                                if progress != marks:
                                    marks = progress
                                    mark_step = steps
                                elif steps - mark_step >= max_stall:
                                    raise stall(progress, steps, mark_step)
                            replay = None
                            # -- reference ``push`` from ``offset``, inlined --
                            if stream.closed:
                                raise StreamClosedError(
                                    "write to closed stream %r"
                                    % (stream.name,))
                            sdata = stream._data
                            pushed = stream.capacity - len(sdata)
                            want = len(data) - offset
                            if pushed >= want:
                                pushed = want
                                sdata.extend(data[offset:] if offset
                                             else data)
                            elif pushed:
                                sdata.extend(data[offset:offset + pushed])
                            if pushed:
                                stream.bytes_written += pushed
                                if stream.read_waiters:
                                    if fifo_wake:
                                        for waiter in \
                                                stream.read_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.read_waiters)
                                        del stream.read_waiters[:]
                                    else:
                                        wake_readers(stream)
                            if pushed >= want:
                                offset = 0
                                progress += 1
                                continue
                            # -- _block, inlined --
                            thread.pending = ("write", stream, cmd,
                                              offset + pushed)
                            offset = 0
                            stream.write_waiters.append(thread)
                            thread.blocked_on = stream.write_label
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=stream.name or "stream",
                                    op="write")
                            break  # EXIT_BLOCKED
                        elif t is ReadLine_:
                            stream = cmd.stream
                            steps += 1
                            if steps >= limit:
                                if steps >= budget:
                                    # resume replays the op
                                    thread.pending = ("readline", stream,
                                                      cmd, 0)
                                    return  # EXIT_BUDGET
                                if progress != marks:
                                    marks = progress
                                    mark_step = steps
                                elif steps - mark_step >= max_stall:
                                    raise stall(progress, steps, mark_step)
                            replay = None
                            # -- reference has_line/at_eof/pull_line, inlined
                            sdata = stream._data
                            idx = sdata.find(b"\n")
                            if idx >= 0:
                                idx += 1
                                line = bytes(sdata[:idx])
                                del sdata[:idx]
                                stream.bytes_read += idx
                            elif stream.closed:
                                line = bytes(sdata)
                                if line:
                                    del sdata[:]
                                    stream.bytes_read += len(line)
                            else:
                                if len(sdata) >= stream.capacity:
                                    raise RuntimeFault(
                                        "readline on %r: line longer "
                                        "than the stream capacity"
                                        % stream.name)
                                # -- _block, inlined --
                                thread.pending = ("readline", stream, cmd, 0)
                                stream.read_waiters.append(thread)
                                thread.blocked_on = stream.read_label
                                thread.state = BLOCKED_
                                thread.blocks += 1
                                self.last_suspended = thread
                                self.current = None
                                if events_on:
                                    events.emit(
                                        "block", tid=thread.tid,
                                        on=stream.name or "stream",
                                        op="read")
                                break  # EXIT_BLOCKED
                            if line and stream.write_waiters:
                                if fifo_wake:
                                    for waiter in stream.write_waiters:
                                        waiter.blocked_on = None
                                        waiter.state = READY_
                                    queue_extend(stream.write_waiters)
                                    del stream.write_waiters[:]
                                else:
                                    wake_writers(stream)
                            progress += 1
                            resume = line
                            continue
                        elif t is CloseStream_:
                            do_close(cmd.stream)
                        elif t is YieldCPU_:
                            if ready:
                                if events_on:
                                    events.emit("yield", tid=thread.tid)
                                ready.push_yielded(thread)
                                self.last_suspended = thread
                                self.current = None
                                break  # EXIT_YIELDED
                            # Nobody else runnable: keep going, no
                            # switch, no cost.
                        elif t is FlushHint_:
                            thread.flush_on_switch = True
                        elif t is Spawn_:
                            resume = self._spawn(cmd.factory, cmd.args,
                                                 cmd.name)
                            progress += 1
                            clean = False
                        elif t is Join_:
                            target_t = cmd.thread
                            if target_t is thread:
                                raise RuntimeFault(
                                    "%s tried to join itself"
                                    % thread.name)
                            steps += 1
                            if steps >= limit:
                                if steps >= budget:
                                    # resume replays the op
                                    thread.pending = ("join", target_t,
                                                      cmd, 0)
                                    return  # EXIT_BUDGET
                                if progress != marks:
                                    marks = progress
                                    mark_step = steps
                                elif steps - mark_step >= max_stall:
                                    raise stall(progress, steps, mark_step)
                            replay = None
                            if target_t.state == DONE:
                                progress += 1
                                resume = target_t.result
                                continue
                            # -- _block, inlined --
                            thread.pending = ("join", target_t, cmd, 0)
                            target_t.join_waiters.append(thread)
                            thread.blocked_on = "join %s" % target_t.name
                            thread.state = BLOCKED_
                            thread.blocks += 1
                            self.last_suspended = thread
                            self.current = None
                            if events_on:
                                events.emit(
                                    "block", tid=thread.tid,
                                    on=target_t.name, op="join")
                            break  # EXIT_BLOCKED
                        else:
                            raise RuntimeFault(
                                "thread %s yielded %r; expected a "
                                "runtime op" % (thread.name, cmd))
                        steps += 1
                        if steps >= limit:
                            if steps >= budget:
                                return  # EXIT_BUDGET
                            if progress != marks:
                                marks = progress
                                mark_step = steps
                            elif steps - mark_step >= max_stall:
                                raise stall(progress, steps, mark_step)
                finally:
                    # Quantum boundary: fold the per-thread statistics
                    # (the run-global accumulators keep accumulating).
                    thread.resume_value = resume
                    if n_saves:
                        saves_total += n_saves
                        tw.stat_saves += n_saves
                        thread.calls += n_saves
                    if n_restores:
                        restores_total += n_restores
                        tw.stat_restores += n_restores
                        thread.returns += n_restores
                    if dispatched is not None:
                        # the record's stop cycle is exact
                        if compute:
                            counters.compute_cycles += compute
                            compute = 0
                        if call_cycles:
                            counters.call_cycles += call_cycles
                            call_cycles = 0
                        log_append(dispatched + (
                            low, high, thread.state,
                            counters.total_cycles))
                        dispatched = None
                    if prof is not None:
                        prof_cd -= 1
                        if prof_cd <= 0:
                            # The profiler reads counters.total_cycles,
                            # so the cycle accumulators fold before the
                            # sample (only on expiry, not per quantum).
                            if compute:
                                counters.compute_cycles += compute
                                compute = 0
                            if call_cycles:
                                counters.call_cycles += call_cycles
                                call_cycles = 0
                            prof._check(thread, None, counters)
                            prof_cd = prof._cd
        finally:
            if watchdog is not None:
                watchdog._last_marks = self._progress + marks
                watchdog._last_step = self._steps + mark_step
            self._steps += steps
            self._progress += progress
            if compute:
                counters.compute_cycles += compute
            if call_cycles:
                counters.call_cycles += call_cycles
            if saves_total:
                counters.saves += saves_total
            if restores_total:
                counters.restores += restores_total
            if prof is not None:
                prof._cd = prof_cd
            if dispatched is not None:
                # the audit failed at the dispatch, before the quantum
                # began: record it as cut short
                log_append(dispatched + (low, high, thread.state,
                                         counters.total_cycles))

    # -- blocking stream operations ------------------------------------------------

    def _do_close(self, stream: Stream) -> None:
        if not stream.closed:
            if self._observer is not None:
                self._observer.stream_closes += 1
            if self._tracing:
                self.events.emit("stream_close", stream=stream.name,
                                 written=stream.bytes_written,
                                 read=stream.bytes_read)
        stream.close()
        if stream.read_waiters:
            self._wake_readers(stream)
        if stream.write_waiters:
            self._wake_writers(stream)

    def _wake_readers(self, stream: Stream) -> None:
        events_on = self._tracing
        for waiter in stream.read_waiters:
            waiter.blocked_on = None
            if events_on:
                self.events.emit("wake", tid=waiter.tid,
                                 on=stream.name or "stream", op="read")
            self.ready.push_woken(waiter)
        del stream.read_waiters[:]

    def _wake_writers(self, stream: Stream) -> None:
        events_on = self._tracing
        for waiter in stream.write_waiters:
            waiter.blocked_on = None
            if events_on:
                self.events.emit("wake", tid=waiter.tid,
                                 on=stream.name or "stream", op="write")
            self.ready.push_woken(waiter)
        del stream.write_waiters[:]
