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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import make_scheme
from repro.core.invariants import check_invariants
from repro.core.scheme import Scheme
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


#: records the crash-bundle flight recorder keeps (switches and traps)
FLIGHT_CAPACITY = 256


@dataclass
class RunResult:
    """Outcome of a completed simulation."""

    counters: Counters
    threads: List[SimThread]
    steps: int
    slackness_samples: List[int] = field(default_factory=list)
    #: the dispatch loop that executed: ``"compiled-batched"`` when
    #: the compiled twin ran every quantum, else ``"pure-batched"``
    loop: Optional[str] = None

    @property
    def total_cycles(self) -> int:
        return self.counters.total_cycles

    def result_of(self, name: str) -> Any:
        for t in self.threads:
            if t.name == name:
                return t.result
        raise KeyError(name)

    def thread_results(self) -> Dict[str, Any]:
        return {t.name: t.result for t in self.threads}


class Kernel:
    """Owns the CPU, the scheme, the ready queue and all threads."""

    def __init__(self, n_windows: int = 8, scheme: str = "SP",
                 queue_policy=None, cost_model=None,
                 counters: Optional[Counters] = None,
                 allocation=None, verify_registers: bool = True,
                 scheme_kwargs: Optional[dict] = None,
                 faults=None, audit: bool = False,
                 watchdog: Optional[int] = None,
                 crash_dir=None,
                 crash_config: Optional[dict] = None,
                 analyze: bool = False,
                 backend: Optional[str] = None):
        from repro.runtime import backend as backend_mod

        #: effective execution backend ("compiled"/"pure"); precedence
        #: backend= kwarg > $REPRO_BACKEND > auto-detect, with graceful
        #: fallback to pure when repro._fast is not built
        self._requested_backend = backend_mod.requested_backend(backend)
        self.backend = backend_mod.select_backend(backend)
        self._fast = (backend_mod.load_fast()
                      if self.backend == "compiled" else None)
        needs = [name for name, on in (
            ("fault injection", faults is not None),
            ("invariant audit", audit),
            ("watchdog", bool(watchdog))) if on]
        if self._fast is not None and needs:
            self._drop_compiled(
                "the compiled loop has no %s hook%s"
                % (" + ".join(needs), "s" if len(needs) > 1 else ""))
        self.counters = counters if counters is not None else Counters()
        self.cpu = WindowCPU(n_windows, cost_model, self.counters)
        kwargs = dict(scheme_kwargs or {})
        if isinstance(scheme, Scheme):
            self.scheme = scheme
        elif scheme.upper() == "NS":
            self.scheme = make_scheme("NS", self.cpu, **kwargs)
        else:
            if allocation is not None:
                kwargs.setdefault("allocation", allocation)
            self.scheme = make_scheme(scheme, self.cpu, **kwargs)
        self.ready = ReadyQueue(queue_policy)
        self.threads: List[SimThread] = []
        self.current: Optional[SimThread] = None
        self.last_suspended: Optional[SimThread] = None
        self.verify_registers = verify_registers
        #: the structured trace-event bus (shared with the CPU, the
        #: scheme, the ready queue and every stream); disabled until a
        #: consumer subscribes
        self.events = self.cpu.events
        self.ready.bind_events(self.events)
        #: mirror of ``events.active`` (see EventBus.watch_activity)
        self._tracing = False
        self.events.watch_activity(self._set_tracing)
        #: quantum observers (see the ``tracker``/``timeline``/``tally``
        #: properties); ``_observed`` is True while any is armed
        self._tracker = None
        self._timeline = None
        self._tally = None
        self._observed = False
        #: counters.switch_cycles at the last observed dispatch
        self._switch_cycles_seen = 0
        #: optional :class:`repro.metrics.telemetry.RunTelemetry`; the
        #: profiler is mirrored into ``_profiler`` so the batched loop's
        #: guard is a hoisted-local None check (attach_telemetry)
        self.telemetry = None
        self._profiler = None
        self._running = False
        #: run the static topology check before the first step (run())
        self._analyze = analyze
        self._steps = 0
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
        #: run check_invariants after every dispatch, call and return
        self.audit = audit
        self._watchdog = None
        if watchdog:
            from repro.faults.watchdog import Watchdog

            self._watchdog = Watchdog(watchdog)
        #: where crash bundles land (None: no bundles); crash_config is
        #: embedded in the bundle so a replay can rebuild the workload
        self.crash_dir = crash_dir
        self.crash_config = dict(crash_config or {})
        if crash_dir is not None and not self.counters.keep_trace:
            # The flight recorder: one ring shared by the scheme's
            # switch and trap record sites (already guarded by
            # keep_trace), so records land in order and the event bus
            # stays off — the run keeps the batched loop.  A caller
            # that armed keep_trace keeps its own lists.
            ring = deque(maxlen=FLIGHT_CAPACITY)
            self.counters.switch_trace = ring
            self.counters.trap_trace = ring
            self.counters.keep_trace = True

    def _set_tracing(self, active: bool) -> None:
        self._tracing = active
        if active and self._fast is not None:
            self._drop_compiled("the event bus is fed by the pure-Python "
                                "loop only")

    def _drop_compiled(self, why: str) -> None:
        """The compiled twin has no hooks: a run that arms one takes
        the pure batched loop, and only an *explicit* compiled request
        warns about it."""
        if self._requested_backend == "compiled":
            from repro.runtime import backend as backend_mod

            backend_mod.warn_pure_fallback(why)
        self.backend = "pure"
        self._fast = None

    # -- observability ------------------------------------------------------

    @property
    def tracker(self):
        """Optional :class:`repro.metrics.behavior.BehaviorTracker`,
        fed once per scheduling quantum by the kernel."""
        return self._tracker

    @tracker.setter
    def tracker(self, tracker) -> None:
        self._tracker = tracker
        self._arm_observers()

    @property
    def timeline(self):
        """Optional :class:`repro.metrics.tracing.OccupancyTimeline`,
        which snapshots the window map at every dispatch."""
        return self._timeline

    @timeline.setter
    def timeline(self, timeline) -> None:
        self._timeline = timeline
        self._arm_observers()

    @property
    def tally(self):
        """Optional :class:`repro.metrics.events.EventTally`: the
        RunReport ``events`` statistics, counted without the bus."""
        return self._tally

    @tally.setter
    def tally(self, tally) -> None:
        self._tally = tally
        self._arm_observers()

    def _arm_observers(self) -> None:
        """Quantum observers are fed at the dispatch and quantum-exit
        points of the pure batched loop, not through the event bus.
        The compiled twin has no such hooks: an observed run takes the
        pure batched loop (see ``_drop_compiled``)."""
        self._observed = (self._tracker is not None
                          or self._timeline is not None
                          or self._tally is not None)
        self._switch_cycles_seen = self.counters.switch_cycles
        if self._observed and self._fast is not None:
            self._drop_compiled("the run observers (tracker, timeline, "
                                "tally) are fed by the pure-Python loop "
                                "only")

    def _quantum_started(self, thread: SimThread, switched: bool) -> None:
        """Observer hook at a dispatch; ``switched`` is False when the
        thread resumed without a context switch.  Only the switch into
        a quantum moves ``switch_cycles``, so its cost is the growth
        since the previous dispatch."""
        counters = self.counters
        cycle = counters.total_cycles
        switch_cost = None
        if switched:
            switch_cost = counters.switch_cycles - self._switch_cycles_seen
            self._switch_cycles_seen = counters.switch_cycles
        tid = thread.tid
        if self._timeline is not None:
            self._timeline.snapshot(self.cpu, tid, cycle)
        if self._tracker is not None:
            self._tracker.on_dispatch(tid, thread.windows.depth, cycle)
        if self._tally is not None:
            self._tally.on_dispatch(tid, cycle, switch_cost)

    def _quantum_stopped(self, thread: SimThread, low: int,
                         high: int) -> None:
        """Observer hook at a quantum exit; ``low``/``high`` bound the
        call depths the quantum's saves and restores reached (the
        depths ``WindowCPU.save``/``restore`` emit)."""
        state = thread.state
        if state == BLOCKED:
            kind = "block"
        elif state == READY:
            kind = "yield"
        elif state == DONE:
            kind = "retire"
        else:
            return  # an error or the step budget cut the quantum short
        if self._tracker is not None:
            self._tracker.on_depth(low)
            self._tracker.on_depth(high)
        if self._tally is not None:
            self._tally.on_stop(kind, self.counters.total_cycles)

    def _observers_finish(self) -> None:
        if self._tracker is not None:
            self._tracker.finish(self.counters.total_cycles)
        if self._tally is not None:
            faults = self.faults
            self._tally.finish(
                0 if faults is None
                else len(faults.fired) + faults.trap_actions_applied)

    def attach_telemetry(self, telemetry) -> None:
        """Arm aggregate metrics (:mod:`repro.metrics.telemetry`).

        Hands the scheme its per-scheme switch/trap/occupancy
        histograms and arms the cycle-domain sampling profiler; until
        this is called every instrumented site holds ``None`` and the
        hot paths pay a single ``is None`` branch.
        """
        from repro.metrics.telemetry import arm_scheme_histograms

        self.telemetry = telemetry
        arm_scheme_histograms(telemetry, self.scheme,
                              self.cpu.n_windows)
        profiler = telemetry.profiler
        if profiler is not None:
            profiler.bind(self.cpu)
        self._profiler = profiler

    def enable_tracing(self, recorder=None):
        """Subscribe (and return) a TraceRecorder capturing every event."""
        from repro.metrics.events import TraceRecorder

        if recorder is None:
            recorder = TraceRecorder()
        self.events.subscribe(recorder)
        return recorder

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
        self.scheme.register(thread.windows)
        if self._tracing:
            parent = self.current.tid if self.current is not None else None
            self.events.emit("spawn", tid=thread.tid, name=thread.name,
                             parent=parent)
        self.ready.push_new(thread)
        return thread

    def stream(self, capacity: int, name: str = "") -> Stream:
        """Convenience stream constructor (wired to the event bus)."""
        stream = Stream(capacity, name)
        stream.events = self.events
        return stream

    # -- main loop -----------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run every thread to completion; raises on deadlock.

        Any escaping :class:`~repro.errors.ReproError` is enriched with
        crash context (step, cycle, running thread, CWP) and — when
        ``crash_dir`` is set — dumped as a replayable crash bundle whose
        path lands on the exception as ``bundle_path``.
        """
        if self._analyze:
            # opt-in pre-run gate: static stream-topology check over
            # everything spawned so far; a guaranteed deadlock (a
            # stream read but never written or closed) aborts before
            # the first instruction runs
            from repro.analysis.topology import analyze_kernel

            analyze_kernel(self).raise_if_errors("workload topology")
        self._running = True
        try:
            return self._run_to_completion(max_steps)
        except ReproError as exc:
            self._capture_crash(exc)
            raise

    def _run_to_completion(self, max_steps: Optional[int]) -> RunResult:
        # Every hook rides the batched loop.  The compiled twin has no
        # step budget, so a budgeted run takes the pure loop; tracing
        # drops the twin (``_set_tracing``), so ``_fast`` is re-read
        # after every return to this loop.
        compiled = max_steps is None
        self._max_steps = max_steps
        while self._next_quantum():
            fast = self._fast if compiled else None
            if fast is not None:
                fast.run_batched(self)
            else:
                self._run_batched()
            if max_steps is not None and self._steps >= max_steps:
                raise RuntimeFault("step budget of %d exceeded" % max_steps)
        return self._finish("compiled-batched"
                            if compiled and self._fast is not None
                            else "pure-batched")

    def _next_quantum(self) -> bool:
        """Dispatch the next ready thread unless one is running; False
        when every thread is done, DeadlockError when all are blocked."""
        if self.current is None:
            if not self.ready:
                blocked = [t for t in self.threads if t.state == BLOCKED]
                if blocked:
                    raise self._deadlock_error(blocked)
                return False
            self._dispatch(self.ready.pop())
        return True

    def _finish(self, loop: str) -> RunResult:
        if self._tracing:
            self.events.emit("run_end")
        if self._observed:
            self._observers_finish()
        self.counters.fold_thread_stats(t.windows for t in self.threads)
        return RunResult(self.counters, list(self.threads), self._steps,
                         list(self.ready.slackness_samples), loop=loop)

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
        self.counters.fold_thread_stats(t.windows for t in self.threads)
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

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, thread: SimThread) -> None:
        out = self.last_suspended
        if out is not thread:
            out_tw = out.windows if out is not None else None
            flush = out.flush_on_switch if out is not None else False
            self.scheme.context_switch(out_tw, thread.windows,
                                       flush_out=flush)
        # else: a ``sched`` fault shuffled the thread that just yielded
        # back to the head of the queue; it resumes with no switch and
        # no cost, like a YieldCPU with nobody else ready.
        self.last_suspended = None
        self.current = thread
        thread.state = RUNNING
        if not thread.gen_stack:
            thread.start_root()
            if self.verify_registers:
                self.cpu.write_local(0, ("sig", thread.tid, 1))
        if self._tracing:
            self.events.emit("dispatch", tid=thread.tid,
                             depth=thread.windows.depth)
        if self._observed:
            self._quantum_started(thread, out is not thread)
        if self.audit:
            self._audit()

    def _audit(self, steps: int = 0, cycles: int = 0) -> None:
        """Continuous invariant audit: the full geometry check after
        every dispatch, call and return (opt-in).  The batched loop
        passes the steps and cycles its accumulators have not folded
        yet, so the crash context is exact."""
        try:
            check_invariants(self.cpu, self.scheme,
                             [t.windows for t in self.threads])
        except WindowError as exc:
            raise exc.with_context(
                audit=True, step=self._steps + steps,
                cycle=self.counters.total_cycles + cycles)

    def _step_gate(self, steps: int, progress: int) -> bool:
        """The per-step hooks at the start of a batched step, given the
        batch's unfolded step and progress counts: True when the step
        budget is spent; raises LivelockError when the watchdog
        expires.  Called at the start of every step."""
        step = self._steps + steps
        max_steps = self._max_steps
        if max_steps is not None and step >= max_steps:
            return True
        watchdog = self._watchdog
        if watchdog is not None:
            progress += self._progress
            if watchdog.expired(progress, step):
                raise self._livelock_error(watchdog, progress, step)
        return False

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
        the next thread is dispatched without leaving this frame, so
        the simulator-invariant locals (register file geometry, WIM,
        occupancy arrays, op classes) hoist once per *run* instead of
        once per step or quantum.

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
          given the unfolded step and cycle counts (``_audit``);
        * the step budget and the watchdog at the start of every step
          (``_step_gate``): a spent budget returns with the thread
          still current (EXIT_BUDGET);
        * event-bus tracing: ``events_on``, read once per quantum at
          its dispatch, guards the kernel's and the CPU's emit sites
          (dispatch, save, restore, block, wake, yield, retire).  While
          it is on, the compute and call-cycle accumulators fold into
          ``counters`` at each Tick and before each save/restore emit
          or window trap, so every stamp on the bus — the scheme's,
          the ready queue's, the streams' and the injector's too —
          reads the exact cycle (an untrapped save or restore pays
          one ``events_on`` check).  A
          subscriber that attaches mid-quantum sees exact stamps from
          the next dispatch on.

        The profiler, the telemetry buffers and the quantum observers
        (tracker, timeline, tally) are quantum-granular and fed per
        batch, the observers from two frame-local depth compares at
        the save/restore sites.
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
        gate = (self._step_gate if self._max_steps is not None
                or self._watchdog is not None else None)
        observed = self._observed
        quantum_started = self._quantum_started
        quantum_stopped = self._quantum_stopped
        events = self.events
        events_on = self._tracing
        handle_overflow = scheme.handle_overflow
        handle_underflow = scheme.handle_underflow
        context_switch = scheme.context_switch
        block = self._block
        wake_readers = self._wake_readers
        wake_writers = self._wake_writers
        do_close = self._do_close
        queue = ready._queue
        popleft = queue.popleft
        queue_extend = queue.extend
        # Plain FIFO with no fault injector attached: a wake is exactly
        # "state = READY, append to the deque" (the push_woken fast
        # path); neither condition can change during a run.  Tracing
        # can, so the wake sites check ``events_on`` and fall back.
        fifo_wake = ready._fifo and ready.faults is None
        READY_, BLOCKED_ = READY, BLOCKED
        # op classes as frame locals (one global load each, not per step)
        Tick_, Call_, Read_, Write_ = Tick, Call, Read, Write
        ReadLine_, CloseStream_, YieldCPU_ = ReadLine, CloseStream, YieldCPU
        FlushHint_, Spawn_, Join_ = FlushHint, Spawn, Join
        # -- run-global accumulators, folded once in the outer finally --
        steps = 0                  # -> self._steps
        progress = 0               # -> self._progress
        compute = 0                # -> counters.compute_cycles
        call_cycles = 0            # -> counters.call_cycles
        saves_total = 0            # -> counters.saves
        restores_total = 0         # -> counters.restores
        # the running quantum's depth excursion, for the observers;
        # reset at each observed dispatch (unobserved, the save/restore
        # compares run on stale bounds that nothing reads)
        low = high = self.current.windows.depth
        try:
            while True:            # one iteration per quantum
                thread = self.current
                tw = thread.windows
                gen_stack = thread.gen_stack
                # -- per-quantum accumulators (per-thread statistics) --
                n_saves = 0        # -> tw.stat_saves (== thread.calls)
                n_restores = 0     # -> tw.stat_restores (== thread.returns)
                resume = thread.resume_value
                steps += 1         # the entry iteration
                try:
                    if gate is not None and gate(steps, progress):
                        return     # EXIT_BUDGET
                    # Entry with an in-flight op (_continue_pending,
                    # inlined): completion shares the step with the
                    # send that follows, as in the reference loop's
                    # pending-resume iteration; a still-blocked op
                    # re-blocks without entering the batch (falling
                    # through to the dispatch below).
                    pending = thread.pending
                    if pending is None:
                        gen = gen_stack[-1]
                    else:
                        gen = None
                        kind = pending[0]
                        stream = pending[1]
                        if kind == "write":
                            data, offset = pending[2], pending[3]
                            # -- Stream.push, inlined (and without the
                            # tail-slice allocation push would need) --
                            if stream.closed:
                                raise StreamClosedError(
                                    "write to closed stream %r"
                                    % (stream.name,))
                            sdata = stream._data
                            pushed = stream.capacity - len(sdata)
                            want = len(data) - offset
                            if pushed:
                                if pushed >= want:
                                    pushed = want
                                    sdata.extend(data[offset:])
                                else:
                                    sdata.extend(
                                        data[offset:offset + pushed])
                                stream.bytes_written += pushed
                                offset += pushed
                                if stream.read_waiters:
                                    if fifo_wake and not events_on:
                                        for waiter in stream.read_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.read_waiters)
                                        del stream.read_waiters[:]
                                    else:
                                        wake_readers(stream)
                            if offset >= len(data):
                                thread.pending = None
                                resume = None
                                progress += 1
                                gen = gen_stack[-1]
                            else:
                                thread.pending = ("write", stream, data,
                                                  offset)
                        elif kind == "read":
                            sdata = stream._data
                            if sdata or stream.closed:
                                # -- Stream.pull, inlined --
                                take = pending[2]
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
                                if take and stream.write_waiters:
                                    if fifo_wake and not events_on:
                                        for waiter in stream.write_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.write_waiters)
                                        del stream.write_waiters[:]
                                    else:
                                        wake_writers(stream)
                                thread.pending = None
                                resume = data
                                progress += 1
                                gen = gen_stack[-1]
                        elif kind == "readline":
                            # -- has_line/at_eof/pull_line, inlined --
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
                            elif len(sdata) >= stream.capacity:
                                raise RuntimeFault(
                                    "readline on %r: line longer than "
                                    "the stream capacity" % stream.name)
                            else:
                                line = None
                            if line is not None:
                                if line and stream.write_waiters:
                                    if fifo_wake and not events_on:
                                        for waiter in stream.write_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.write_waiters)
                                        del stream.write_waiters[:]
                                    else:
                                        wake_writers(stream)
                                thread.pending = None
                                resume = line
                                progress += 1
                                gen = gen_stack[-1]
                        elif kind == "join":
                            if stream.state == DONE:
                                thread.pending = None
                                resume = stream.result
                                progress += 1
                                gen = gen_stack[-1]
                        else:
                            raise RuntimeFault(
                                "unknown pending op %r" % kind)
                        if gen is None:
                            block(thread)
                    while gen is not None:
                        try:
                            cmd = gen.send(resume)
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
                            n_restores += 1
                            call_cycles += restore_cost
                            target = below[cwp]
                            if wim[target]:
                                # Underflow: the in-place restore
                                # (§3.2); the CWP does not move.
                                if events_on:
                                    counters.call_cycles += call_cycles
                                    call_cycles = 0
                                handle_underflow(tw)
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
                            if audit is not None:
                                audit(steps, compute + call_cycles)
                            resume = got
                            gen = gen_stack[-1]
                            steps += 1
                            if gate is not None and gate(steps, progress):
                                return  # EXIT_BUDGET
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
                            n_saves += 1
                            call_cycles += save_cost
                            target = above[cwp]
                            if wim[target]:
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
                            if audit is not None:
                                audit(steps, compute + call_cycles)
                            gen = cmd.factory(*args)
                            gen_stack.append(gen)
                        elif t is Read_:
                            stream = cmd.stream
                            steps += 1  # the attempt iteration
                            if gate is not None and gate(steps, progress):
                                return  # EXIT_BUDGET
                            sdata = stream._data
                            if sdata or stream.closed:
                                # -- Stream.pull, inlined --
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
                                        if fifo_wake and not events_on:
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
                            thread.pending = ("read", stream,
                                              cmd.max_bytes)
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
                            if gate is not None and gate(steps, progress):
                                return  # EXIT_BUDGET
                            # -- Stream.push, inlined --
                            if stream.closed:
                                raise StreamClosedError(
                                    "write to closed stream %r"
                                    % (stream.name,))
                            sdata = stream._data
                            pushed = stream.capacity - len(sdata)
                            want = len(data)
                            if pushed >= want:
                                pushed = want
                                sdata.extend(data)
                            elif pushed:
                                sdata.extend(data[:pushed])
                            if pushed:
                                stream.bytes_written += pushed
                                if stream.read_waiters:
                                    if fifo_wake and not events_on:
                                        for waiter in \
                                                stream.read_waiters:
                                            waiter.blocked_on = None
                                            waiter.state = READY_
                                        queue_extend(stream.read_waiters)
                                        del stream.read_waiters[:]
                                    else:
                                        wake_readers(stream)
                            if pushed >= want:
                                progress += 1
                                continue
                            # -- _block, inlined --
                            thread.pending = ("write", stream, data,
                                              pushed)
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
                            if gate is not None and gate(steps, progress):
                                return  # EXIT_BUDGET
                            # -- has_line/at_eof/pull_line, inlined --
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
                                thread.pending = ("readline", stream)
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
                                if fifo_wake and not events_on:
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
                            thread.flush_on_switch = cmd.flush
                        elif t is Spawn_:
                            resume = self._spawn(cmd.factory, cmd.args,
                                                 cmd.name)
                            progress += 1
                        elif t is Join_:
                            target_t = cmd.thread
                            if target_t is thread:
                                raise RuntimeFault(
                                    "%s tried to join itself"
                                    % thread.name)
                            steps += 1
                            if gate is not None and gate(steps, progress):
                                return  # EXIT_BUDGET
                            if target_t.state == DONE:
                                progress += 1
                                resume = target_t.result
                                continue
                            # -- _block, inlined --
                            thread.pending = ("join", target_t)
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
                        if gate is not None and gate(steps, progress):
                            return  # EXIT_BUDGET
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
                    if observed:
                        # the observers read counters.total_cycles
                        if compute:
                            counters.compute_cycles += compute
                            compute = 0
                        if call_cycles:
                            counters.call_cycles += call_cycles
                            call_cycles = 0
                        quantum_stopped(thread, low, high)
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
                # Dispatch the next thread without leaving the frame.
                if not queue:
                    return  # all done, or deadlock (outer loop decides)
                # _dispatch, inlined; tracing is read once per quantum,
                # here, and what an untraced quantum accumulated folds
                # before the switch is stamped
                events_on = self._tracing
                if events_on:
                    counters.compute_cycles += compute
                    counters.call_cycles += call_cycles
                    compute = call_cycles = 0
                if ready.sample_slackness:
                    ready.slackness_samples.append(len(queue) - 1)
                nxt = popleft()
                out = self.last_suspended
                if out is not nxt:
                    if out is not None:
                        context_switch(out.windows, nxt.windows,
                                       flush_out=out.flush_on_switch)
                    else:
                        context_switch(None, nxt.windows, flush_out=False)
                # else: a ``sched`` fault shuffled the thread that just
                # yielded back to the head of the queue; it resumes with
                # no switch and no cost (as in _dispatch)
                self.last_suspended = None
                self.current = nxt
                nxt.state = RUNNING
                if not nxt.gen_stack:
                    nxt.start_root()
                    if verify:
                        cpu.write_local(0, ("sig", nxt.tid, 1))
                if events_on:
                    events.emit("dispatch", tid=nxt.tid,
                                depth=nxt.windows.depth)
                if observed:
                    quantum_started(nxt, out is not nxt)
                    low = high = nxt.windows.depth
                if audit is not None:
                    audit(steps, compute + call_cycles)
        finally:
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

    # -- blocking stream operations ------------------------------------------------

    def _block(self, thread: SimThread) -> None:
        pending = thread.pending
        kind = pending[0]
        if kind == "join":
            target: SimThread = pending[1]
            target.join_waiters.append(thread)
            thread.blocked_on = "join %s" % target.name
        elif kind == "write":
            stream: Stream = pending[1]
            stream.write_waiters.append(thread)
            thread.blocked_on = stream.write_label
        else:
            stream = pending[1]
            stream.read_waiters.append(thread)
            thread.blocked_on = stream.read_label
        thread.state = BLOCKED
        thread.blocks += 1
        self.last_suspended = thread
        self.current = None
        if self._tracing:
            if kind == "join":
                op, on = "join", pending[1].name
            else:
                op = "write" if kind == "write" else "read"
                on = pending[1].name or "stream"
            self.events.emit("block", tid=thread.tid, on=on, op=op)

    def _do_close(self, stream: Stream) -> None:
        if self._tally is not None and not stream.closed:
            self._tally.stream_closes += 1
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
