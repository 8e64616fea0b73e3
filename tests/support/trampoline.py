"""The step-granular reference loop the differential suites pin the
production kernel to.

Production has one dispatch loop:
:meth:`repro.runtime.kernel.Kernel._run_batched`, which runs each
quantum as a straight-line batch and carries
every hook — fault injection, the invariant audit, the watchdog, step
budgets, the quantum record log and tracing into the trace recorder.
:class:`ReferenceKernel` keeps the generator trampoline it replaced:
one runtime op per step, each ``save``/``restore`` through
``WindowCPU``, every check re-made at every step.  It owns the
methods the batched loop inlines and ``Kernel`` no longer has: the
dispatch (``_next_quantum``, ``_dispatch``), the block
(``_block``) and the resume of a blocked op (``_continue_pending``,
where the batched loop instead replays the op through its own
branch).  Simple enough to read as the specification, it is what the
batched loop must match exactly: counters, per-thread statistics,
step counts, crash contexts and trace-event streams.  With a
``RunObserver`` armed it appends the same record-log entries as the
batched loop: the dispatch keeps its facts and the quantum's depth
bounds so far in ``_dispatched``, the quantum's exit (``_log_quantum``)
appends them with the stop facts, and a quantum the step budget cut
takes its record back when the next ``run()`` resumes it, so
RunReports from both loops are byte-identical
(``tests/metrics/test_reference_loop_observers.py``).

* :class:`ReferenceKernel` — a ``Kernel`` whose runs take the
  reference loop (``RunResult.loop == "step"``);
* :func:`force_trampoline` — pin an already-built kernel to it (an
  ``instrument=`` hook for pipelines that build their own kernel);
* :func:`make_kernel` — ``Kernel(...)`` or ``ReferenceKernel(...)`` by
  the test-parameter name ``"batched"``/``"generator"``;
* :func:`trampoline_everywhere` — every kernel a whole job builds (a
  fuzz campaign, a minimization) runs the reference loop.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime.batch import (
    EXIT_BUDGET,
    EXIT_DONE,
    EXIT_YIELDED,
)
from repro.runtime.errors import RuntimeFault
from repro.runtime.kernel import Kernel, RunResult
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
from repro.runtime.streams import Stream
from repro.runtime.thread import BLOCKED, DONE, RUNNING, SimThread
from repro.windows.errors import WindowIntegrityError
from tests.support.streams import at_eof, has_line, pull, pull_line, push

#: a quantum that ended with its thread blocked on a stream or a join
#: (``repro.runtime.batch`` holds the codes production returns; the
#: batched kernel leaves a block with ``break  # EXIT_BLOCKED``)
EXIT_BLOCKED = 1

#: the test-parameter name of the reference loop (the execution core
#: it once was)
REFERENCE_CORE = "generator"


class ReferenceKernel(Kernel):
    """A kernel that runs every quantum on the step-granular loop."""

    def _run_to_completion(self, max_steps: Optional[int]) -> RunResult:
        self._max_steps = max_steps
        #: an observed quantum's dispatch facts and its depth bounds at
        #: the dispatch (or where a cut quantum had reached), until its
        #: exit logs them
        self._dispatched = None
        if self._observer is not None and self._cut:
            # resume the quantum the step budget cut: its provisional
            # record gives way to the one its exit appends
            self._dispatched = self._observer.log.pop()[:6]
        try:
            while self._next_quantum():
                self._run_quantum(max_steps)
                if max_steps is not None and self._steps >= max_steps:
                    self._cut = 1
                    raise RuntimeFault("step budget of %d exceeded"
                                       % max_steps)
        finally:
            if self._dispatched is not None:
                # the audit failed at the dispatch: the quantum never
                # began, and is recorded as cut short
                self._log_quantum(self.current, self.current.windows.depth,
                                  self.current.windows.depth)
        return self._finish("step")

    def _next_quantum(self) -> bool:
        """Dispatch the next ready thread unless one is running; False
        when every thread is done, DeadlockError when all are blocked."""
        if self.current is None:
            if not self.ready:
                blocked = [t for t in self.threads if t.state == BLOCKED]
                if blocked:
                    raise self._deadlock_error(blocked)
                return False
            self._dispatch(self.ready._queue.popleft())
        return True

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
        if self._observer is not None:
            counters = self.counters
            cycle = counters.total_cycles
            depth = thread.windows.depth
            self._dispatched = (thread.tid, depth, cycle,
                                counters.switch_cycles
                                if out is not thread else None,
                                depth, depth)
            self._observer.timeline.snapshot(self.cpu, thread.tid, cycle)
        if self.audit:
            self._audit()

    def _run_quantum(self, max_steps: Optional[int]) -> int:
        """Step-granular quantum loop: one runtime op per step, with
        ``WindowCPU.save``/``restore`` doing the window work.  Runs the
        current thread until it blocks, yields or finishes."""
        thread = self.current
        assert thread is not None
        tw = thread.windows
        cpu = self.cpu
        counters = cpu.counters
        verify = self.verify_registers
        watchdog = self._watchdog
        prof = self._profiler
        gen_stack = thread.gen_stack
        # the quantum's depth excursion
        low = high = tw.depth
        if self._dispatched is not None:
            low, high = self._dispatched[4:]
        # the step a budget cut is counted already: it runs uncounted
        self._steps -= self._cut
        self._cut = 0
        try:
            while True:
                self._steps += 1
                if max_steps is not None and self._steps >= max_steps:
                    return EXIT_BUDGET
                if watchdog is not None and watchdog.stalled_for(
                        self._progress, self._steps) >= watchdog.max_stall:
                    raise self._livelock_error(watchdog, self._progress,
                                               self._steps)
                if thread.pending is not None:
                    if not self._continue_pending(thread):
                        self._block(thread)
                        return EXIT_BLOCKED
                    self._progress += 1
                gen = gen_stack[-1]
                try:
                    cmd = gen.send(thread.resume_value)
                except StopIteration as stop:
                    if self._handle_return(thread, getattr(stop, "value", None)):
                        return EXIT_DONE  # thread finished
                    if tw.depth < low:
                        low = tw.depth
                    continue
                thread.resume_value = None
                t = type(cmd)
                if t is Tick:
                    counters.compute_cycles += cmd.cycles
                    self._progress += 1
                elif t is Call:
                    self._do_call(thread, cmd)
                    if tw.depth > high:
                        high = tw.depth
                elif t is Read:
                    thread.pending = ("read", cmd.stream, cmd, 0)
                elif t is Write:
                    thread.pending = ("write", cmd.stream, cmd, 0)
                elif t is ReadLine:
                    thread.pending = ("readline", cmd.stream, cmd, 0)
                elif t is CloseStream:
                    self._do_close(cmd.stream)
                elif t is YieldCPU:
                    if self.ready:
                        if self._tracing:
                            self.events.emit("yield", tid=thread.tid)
                        self.ready.push_yielded(thread)
                        self.last_suspended = thread
                        self.current = None
                        return EXIT_YIELDED
                    # Nobody else to run: keep going, no switch, no cost.
                elif t is FlushHint:
                    thread.flush_on_switch = True
                elif t is Spawn:
                    thread.resume_value = self._spawn(
                        cmd.factory, cmd.args, cmd.name)
                    self._progress += 1
                elif t is Join:
                    if cmd.thread is thread:
                        raise RuntimeFault(
                            "%s tried to join itself" % thread.name)
                    thread.pending = ("join", cmd.thread, cmd, 0)
                else:
                    raise RuntimeFault(
                        "thread %s yielded %r; expected a runtime op"
                        % (thread.name, cmd))
        finally:
            if self._dispatched is not None:
                self._log_quantum(thread, low, high)
            # The profiler samples on quantum boundaries only — the
            # per-step path carries zero profiler code, and a quantum
            # (one thread's uninterrupted run) is the natural unit of
            # cycle attribution.  Stacks are captured where threads
            # block or yield; per-op attribution is derived exactly
            # from the run counters at finalize time.
            if prof is not None:
                prof._cd -= 1
                if prof._cd <= 0:
                    prof._check(thread, None, counters)

    def _log_quantum(self, thread: SimThread, low: int, high: int) -> None:
        """Append the quantum's record: its dispatch facts, then the
        depth bounds, the state it stopped in and the stop cycle."""
        self._observer.log.append(self._dispatched[:4] + (
            low, high, thread.state, self.counters.total_cycles))
        self._dispatched = None

    def _do_call(self, thread: SimThread, cmd: Call) -> None:
        thread.calls += 1
        self._progress += 1
        cpu = self.cpu
        tw = thread.windows
        args = cmd.args
        if self.verify_registers:
            for i, a in enumerate(args[:8]):
                cpu.write_out(i, a)
        cpu.save(tw)
        if self.verify_registers:
            for i, a in enumerate(args[:8]):
                got = cpu.read_in(i)
                if got is not a and got != a:
                    raise WindowIntegrityError(
                        "argument %d of %s corrupted across save: %r != %r"
                        % (i, thread.name, got, a),
                        thread=thread.name, argument=i, depth=tw.depth)
            cpu.write_local(0, ("sig", thread.tid, tw.depth))
        if self.audit:
            self._audit()
        thread.gen_stack.append(cmd.factory(*args))
        thread.resume_value = None

    def _handle_return(self, thread: SimThread, value: Any) -> bool:
        """Pop a finished procedure; True when the thread is done."""
        thread.gen_stack.pop()
        self._progress += 1
        tw = thread.windows
        cpu = self.cpu
        if not thread.gen_stack:
            if self.verify_registers and tw.depth != 1:
                raise WindowIntegrityError(
                    "thread %s finished at call depth %d"
                    % (thread.name, tw.depth))
            thread.result = value
            thread.state = DONE
            self.scheme.retire(tw)
            self.current = None
            events_on = self._tracing
            if events_on:
                self.events.emit("retire", tid=thread.tid,
                                 name=thread.name)
            for waiter in thread.join_waiters:
                waiter.blocked_on = None
                if events_on:
                    self.events.emit("wake", tid=waiter.tid,
                                     on=thread.name, op="join")
                self.ready.push_woken(waiter)
            del thread.join_waiters[:]
            return True
        thread.returns += 1
        if self.verify_registers:
            sig = cpu.read_local(0)
            if sig != ("sig", thread.tid, tw.depth):
                raise WindowIntegrityError(
                    "thread %s frame signature corrupted: %r at depth %d"
                    % (thread.name, sig, tw.depth),
                    thread=thread.name, depth=tw.depth)
        wf = cpu.wf
        wf._regs[wf._in_base[wf.cwp]] = value
        cpu.restore(tw)
        got = wf._regs[wf._out_base[wf.cwp]]
        if self.verify_registers and got is not value and got != value:
            raise WindowIntegrityError(
                "return value of %s corrupted across restore: %r != %r"
                % (thread.name, got, value),
                thread=thread.name, depth=tw.depth)
        thread.resume_value = got
        if self.audit:
            self._audit()
        return False

    def _continue_pending(self, thread: SimThread) -> bool:
        """Try to complete the in-flight op; False means block."""
        pending = thread.pending
        kind = pending[0]
        stream: Stream = pending[1]
        if kind == "write":
            data, offset = pending[2].data, pending[3]
            pushed = push(stream, data[offset:])
            if pushed:
                offset += pushed
                if stream.read_waiters:
                    self._wake_readers(stream)
            if offset >= len(data):
                thread.pending = None
                thread.resume_value = None
                return True
            thread.pending = ("write", stream, pending[2], offset)
            return False
        if kind == "read":
            if stream.is_empty and not stream.closed:
                return False
            data = pull(stream, pending[2].max_bytes)
            if data and stream.write_waiters:
                self._wake_writers(stream)
            thread.pending = None
            thread.resume_value = data
            return True
        if kind == "readline":
            if has_line(stream) or at_eof(stream):
                line = pull_line(stream)
                if line is None:
                    line = b""
                if line and stream.write_waiters:
                    self._wake_writers(stream)
                thread.pending = None
                thread.resume_value = line
                return True
            if stream.is_full:
                raise RuntimeFault(
                    "readline on %r: line longer than the stream capacity"
                    % stream.name)
            return False
        if kind == "join":
            target: SimThread = pending[1]
            if target.state != DONE:
                return False
            thread.pending = None
            thread.resume_value = target.result
            return True
        raise RuntimeFault("unknown pending op %r" % kind)

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


#: the loop's methods, for :func:`trampoline_everywhere`
_REFERENCE_METHODS = ("_run_to_completion", "_next_quantum", "_dispatch",
                      "_run_quantum", "_log_quantum", "_do_call",
                      "_handle_return", "_continue_pending", "_block")


def force_trampoline(kernel: Kernel) -> Kernel:
    """Pin an already-built kernel to the step-granular reference loop."""
    kernel.__class__ = ReferenceKernel
    return kernel


def make_kernel(core: str = "batched", **kwargs) -> Kernel:
    """A production kernel, or a reference one for ``"generator"``."""
    if core == REFERENCE_CORE:
        return ReferenceKernel(**kwargs)
    assert core == "batched", core
    return Kernel(**kwargs)


def trampoline_everywhere(monkeypatch) -> None:
    """Run every kernel (for the rest of the test) on the reference
    loop, including the ones a fuzz campaign or a minimization builds
    out of reach of the test."""
    for name in _REFERENCE_METHODS:
        monkeypatch.setattr(Kernel, name, ReferenceKernel.__dict__[name],
                            raising=False)
