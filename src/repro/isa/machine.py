"""The micro-SPARC interpreter.

Each hardware thread has its own program counter, condition codes,
(shadowed) global registers and window state; all threads share the
physical window file, the memory, and the bound window-management
scheme.  ``save``/``restore`` execute through
:class:`repro.windows.cpu.WindowCPU`, so window traps — including the
in-place underflow restore and the emulated restore-as-add of §4.3 —
happen exactly as in the multithreading runtime, but now with live
register data produced by real instructions.

Opcode dispatch is a table of bound handlers precomputed at machine
construction (the threaded-code technique of interpreter lore), not an
if/elif ladder: the fetch loop does one dict lookup and one call per
instruction.  Each handler returns a falsy value to continue the batch,
or a batch-exit reason code (:mod:`repro.runtime.batch`) when it ended
the current thread's quantum: ``EXIT_DONE`` from ``halt``,
``EXIT_YIELDED`` from a ``yield`` that switched.  The fetch loop itself
reports ``EXIT_BUDGET`` when the caller's instruction budget runs dry
mid-batch — the same exit protocol the runtime kernel's batched core
uses, so the two interpreters can share tooling.

This is the only interpreter of the guest ISA.  The verifier's
:class:`repro.analysis.absmachine.AbstractMachine` is a subclass that
keeps register values in logical frames instead of the physical file;
it overrides only the seam below the handlers: register read and
write (``_value``/``_read``/``_write``), the memory-address,
return-link and condition-code reads (``_address``, ``_link``,
``_cc``), the window motion of ``save``/``restore``
(``_save``/``_restore``), the context switch, and the
``thread_class``/``fault_class`` attributes.  Every opcode's cycle
charge and pc update is written once, here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Type

from repro.core import make_scheme
from repro.errors import ReproError
from repro.isa.assembler import Program
from repro.isa.instructions import ALU_FUNCS, ALU_OPS, BRANCH_TESTS, Operand
from repro.isa.registers import GLOBAL, IN, LOCAL, OUT
from repro.metrics.counters import Counters
from repro.runtime.batch import EXIT_BUDGET, EXIT_DONE, EXIT_YIELDED
from repro.windows.cpu import WindowCPU
from repro.windows.errors import WindowError
from repro.windows.thread_windows import ThreadWindows

#: the link register ``call`` writes
_O7 = Operand.reg(OUT, 7)


class MachineFault(ReproError):
    """Illegal execution (an ALU fault, pc out of range, budget
    exhaustion, ...); context such as the faulting ``pc`` renders as a
    bracketed suffix."""


class HWThread:
    """One hardware thread context."""

    __slots__ = ("tid", "name", "pc", "args", "cc", "windows",
                 "shadow_globals", "done", "exit_value", "instructions")

    def __init__(self, tid: int, name: str, entry: int, args):
        self.tid = tid
        self.name = name
        self.pc = entry
        self.args = tuple(args)
        self.cc = 0  # last cmp result (signed difference)
        self.windows = ThreadWindows(tid)
        self.shadow_globals: List[int] = [0] * 8
        self.done = False
        self.exit_value: Optional[int] = None
        self.instructions = 0

    def __repr__(self) -> str:
        return "HWThread(%d, %r, pc=%d, done=%s)" % (
            self.tid, self.name, self.pc, self.done)


class Machine:
    """Interpreter for an assembled :class:`Program`."""

    #: the per-thread context :meth:`add_thread` creates
    thread_class: Type[HWThread] = HWThread
    #: the exception :meth:`fault` builds for a guest failure
    fault_class: Type[ReproError] = MachineFault

    def __init__(self, program: Program, n_windows: int = 8,
                 scheme: str = "SP"):
        self.program = program
        self.counters = Counters()
        self.cpu = WindowCPU(n_windows, counters=self.counters)
        self.scheme = make_scheme(scheme, self.cpu)
        wf = self.cpu.wf
        #: bank -> the physical file's accessor (the register seam)
        self._readers: Dict[str, Callable] = {
            GLOBAL: wf.read_global, OUT: wf.read_out,
            LOCAL: wf.read_local, IN: wf.read_in}
        self._writers: Dict[str, Callable] = {
            GLOBAL: wf.write_global, OUT: wf.write_out,
            LOCAL: wf.write_local, IN: wf.write_in}
        self.memory: Dict[int, int] = {}
        self.threads: List[HWThread] = []
        self.ready: deque = deque()
        self.current: Optional[HWThread] = None
        self._dispatch = self._build_dispatch()
        #: the cycle profiler ``RunTelemetry.attach`` arms (None: off;
        #: the fetch loop's guard is a single hoisted-local check)
        self._profiler = None

    def _build_dispatch(self) -> Dict[str, Callable]:
        """Precompute the opcode -> bound-handler table."""
        dispatch: Dict[str, Callable] = {}
        for op in ALU_OPS:
            dispatch[op] = self._make_alu(op, ALU_FUNCS[op])
        for op, test in BRANCH_TESTS.items():
            dispatch[op] = self._make_branch(test)
        dispatch.update({
            "mov": self._op_mov,
            "cmp": self._op_cmp,
            "ba": self._op_ba,
            "ld": self._op_ld,
            "st": self._op_st,
            "save": self._op_save,
            "restore": self._op_restore,
            "call": self._op_call,
            "retl": self._op_retl,
            "ret": self._op_ret,
            "retadd": self._op_retadd,
            "nop": self._op_nop,
            "halt": self._op_halt,
            "yield": self._op_yield,
        })
        return dispatch

    def fault(self, message: str, *args: Any, **context: Any) -> ReproError:
        """The guest-failure exception ``message % args``, ready to
        raise, with ``context`` (the faulting ``pc``, ...)."""
        return self.fault_class(message % args, **context)

    # -- setup -------------------------------------------------------------

    def add_thread(self, entry: str = "start", args=(),
                   name: str = "") -> HWThread:
        thread = self.thread_class(
            len(self.threads), name or "hw%d" % len(self.threads),
            self.program.entry(entry), args)
        self.threads.append(thread)
        self.scheme.register(thread.windows)
        self.ready.append(thread)
        return thread

    # -- memory helpers ------------------------------------------------------

    def poke(self, addr: int, value: int) -> None:
        self.memory[addr] = value

    # -- execution -------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> Dict[str, Optional[int]]:
        steps = 0
        while self.ready or self.current is not None:
            if self.current is None:
                self._switch_to(self.ready.popleft())
            executed, reason = self._run_batch(max_steps - steps)
            steps += executed
            if steps >= max_steps:
                # Checked on every batch boundary, not only on
                # EXIT_BUDGET, so a batch that halts or yields exactly
                # on the budget line reports the same way.
                raise self.fault(
                    "step budget of %d exhausted (last batch: %s)",
                    max_steps,
                    "budget" if reason is EXIT_BUDGET else "event")
        self.counters.fold_thread_stats(t.windows for t in self.threads)
        return {t.name: t.exit_value for t in self.threads}

    def _switch_to(self, thread: HWThread) -> None:
        out = self.current
        if out is not None:
            out.shadow_globals = list(self.cpu.wf.global_regs)
        self.scheme.context_switch(
            out.windows if out is not None else None, thread.windows)
        first_run = thread.instructions == 0
        self.cpu.wf.global_regs[:] = thread.shadow_globals
        if first_run:
            for i, arg in enumerate(thread.args[:6]):
                self.cpu.wf.write_in(i, arg)
        self.current = thread

    def _run_batch(self, budget: int):
        """Run the current thread's batch; returns ``(executed, reason)``.

        ``reason`` is the batch-exit code: whatever the quantum-ending
        handler returned (``EXIT_DONE``, ``EXIT_YIELDED``), or
        ``EXIT_BUDGET`` when the fetch loop consumed the caller's whole
        instruction budget without an exit event.
        """
        thread = self.current
        assert thread is not None
        instrs = self.program.instructions
        n_instrs = len(instrs)
        dispatch_get = self._dispatch.get
        counters = self.counters
        prof = self._profiler
        # countdown hoisted into a local, residue persisted in the
        # finally (see CycleProfiler: it must survive short quanta)
        prof_cd = prof._cd if prof is not None else 0
        executed = 0
        try:
            while executed < budget:
                pc = thread.pc
                if not 0 <= pc < n_instrs:
                    raise self.fault("%s: pc %d out of range",
                                     thread.name, pc)
                instr = instrs[pc]
                executed += 1
                thread.instructions += 1
                if prof is not None:
                    prof_cd -= 1
                    if prof_cd <= 0:
                        prof_cd = prof.check_every
                        prof.check_op(thread.name, instr.op, counters)
                handler = dispatch_get(instr.op)
                if handler is None:  # pragma: no cover - assembler rejects
                    raise self.fault("unknown op %r", instr.op)
                reason = handler(thread, instr)
                if reason:
                    return executed, reason
            return executed, EXIT_BUDGET
        finally:
            if prof is not None:
                prof._cd = prof_cd

    # -- opcode handlers (one entry each in the dispatch table) --------------

    def _make_alu(self, op: str, fn: Callable[[int, int], int]) -> Callable:
        def run_alu(thread: HWThread, instr) -> bool:
            ops = instr.operands
            a = self._value(thread, ops[0])
            b = self._value(thread, ops[1])
            try:
                value = fn(a, b)
            except (ValueError, TypeError, OverflowError) as exc:
                raise self.fault("%s: %s faults: %s", thread.name, op, exc,
                                 pc=thread.pc) from exc
            self._write(thread, ops[2], value)
            self.counters.compute_cycles += 1
            thread.pc += 1
            return False
        return run_alu

    def _make_branch(self, test: Callable[[int], bool]) -> Callable:
        def run_branch(thread: HWThread, instr) -> bool:
            thread.pc = (instr.label if test(self._cc(thread, instr))
                         else thread.pc + 1)
            self.counters.compute_cycles += 1
            return False
        return run_branch

    def _op_mov(self, thread: HWThread, instr) -> bool:
        self._write(thread, instr.operands[1],
                    self._value(thread, instr.operands[0]))
        self.counters.compute_cycles += 1
        thread.pc += 1
        return False

    def _op_cmp(self, thread: HWThread, instr) -> bool:
        thread.cc = (self._value(thread, instr.operands[0])
                     - self._value(thread, instr.operands[1]))
        self.counters.compute_cycles += 1
        thread.pc += 1
        return False

    def _op_ba(self, thread: HWThread, instr) -> bool:
        thread.pc = instr.label
        self.counters.compute_cycles += 1
        return False

    def _op_ld(self, thread: HWThread, instr) -> bool:
        addr = self._address(thread, instr.operands[0])
        self._write(thread, instr.operands[1], self.memory.get(addr, 0))
        self.counters.compute_cycles += 2
        thread.pc += 1
        return False

    def _op_st(self, thread: HWThread, instr) -> bool:
        addr = self._address(thread, instr.operands[1])
        self.memory[addr] = self._value(thread, instr.operands[0])
        self.counters.compute_cycles += 3
        thread.pc += 1
        return False

    def _op_save(self, thread: HWThread, instr) -> bool:
        """A ``save``, optionally with the add function: the operands
        are read in the caller's window, the result written in the
        callee's."""
        ops = instr.operands
        if ops:
            value = self._value(thread, ops[0]) + self._value(thread, ops[1])
            self._save(thread)
            self._write(thread, ops[2], value)
        else:
            self._save(thread)
        thread.pc += 1
        return False

    def _op_restore(self, thread: HWThread, instr) -> bool:
        self._do_restore(thread, instr.operands)
        thread.pc += 1
        return False

    def _op_call(self, thread: HWThread, instr) -> bool:
        self._write(thread, _O7, thread.pc)
        self.counters.compute_cycles += 1
        thread.pc = instr.label
        return False

    def _op_retl(self, thread: HWThread, instr) -> bool:
        thread.pc = self._link(thread, OUT)
        self.counters.compute_cycles += 1
        return False

    def _op_ret(self, thread: HWThread, instr) -> bool:
        target = self._link(thread, IN)
        self._do_restore(thread, ())
        thread.pc = target
        return False

    def _op_retadd(self, thread: HWThread, instr) -> bool:
        target = self._link(thread, IN)
        self._do_restore(thread, instr.operands)
        thread.pc = target
        return False

    def _op_nop(self, thread: HWThread, instr) -> bool:
        self.counters.compute_cycles += 1
        thread.pc += 1
        return False

    def _op_halt(self, thread: HWThread, instr) -> int:
        thread.exit_value = self._read(thread, OUT, 0)
        thread.done = True
        self.scheme.retire(thread.windows)
        self.current = None
        return EXIT_DONE

    def _op_yield(self, thread: HWThread, instr):
        self.counters.compute_cycles += 1
        thread.pc += 1
        if self.ready:
            self.ready.append(thread)
            self._switch_to(self.ready.popleft())
            return EXIT_YIELDED
        return False

    def _do_restore(self, thread: HWThread, operands) -> None:
        """A ``restore``, optionally with the add function of §4.3.

        The operands are read in the callee's window and the result is
        written in the caller's — across a possibly in-place underflow
        trap, which is exactly the case the paper's trap handler must
        emulate.
        """
        if operands:
            value = (self._value(thread, operands[0])
                     + self._value(thread, operands[1]))
            self._restore(thread)
            self._write(thread, operands[2], value)
        else:
            self._restore(thread)

    # -- the register seam (AbstractMachine overrides these) -----------------

    def _value(self, thread: HWThread, operand: Operand) -> int:
        """A register or immediate source operand."""
        if operand.kind == Operand.IMM:
            return operand.value
        return self._readers[operand.bank](operand.index)

    def _read(self, thread: HWThread, bank: str, index: int) -> int:
        return self._readers[bank](index)

    def _write(self, thread: HWThread, operand: Operand, value: int) -> None:
        self._writers[operand.bank](operand.index, value)

    def _address(self, thread: HWThread, mem: Operand) -> int:
        return self._read(thread, mem.bank, mem.index) + mem.offset

    def _link(self, thread: HWThread, bank: str) -> int:
        """The return target through ``%o7`` (retl) or ``%i7``."""
        return self._read(thread, bank, 7) + 1

    def _cc(self, thread: HWThread, instr) -> int:
        return thread.cc

    def _save(self, thread: HWThread) -> None:
        self.cpu.save(thread.windows)

    def _restore(self, thread: HWThread) -> None:
        try:
            self.cpu.restore(thread.windows)
        except WindowError as exc:  # e.g. a restore at the entry window
            raise self.fault("%s", exc, pc=thread.pc) from exc
