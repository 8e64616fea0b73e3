"""Abstract executor: runs a guest program on the real window schemes.

This is the precision engine behind the verifier's *exact* predictions.
It interprets an assembled :class:`~repro.isa.assembler.Program` with
the same fetch/dispatch/scheduling structure as
:class:`repro.isa.machine.Machine`, and drives the same window policy:
a real :class:`~repro.windows.cpu.WindowCPU` with the scheme from
:func:`repro.core.make_scheme`, so every trap, spill, switch and cycle
charge comes from the code the simulator runs.  Only the register
*values* live elsewhere: each thread keeps them as a stack of *logical*
frames, and the physical file's contents are never read.

Logical frames are sound because the simulator always preserves frame
data across physical motion: spilled ins/locals round-trip through the
backing store, the outs of window ``w`` physically *are* the ins of the
window above (so caller outs and callee ins alias one list here), the
stack-top outs travel through ``saved_outs`` across switches, and the
in-place underflow restore copies ins to outs before reusing the
window.  What is *not* preserved is residue: a fresh window's locals
and outs hold whatever the previous occupant left, so they start as
:data:`UNKNOWN` and the sentinel propagates through arithmetic.

When control flow or memory addressing comes to depend on an UNKNOWN
value the executor raises :class:`ImpreciseError` — the verifier then
falls back to the CFG depth bounds ("bounded" verdict).  A fault that
fires on concrete state (pc out of range, restore at the entry window,
budget exhaustion) is a *guaranteed* guest failure and raises
:class:`ProgramError`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core import make_scheme
from repro.core.costs import CostModel
from repro.errors import ReproError
from repro.isa.assembler import Program
from repro.isa.instructions import ALU_FUNCS, BRANCH_TESTS, Operand
from repro.metrics.counters import Counters
from repro.runtime.batch import EXIT_BUDGET, EXIT_DONE, EXIT_YIELDED
from repro.windows.cpu import WindowCPU
from repro.windows.errors import WindowError
from repro.windows.thread_windows import ThreadWindows


class _Unknown:
    """Singleton sentinel for residue values (never compares equal)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<?>"


UNKNOWN = _Unknown()


class ImpreciseError(ReproError):
    """Control flow or addressing depends on an unknown value — the
    abstract execution cannot continue exactly."""


class ProgramError(ReproError):
    """The guest is guaranteed to fault at this point on real runs."""


class AbsFrame:
    """One logical register window: ins / locals / outs value lists."""

    __slots__ = ("ins", "local_regs", "outs")

    def __init__(self, ins: List[object], local_regs: List[object],
                 outs: List[object]):
        self.ins = ins
        self.local_regs = local_regs
        self.outs = outs


class AbsThread:
    """Abstract counterpart of ``machine.HWThread``."""

    __slots__ = ("tid", "name", "pc", "args", "cc", "windows", "globals",
                 "frames", "done", "exit_value", "instructions",
                 "max_depth")

    def __init__(self, tid: int, name: str, entry: int, args):
        self.tid = tid
        self.name = name
        self.pc = entry
        self.args = tuple(args)
        self.cc: object = 0
        self.windows = ThreadWindows(tid)
        self.globals: List[object] = [0] * 8
        # the entry frame: ins and locals are zero-filled by the scheme
        # at first dispatch; outs are physical residue
        self.frames: List[AbsFrame] = [
            AbsFrame([0] * 8, [0] * 8, [UNKNOWN] * 8)]
        self.done = False
        self.exit_value: Optional[int] = None
        self.instructions = 0
        #: deepest logical call depth reached
        self.max_depth = 0


class AbstractMachine:
    """Counter-exact abstract interpreter for an assembled program."""

    def __init__(self, program: Program, n_windows: int = 8,
                 scheme: str = "SP",
                 cost_model: Optional[CostModel] = None, **scheme_kwargs):
        self.program = program
        self.counters = Counters()
        self.cpu = WindowCPU(n_windows, cost_model=cost_model,
                             counters=self.counters)
        self.scheme = make_scheme(scheme, self.cpu, **scheme_kwargs)
        #: saves whose new CWP is window ``n_windows - 1``: the CWP
        #: wrapped around the cyclic file
        self.wraparounds = 0
        self.memory: Dict[object, object] = {}
        self.threads: List[AbsThread] = []
        self.ready: deque = deque()
        self.current: Optional[AbsThread] = None
        self.steps = 0

    # -- setup -------------------------------------------------------------

    def add_thread(self, entry: str = "start", args=(),
                   name: str = "") -> AbsThread:
        tid = len(self.threads)
        thread = AbsThread(tid, name or "hw%d" % tid,
                           self.program.entry(entry), args)
        self.threads.append(thread)
        self.scheme.register(thread.windows)
        self.ready.append(thread)
        return thread

    def poke(self, addr: int, value: int) -> None:
        self.memory[addr] = value

    def peek(self, addr: int):
        return self.memory.get(addr, 0)

    # -- execution ---------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> Dict[str, Optional[int]]:
        steps = 0
        while self.ready or self.current is not None:
            if self.current is None:
                self._switch_to(self.ready.popleft())
            executed, reason = self._run_batch(max_steps - steps)
            steps += executed
            if steps >= max_steps:
                raise ProgramError(
                    "step budget of %d exhausted (last batch: %s)"
                    % (max_steps,
                       "budget" if reason is EXIT_BUDGET else "event"))
        self.steps = steps
        self.counters.fold_thread_stats(t.windows for t in self.threads)
        return {t.name: t.exit_value for t in self.threads}

    def _switch_to(self, thread: AbsThread) -> None:
        out = self.current
        self.scheme.context_switch(
            out.windows if out is not None else None, thread.windows)
        if thread.instructions == 0:
            thread.max_depth = thread.windows.depth
            ins = thread.frames[-1].ins
            for i, arg in enumerate(thread.args[:6]):
                ins[i] = arg
        self.current = thread

    def _run_batch(self, budget: int) -> Tuple[int, int]:
        thread = self.current
        assert thread is not None
        instrs = self.program.instructions
        n_instrs = len(instrs)
        executed = 0
        while executed < budget:
            pc = thread.pc
            if not 0 <= pc < n_instrs:
                raise ProgramError(
                    "%s: pc %d out of range" % (thread.name, pc))
            instr = instrs[pc]
            executed += 1
            thread.instructions += 1
            reason = self._step(thread, instr)
            if reason:
                return executed, reason
        return executed, EXIT_BUDGET

    # -- one instruction ---------------------------------------------------

    def _step(self, thread: AbsThread, instr) -> Optional[int]:
        op = instr.op
        ops = instr.operands
        c = self.counters
        if op in ALU_FUNCS:
            a = self._value(thread, ops[0])
            b = self._value(thread, ops[1])
            if a is UNKNOWN or b is UNKNOWN:
                result: object = UNKNOWN
            else:
                try:
                    result = ALU_FUNCS[op](a, b)
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ProgramError(
                        "%s: %s faults: %s" % (thread.name, op, exc),
                        pc=thread.pc) from exc
            self._write(thread, ops[2], result)
            c.compute_cycles += 1
            thread.pc += 1
            return None
        if op in BRANCH_TESTS:
            cc = thread.cc
            if cc is UNKNOWN:
                raise ImpreciseError(
                    "%s: %s branches on an unknown condition code"
                    % (thread.name, op), pc=thread.pc)
            thread.pc = (instr.label if BRANCH_TESTS[op](cc)
                         else thread.pc + 1)
            c.compute_cycles += 1
            return None
        if op == "mov":
            self._write(thread, ops[1], self._value(thread, ops[0]))
            c.compute_cycles += 1
            thread.pc += 1
            return None
        if op == "cmp":
            a = self._value(thread, ops[0])
            b = self._value(thread, ops[1])
            thread.cc = UNKNOWN if (a is UNKNOWN or b is UNKNOWN) else a - b
            c.compute_cycles += 1
            thread.pc += 1
            return None
        if op == "ba":
            thread.pc = instr.label
            c.compute_cycles += 1
            return None
        if op == "ld":
            addr = self._address(thread, ops[0])
            self._write(thread, ops[1], self.memory.get(addr, 0))
            c.compute_cycles += 2
            thread.pc += 1
            return None
        if op == "st":
            addr = self._address(thread, ops[1])
            self.memory[addr] = self._value(thread, ops[0])
            c.compute_cycles += 3
            thread.pc += 1
            return None
        if op == "save":
            value: object = None
            if ops:
                a = self._value(thread, ops[0])
                b = self._value(thread, ops[1])
                value = (UNKNOWN if (a is UNKNOWN or b is UNKNOWN)
                         else a + b)
            tw = thread.windows
            self.cpu.save(tw)
            if tw.cwp == self.cpu.n_windows - 1:
                self.wraparounds += 1
            if tw.depth > thread.max_depth:
                thread.max_depth = tw.depth
            caller = thread.frames[-1]
            # callee ins alias the caller's outs (hardware adjacency);
            # locals and outs start as physical residue
            thread.frames.append(
                AbsFrame(caller.outs, [UNKNOWN] * 8, [UNKNOWN] * 8))
            if ops:
                self._write(thread, ops[2], value)
            thread.pc += 1
            return None
        if op == "restore":
            self._do_restore(thread, ops)
            thread.pc += 1
            return None
        if op == "call":
            thread.frames[-1].outs[7] = thread.pc
            c.compute_cycles += 1
            thread.pc = instr.label
            return None
        if op == "retl":
            link = thread.frames[-1].outs[7]
            if link is UNKNOWN:
                raise ImpreciseError(
                    "%s: retl through an unknown %%o7" % thread.name,
                    pc=thread.pc)
            thread.pc = link + 1
            c.compute_cycles += 1
            return None
        if op == "ret":
            target = self._return_target(thread)
            self._do_restore(thread, ())
            thread.pc = target
            return None
        if op == "retadd":
            target = self._return_target(thread)
            self._do_restore(thread, ops)
            thread.pc = target
            return None
        if op == "nop":
            c.compute_cycles += 1
            thread.pc += 1
            return None
        if op == "halt":
            value = thread.frames[-1].outs[0]
            thread.exit_value = None if value is UNKNOWN else value
            thread.done = True
            self.scheme.retire(thread.windows)
            self.current = None
            return EXIT_DONE
        if op == "yield":
            c.compute_cycles += 1
            thread.pc += 1
            if self.ready:
                self.ready.append(thread)
                self._switch_to(self.ready.popleft())
                return EXIT_YIELDED
            return None
        raise ProgramError("unknown op %r" % op, pc=thread.pc)

    def _return_target(self, thread: AbsThread) -> int:
        link = thread.frames[-1].ins[7]
        if link is UNKNOWN:
            raise ImpreciseError(
                "%s: return through an unknown %%i7" % thread.name,
                pc=thread.pc)
        return link + 1

    def _do_restore(self, thread: AbsThread, operands) -> None:
        value: object = None
        if operands:
            a = self._value(thread, operands[0])
            b = self._value(thread, operands[1])
            value = UNKNOWN if (a is UNKNOWN or b is UNKNOWN) else a + b
        try:
            self.cpu.restore(thread.windows)
        except WindowError as exc:
            raise ProgramError(str(exc), pc=thread.pc) from exc
        thread.frames.pop()
        if operands:
            self._write(thread, operands[2], value)

    # -- operand helpers ---------------------------------------------------

    def _address(self, thread: AbsThread, mem: Operand):
        base = self._read_register(thread, mem.bank, mem.index)
        if base is UNKNOWN:
            raise ImpreciseError(
                "%s: memory access through an unknown %%%s%d"
                % (thread.name, mem.bank, mem.index), pc=thread.pc)
        return base + mem.offset

    def _value(self, thread: AbsThread, operand: Operand):
        if operand.kind == Operand.IMM:
            return operand.value
        return self._read_register(thread, operand.bank, operand.index)

    def _read_register(self, thread: AbsThread, bank: str, index: int):
        if bank == "g":
            return thread.globals[index]
        frame = thread.frames[-1]
        if bank == "o":
            return frame.outs[index]
        if bank == "l":
            return frame.local_regs[index]
        return frame.ins[index]

    def _write(self, thread: AbsThread, operand: Operand, value) -> None:
        bank = operand.bank
        index = operand.index
        if bank == "g":
            if index != 0:  # %g0 is hardwired to zero
                thread.globals[index] = value
            return
        frame = thread.frames[-1]
        if bank == "o":
            frame.outs[index] = value
        elif bank == "l":
            frame.local_regs[index] = value
        else:
            frame.ins[index] = value
