"""Abstract executor: the real interpreter with logical register frames.

This is the precision engine behind the verifier's *exact* predictions.
:class:`AbstractMachine` is :class:`repro.isa.machine.Machine` — the
same fetch loop, scheduler, step-budget rule, thread launch and opcode
handlers with their cycle charges, driving a real
:class:`~repro.windows.cpu.WindowCPU` with the scheme from
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
:data:`UNKNOWN`, and the sentinel absorbs arithmetic.

When control flow or memory addressing comes to depend on an UNKNOWN
value the executor raises :class:`ImpreciseError` — the verifier then
falls back to the CFG depth bounds ("bounded" verdict).  A fault that
fires on concrete state (an ALU fault, pc out of range, restore at the
entry window, budget exhaustion) is a *guaranteed* guest failure and
raises :class:`ProgramError`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ReproError
from repro.isa.assembler import Program
from repro.isa.instructions import Operand
from repro.isa.machine import HWThread, Machine
from repro.isa.registers import GLOBAL, IN, LOCAL, OUT


class _Unknown:
    """Singleton sentinel for residue values: never compares equal, and
    any arithmetic or logic on it yields the sentinel itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<?>"

    def _absorb(self, other: object) -> "_Unknown":
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _absorb
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _absorb


UNKNOWN = _Unknown()


class ImpreciseError(ReproError):
    """Control flow or addressing depends on an unknown value — the
    abstract execution cannot continue exactly."""


class ProgramError(ReproError):
    """The guest is guaranteed to fault at this point on real runs."""


class AbsThread(HWThread):
    """A hardware thread whose registers live in logical frames."""

    __slots__ = ("frames", "max_depth")

    def __init__(self, tid: int, name: str, entry: int, args):
        super().__init__(tid, name, entry, args)
        #: logical register windows, innermost last: bank -> values.
        #: The entry frame's ins and locals are zero-filled by the
        #: scheme at first dispatch; its outs are physical residue.
        self.frames: List[Dict[str, List[Any]]] = [
            {IN: [0] * 8, LOCAL: [0] * 8, OUT: [UNKNOWN] * 8}]
        #: deepest logical call depth reached
        self.max_depth = 0


class AbstractMachine(Machine):
    """Counter-exact abstract interpreter for an assembled program."""

    thread_class = AbsThread
    fault_class = ProgramError

    def __init__(self, program: Program, n_windows: int = 8,
                 scheme: str = "SP"):
        super().__init__(program, n_windows=n_windows, scheme=scheme)
        #: saves whose new CWP is window ``n_windows - 1``: the CWP
        #: wrapped around the cyclic file
        self.wraparounds = 0

    def _switch_to(self, thread: Any) -> None:
        out = self.current
        self.scheme.context_switch(
            out.windows if out is not None else None, thread.windows)
        if thread.instructions == 0:
            thread.max_depth = thread.windows.depth
            ins = thread.frames[-1][IN]
            for i, arg in enumerate(thread.args[:6]):
                ins[i] = arg
        self.current = thread

    def _op_halt(self, thread: Any, instr) -> int:
        reason = super()._op_halt(thread, instr)
        if thread.exit_value is UNKNOWN:
            thread.exit_value = None
        return reason

    # -- the register seam, on logical frames ------------------------------

    def _value(self, thread: Any, operand: Operand) -> Any:
        if operand.kind == Operand.IMM:
            return operand.value
        return self._read(thread, operand.bank, operand.index)

    def _read(self, thread: Any, bank: str, index: int) -> Any:
        if bank == GLOBAL:
            return thread.shadow_globals[index]
        return thread.frames[-1][bank][index]

    def _write(self, thread: Any, operand: Operand, value: Any) -> None:
        if operand.bank == GLOBAL:
            if operand.index:  # %g0 is hardwired to zero
                thread.shadow_globals[operand.index] = value
        else:
            thread.frames[-1][operand.bank][operand.index] = value

    def _address(self, thread: Any, mem: Operand) -> Any:
        base = self._read(thread, mem.bank, mem.index)
        if base is UNKNOWN:
            raise ImpreciseError(
                "%s: memory access through an unknown %%%s%d"
                % (thread.name, mem.bank, mem.index), pc=thread.pc)
        return base + mem.offset

    def _link(self, thread: Any, bank: str) -> Any:
        link = self._read(thread, bank, 7)
        if link is UNKNOWN:
            raise ImpreciseError(
                "%s: %s through an unknown %%%s7"
                % (thread.name, "retl" if bank == OUT else "return", bank),
                pc=thread.pc)
        return link + 1

    def _cc(self, thread: Any, instr) -> Any:
        if thread.cc is UNKNOWN:
            raise ImpreciseError(
                "%s: %s branches on an unknown condition code"
                % (thread.name, instr.op), pc=thread.pc)
        return thread.cc

    def _save(self, thread: Any) -> None:
        tw = thread.windows
        self.cpu.save(tw)
        if tw.cwp == self.cpu.n_windows - 1:
            self.wraparounds += 1
        if tw.depth > thread.max_depth:
            thread.max_depth = tw.depth
        # callee ins alias the caller's outs (hardware adjacency);
        # locals and outs start as physical residue
        thread.frames.append({IN: thread.frames[-1][OUT],
                              LOCAL: [UNKNOWN] * 8, OUT: [UNKNOWN] * 8})

    def _restore(self, thread: Any) -> None:
        super()._restore(thread)
        thread.frames.pop()
