"""Random-program differential: the abstract interpreter vs ``Machine``.

The committed corpus reaches few of the shapes the logical-frame layer
has to get right.  Hypothesis generates terminating guest programs that
only ever read initialized registers: straight-line ALU, ``mov`` and
``ld``/``st``; forward branches on a ``cmp`` of known values; calls
down a DAG of functions that return by ``ret``, ``retadd``,
``restore``+``retl`` or (leaves) plain ``retl``; and ``yield`` over
1-3 threads.  On 4 windows the call chains overflow and underflow, so
the runs cross in/out aliasing at ``save``, in-place underflow
restores, stack-top outs saved across switches and per-thread globals
across ``yield``.

For every scheme on 4 and 8 windows, :class:`AbstractMachine` must
return :class:`Machine`'s exit values and memory and equal it on every
``Counters`` field, on WIM wraparounds and on each thread's maximum
depth (the dynamic side read from the CPU's trace recorder, as
``test_differential._run_dynamic`` does).
"""

from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import AbstractMachine
from repro.isa import Machine, assemble
from repro.metrics.counters import Counters
from tests.helpers import save_stats

SCHEMES = ("NS", "SNP", "SP")
WINDOW_COUNTS = (4, 8)
MAX_STEPS = 200_000

GLOBALS = ["%%g%d" % i for i in range(8)]
#: %o7/%i7 carry return links and are never written by generated code
OUTS = ["%%o%d" % i for i in range(7)]
LOCALS = ["%%l%d" % i for i in range(8)]
INS = ["%%i%d" % i for i in range(7)]
FRAME_WRITABLE = GLOBALS[1:] + OUTS + LOCALS + INS
LEAF_WRITABLE = GLOBALS[1:] + OUTS

ALU = ("add", "sub", "and", "or", "xor", "smul", "sll", "srl")
BRANCHES = ("ba", "be", "bne", "bg", "bge", "bl", "ble")
EPILOGUES = ("ret", "retadd", "restore", "leaf")


class _Gen:
    """Draws one program; tracks which registers hold known values."""

    def __init__(self, draw):
        self.draw = draw
        self.labels = 0
        self.funcs = []  # (name, kind, arity, rd written in the caller)

    def label(self) -> str:
        self.labels += 1
        return "L%d" % self.labels

    def known_reg(self, known) -> str:
        return self.draw(st.sampled_from(sorted(known)))

    def source_operand(self, known) -> str:
        if self.draw(st.booleans()):
            return self.known_reg(known)
        return str(self.draw(st.integers(-40, 40)))

    def block(self, known, writable, callees, nest):
        """Statements over ``known``; returns (lines, known after)."""
        lines = []
        known = set(known)
        draw = self.draw
        for __ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(
                ("alu", "alu", "mov", "ld", "st", "if", "call", "yield")))
            if kind == "alu":
                op = draw(st.sampled_from(ALU))
                rd = draw(st.sampled_from(writable))
                if op in ("sll", "srl"):
                    rs2 = str(draw(st.integers(0, 4)))
                elif op == "smul":  # keeps values a few bits per step
                    rs2 = str(draw(st.integers(-3, 3)))
                else:
                    rs2 = self.source_operand(known)
                lines.append("%s %s, %s, %s"
                             % (op, self.known_reg(known), rs2, rd))
                known.add(rd)
            elif kind == "mov":
                rd = draw(st.sampled_from(writable))
                lines.append("mov %s, %s" % (self.source_operand(known), rd))
                known.add(rd)
            elif kind == "ld":
                rd = draw(st.sampled_from(writable))
                lines.append("ld [%s + %d], %s" % (
                    draw(st.sampled_from(["%g0", self.known_reg(known)])),
                    4 * draw(st.integers(0, 7)), rd))
                known.add(rd)
            elif kind == "st":
                lines.append("st %s, [%s + %d]" % (
                    self.known_reg(known),
                    draw(st.sampled_from(["%g0", self.known_reg(known)])),
                    4 * draw(st.integers(0, 7))))
            elif kind == "if" and nest < 2:
                skip = self.label()
                lines.append("cmp %s, %s" % (self.known_reg(known),
                                             self.source_operand(known)))
                lines.append("%s %s" % (draw(st.sampled_from(BRANCHES)),
                                        skip))
                # the skipped block's writes are unknown at the join
                inner, __ = self.block(known, writable, callees, nest + 1)
                lines.extend(inner)
                lines.append("%s: nop" % skip)
            elif kind == "call" and callees:
                lines.extend(self.call(known, draw(st.sampled_from(callees))))
            elif kind == "yield":
                lines.append("yield")
        return lines, known

    def call(self, known, callee):
        """Pass the callee's arguments in the outs and call it."""
        name, __, arity, rd = callee
        lines = []
        for i in range(arity):
            lines.append("mov %s, %%o%d" % (self.source_operand(known), i))
            known.add("%%o%d" % i)
        lines.append("call %s" % name)
        known.add("%o7")
        if rd is not None:
            known.add(rd)
        return lines

    @staticmethod
    def dump(known, base):
        """Store every known register to its own word from ``base``, so
        a value that differs anywhere shows in the final memory."""
        return ["st %s, [%%g0 + %d]" % (reg, base + 4 * k)
                for k, reg in enumerate(sorted(known))]

    def body(self, known, writable, callees):
        """Two blocks, mostly around a call one level down the DAG, so
        call chains run deep enough to overflow a small file."""
        lines, known = self.block(known, writable, callees, 0)
        if callees and self.draw(st.integers(0, 3)):
            lines.extend(self.call(known, callees[-1]))
        more, known = self.block(known, writable, callees, 0)
        return lines + more, known

    def function(self, index: int, callees):
        draw = self.draw
        name = "f%d" % index
        kind = draw(st.sampled_from(EPILOGUES))
        arity = draw(st.integers(0, 3))
        args = ["%%o%d" % i for i in range(arity)]
        if kind == "leaf":
            # runs in the caller's window: no save, no calls
            known = set(GLOBALS + args + ["%o7"])
            body, known = self.block(known, LEAF_WRITABLE, [], 0)
            body.extend(self.dump(known, 2048 + 128 * index))
            body.append("mov %s, %%o0" % self.source_operand(known))
            body.append("retl")
            return [name + ":"] + body, (name, kind, arity, "%o0")
        prologue = "save"
        known = set(GLOBALS + ["%%i%d" % i for i in range(arity)] + ["%i7"])
        if draw(st.booleans()):
            # save's add reads the caller's window, writes the callee's
            rd = draw(st.sampled_from(FRAME_WRITABLE))
            prologue = "save %s, %s, %s" % (
                draw(st.sampled_from(GLOBALS + args)),
                draw(st.integers(-96, 96)), rd)
            known.add(rd)
        body, known = self.body(known, FRAME_WRITABLE, callees)
        body.extend(self.dump(known, 2048 + 128 * index))
        rd = None
        if kind == "ret":
            body.append("ret")
        else:
            # the add reads the callee's window, writes the caller's
            rd = draw(st.sampled_from(FRAME_WRITABLE))
            body.append("%s %s, %s, %s" % (
                "retadd" if kind == "retadd" else "restore",
                self.known_reg(known), self.source_operand(known), rd))
            if kind == "restore":
                body.append("retl")
        return [name + ":", prologue] + body, (name, kind, arity, rd)

    def program(self):
        draw = self.draw
        n_funcs = draw(st.integers(1, 6))
        bodies = []
        # f_i calls only f_j with j > i, so every run terminates
        for index in reversed(range(n_funcs)):
            lines, signature = self.function(index, list(self.funcs))
            bodies.append(lines)
            self.funcs.append(signature)
        n_threads = draw(st.integers(1, 3))
        entries = []
        threads = []
        for tid in range(n_threads):
            # the entry frame's ins and locals start zeroed
            known = set(GLOBALS + ["%%i%d" % i for i in range(8)] + LOCALS)
            body, known = self.body(known, FRAME_WRITABLE, self.funcs)
            body.extend(self.dump(known, 1024 + 128 * tid))
            body.append("mov %s, %%o0" % self.source_operand(known))
            body.append("halt")
            entries.append(["t%d:" % tid] + body)
            args = tuple(draw(st.lists(st.integers(-50, 50), max_size=6)))
            threads.append(("t%d" % tid, args))
        pokes = draw(st.lists(st.tuples(
            st.integers(0, 7).map(lambda i: 4 * i), st.integers(-9, 9)),
            max_size=3))
        lines = [line for part in entries + bodies for line in part]
        return "\n".join(lines) + "\n", threads, pokes


@st.composite
def guest_programs(draw):
    return _Gen(draw).program()


def _launch(machine, threads, pokes):
    for addr, value in pokes:
        machine.poke(addr, value)
    handles = [machine.add_thread(entry, args=args, name=entry)
               for entry, args in threads]
    return handles, machine.run(max_steps=MAX_STEPS)


def _counter_fields(counters):
    return {f.name: getattr(counters, f.name) for f in fields(Counters)}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=guest_programs())
def test_random_programs_match_machine(case):
    source, threads, pokes = case
    program = assemble(source)
    for scheme in SCHEMES:
        for n_windows in WINDOW_COUNTS:
            label = "%s/w%d\n%s" % (scheme, n_windows, source)
            machine = Machine(program, n_windows=n_windows, scheme=scheme)
            recorder = machine.cpu.enable_tracing()
            handles, exits = _launch(machine, threads, pokes)
            wraparounds, max_depth = save_stats(recorder, n_windows)
            abstract = AbstractMachine(program, n_windows=n_windows,
                                       scheme=scheme)
            abstract_handles, abstract_exits = _launch(abstract, threads,
                                                       pokes)
            assert abstract_exits == exits, label
            assert abstract.memory == machine.memory, label
            assert (_counter_fields(abstract.counters)
                    == _counter_fields(machine.counters)), label
            assert abstract.wraparounds == wraparounds, label
            for thread, mirror in zip(handles, abstract_handles):
                assert mirror.max_depth == max_depth.get(thread.tid, 1), (
                    "%s\ntid %d max depth" % (label, thread.tid))
