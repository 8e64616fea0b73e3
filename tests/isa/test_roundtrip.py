"""Assembler/disassembler round-trip property: for every committed
program AND for randomly generated ones, ``assemble(disassemble(p))``
is bit-identical to ``p`` (same opcode, operand encodings, and
resolved branch targets for every instruction), and disassembly is a
fixpoint (one trip through the printer is canonical)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from tests.support.disassembler import disassemble
from repro.isa.instructions import ALU_OPS, BRANCH_OPS
from repro.isa.programs import (
    ACKERMANN,
    DEEP_SUM,
    FACTORIAL,
    FACTORIAL_RETADD,
    FIBONACCI,
    MUTUAL,
    TAK,
    TWO_COUNTERS,
)

ALL_PROGRAMS = {
    "factorial": FACTORIAL,
    "factorial_retadd": FACTORIAL_RETADD,
    "fibonacci": FIBONACCI,
    "mutual": MUTUAL,
    "two_counters": TWO_COUNTERS,
    "deep_sum": DEEP_SUM,
    "tak": TAK,
    "ackermann": ACKERMANN,
}


def _encode(program):
    """Canonical bit-level encoding of a program's instruction stream."""
    return tuple(
        (instr.op,
         instr.label,
         tuple((o.kind, o.bank, o.index, o.value, o.offset)
               for o in instr.operands))
        for instr in program.instructions)


def test_committed_programs_roundtrip_bit_identical():
    for name, source in ALL_PROGRAMS.items():
        program = assemble(source)
        again = assemble(disassemble(program))
        assert _encode(again) == _encode(program), name


def test_disassembly_is_a_fixpoint():
    for name, source in ALL_PROGRAMS.items():
        once = disassemble(assemble(source))
        twice = disassemble(assemble(once))
        assert twice == once, name


# -- random-program generation --------------------------------------------

_reg = st.builds("%%%s%d".__mod__,
                 st.tuples(st.sampled_from("goli"),
                           st.integers(0, 7)))
_imm = st.integers(-1024, 1024).map(str)
_reg_or_imm = st.one_of(_reg, _imm)
_mem = st.builds(
    lambda bank, idx, off: ("[%%%s%d]" % (bank, idx) if off == 0 else
                            "[%%%s%d %s %d]" % (bank, idx,
                                                "+" if off > 0 else "-",
                                                abs(off))),
    st.sampled_from("goli"), st.integers(0, 7), st.integers(-64, 64))


def _instruction(n_labels):
    """One random instruction line, given valid target labels L0..Ln."""
    target = st.integers(0, n_labels).map("L%d".__mod__)
    return st.one_of(
        st.tuples(st.sampled_from(ALU_OPS), _reg, _reg_or_imm, _reg).map(
            lambda t: "%s %s, %s, %s" % t),
        st.tuples(st.sampled_from(BRANCH_OPS + ("call",)), target).map(
            lambda t: "%s %s" % t),
        st.tuples(st.just("mov"), _reg_or_imm, _reg).map(
            lambda t: "mov %s, %s" % t[1:]),
        st.tuples(st.just("cmp"), _reg, _reg_or_imm).map(
            lambda t: "cmp %s, %s" % t[1:]),
        st.tuples(_mem, _reg).map(lambda t: "ld %s, %s" % t),
        st.tuples(_reg, _mem).map(lambda t: "st %s, %s" % t),
        st.tuples(st.sampled_from(("save", "restore")), _reg,
                  _reg_or_imm, _reg).map(
            lambda t: "%s %s, %s, %s" % t),
        st.sampled_from(("save", "restore", "ret", "retl",
                         "nop", "halt", "yield")))


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 12))
    lines = []
    for index in range(n):
        lines.append("L%d:" % index)
        lines.append("    " + draw(_instruction(n)))
    lines.append("L%d:" % n)  # one-past-end targets are legal
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_random_programs_roundtrip_bit_identical(source):
    program = assemble(source)
    again = assemble(disassemble(program))
    assert _encode(again) == _encode(program)
    once = disassemble(program)
    assert disassemble(assemble(once)) == once
