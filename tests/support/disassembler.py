"""Disassembler: turn an assembled :class:`Program` back into source.

The assembler's round-trip oracle: assemble → disassemble → assemble
must reproduce the program instruction for instruction.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.assembler import Program, assemble
from repro.isa.instructions import Instruction, Operand


def format_operand(operand: Operand) -> str:
    if operand.kind == Operand.REG:
        return "%%%s%d" % (operand.bank, operand.index)
    if operand.kind == Operand.IMM:
        return str(operand.value)
    if operand.offset == 0:
        return "[%%%s%d]" % (operand.bank, operand.index)
    sign = "+" if operand.offset >= 0 else "-"
    return "[%%%s%d %s %d]" % (operand.bank, operand.index, sign,
                               abs(operand.offset))


def format_instruction(instr: Instruction,
                       index_labels: Dict[int, str]) -> str:
    if instr.label is not None:
        target = index_labels.get(instr.label, "L%d" % instr.label)
        return "%-8s %s" % (instr.op, target)
    if not instr.operands:
        return instr.op
    return "%-8s %s" % (instr.op, ", ".join(
        format_operand(o) for o in instr.operands))


def disassemble(program: Program) -> str:
    """Source text that re-assembles to an equivalent program."""
    index_labels: Dict[int, str] = {}
    for label, index in sorted(program.labels.items()):
        # keep one label per index; prefer the first alphabetically
        index_labels.setdefault(index, label)
    # branch/call targets that lost their label in the table need one
    for instr in program.instructions:
        if instr.label is not None and instr.label not in index_labels:
            index_labels[instr.label] = "L%d" % instr.label
    lines: List[str] = []
    for index, instr in enumerate(program.instructions):
        if index in index_labels:
            lines.append("%s:" % index_labels[index])
        lines.append("    " + format_instruction(instr, index_labels))
    # labels pointing one past the end (rare but legal)
    end = len(program.instructions)
    if end in index_labels:
        lines.append("%s:" % index_labels[end])
    return "\n".join(lines) + "\n"


def roundtrip(program: Program) -> Program:
    """Disassemble and re-assemble (used by tests)."""
    return assemble(disassemble(program))
