"""Instruction objects and the micro-SPARC instruction set."""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Tuple

#: three-operand ALU ops: op rs1, rs2_or_imm, rd
ALU_OPS = ("add", "sub", "and", "or", "xor", "sll", "srl", "smul")

#: the semantics of each ALU op (shared by every interpreter)
ALU_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "sll": operator.lshift,
    "srl": operator.rshift,
    "smul": operator.mul,
}

#: conditional branches on the last ``cmp`` (signed)
BRANCH_OPS = ("ba", "be", "bne", "bg", "bge", "bl", "ble")

#: taken-test of each conditional branch on the ``cmp`` difference
#: (``ba`` is unconditional and handled on its own)
BRANCH_TESTS: Dict[str, Callable[[int], bool]] = {
    "be": lambda cc: cc == 0,
    "bne": lambda cc: cc != 0,
    "bg": lambda cc: cc > 0,
    "bge": lambda cc: cc >= 0,
    "bl": lambda cc: cc < 0,
    "ble": lambda cc: cc <= 0,
}

#: everything else
OTHER_OPS = ("mov", "cmp", "ld", "st", "save", "restore",
             "call", "ret", "retadd", "retl", "nop", "halt", "yield")

ALL_OPS = ALU_OPS + BRANCH_OPS + OTHER_OPS


class Operand:
    """Register, immediate, or memory reference."""

    __slots__ = ("kind", "bank", "index", "value", "offset")

    REG = "reg"
    IMM = "imm"
    MEM = "mem"

    def __init__(self, kind: str, bank: str = "", index: int = 0,
                 value: int = 0, offset: int = 0):
        self.kind = kind
        self.bank = bank
        self.index = index
        self.value = value
        self.offset = offset

    @classmethod
    def reg(cls, bank: str, index: int) -> "Operand":
        return cls(cls.REG, bank=bank, index=index)

    @classmethod
    def imm(cls, value: int) -> "Operand":
        return cls(cls.IMM, value=value)

    @classmethod
    def mem(cls, bank: str, index: int, offset: int) -> "Operand":
        return cls(cls.MEM, bank=bank, index=index, offset=offset)

    def __repr__(self) -> str:
        if self.kind == self.REG:
            return "%%%s%d" % (self.bank, self.index)
        if self.kind == self.IMM:
            return str(self.value)
        return "[%%%s%d %+d]" % (self.bank, self.index, self.offset)


class Instruction:
    """One assembled instruction."""

    __slots__ = ("op", "operands", "label", "line")

    def __init__(self, op: str, operands: Tuple[Operand, ...] = (),
                 label: Optional[str] = None, line: int = 0):
        self.op = op
        self.operands = operands
        self.label = label  # branch/call target (resolved to an index)
        self.line = line

    def __repr__(self) -> str:
        parts = [self.op]
        if self.operands:
            parts.append(", ".join(repr(o) for o in self.operands))
        if self.label is not None:
            parts.append("-> %s" % self.label)
        return " ".join(parts)
