"""Disassembler round-trips and the heavier validation programs."""

import pytest

from repro.isa import Machine, assemble
from tests.support.disassembler import disassemble, roundtrip
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


def _tak(x, y, z):
    if y < x:
        return _tak(_tak(x - 1, y, z), _tak(y - 1, z, x),
                    _tak(z - 1, x, y))
    return z


def _ack(m, n):
    if m == 0:
        return n + 1
    if n == 0:
        return _ack(m - 1, 1)
    return _ack(m - 1, _ack(m, n - 1))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_roundtrip_reassembles(self, name):
        program = assemble(ALL_PROGRAMS[name])
        again = roundtrip(program)
        assert len(again) == len(program)
        for a, b in zip(program.instructions, again.instructions):
            assert a.op == b.op
            assert a.label == b.label
            assert len(a.operands) == len(b.operands)

    @pytest.mark.parametrize("name", ["factorial", "fibonacci", "tak"])
    def test_roundtrip_executes_identically(self, name):
        original = Machine(assemble(ALL_PROGRAMS[name]), n_windows=5)
        t1 = original.add_thread("start")
        original.run(max_steps=5_000_000)
        recycled = Machine(roundtrip(assemble(ALL_PROGRAMS[name])),
                           n_windows=5)
        t2 = recycled.add_thread("start")
        recycled.run(max_steps=5_000_000)
        assert t1.exit_value == t2.exit_value
        assert (original.counters.saves == recycled.counters.saves)

    def test_disassembly_has_labels(self):
        text = disassemble(assemble(FACTORIAL))
        assert "factorial:" in text
        assert "base:" in text
        assert "call" in text


class TestHeavyPrograms:
    @pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
    @pytest.mark.parametrize("n_windows", [4, 6, 8])
    def test_tak(self, scheme, n_windows):
        machine = Machine(assemble(TAK), n_windows=n_windows,
                          scheme=scheme)
        thread = machine.add_thread("start")
        machine.run(max_steps=5_000_000)
        assert thread.exit_value == _tak(10, 5, 3)
        if n_windows == 4:
            assert machine.counters.overflow_traps > 0

    @pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
    @pytest.mark.parametrize("n_windows", [4, 6, 8])
    def test_ackermann(self, scheme, n_windows):
        machine = Machine(assemble(ACKERMANN), n_windows=n_windows,
                          scheme=scheme)
        thread = machine.add_thread("start")
        machine.run(max_steps=5_000_000)
        assert thread.exit_value == _ack(2, 3) == 9

    def test_tak_save_count_scheme_independent(self):
        counts = set()
        for scheme in ("NS", "SNP", "SP"):
            machine = Machine(assemble(TAK), n_windows=5, scheme=scheme)
            machine.add_thread("start")
            machine.run(max_steps=5_000_000)
            counts.add(machine.counters.saves)
        assert len(counts) == 1
