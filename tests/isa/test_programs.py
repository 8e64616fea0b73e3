"""Trap-level validation: real recursive programs over every scheme
and window count must compute identical results, with identical
dynamic save counts, while exercising overflow and in-place underflow
traps with live register data."""

import pytest

from repro.isa import Machine, assemble
from repro.isa.programs import (
    DEEP_SUM,
    FACTORIAL,
    FACTORIAL_RETADD,
    FIBONACCI,
    MUTUAL,
    TWO_COUNTERS,
)

SCHEMES = ("NS", "SNP", "SP")
WINDOW_COUNTS = (4, 5, 6, 8, 16)


def run(source, scheme, n_windows, args=()):
    machine = Machine(assemble(source), n_windows=n_windows, scheme=scheme)
    thread = machine.add_thread("start", args=args)
    machine.run(max_steps=3_000_000)
    return thread.exit_value, machine


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n_windows", WINDOW_COUNTS)
class TestPrograms:
    def test_factorial(self, scheme, n_windows):
        value, machine = run(FACTORIAL, scheme, n_windows)
        assert value == 720
        if n_windows <= 5:
            assert machine.counters.overflow_traps > 0

    def test_factorial_retadd_peephole(self, scheme, n_windows):
        """§4.3: the restore instruction that also adds must survive
        underflow traps (the handler emulates the add)."""
        value, machine = run(FACTORIAL_RETADD, scheme, n_windows)
        assert value == 5040
        if n_windows == 4:
            assert machine.counters.underflow_traps > 0

    def test_fibonacci(self, scheme, n_windows):
        value, __ = run(FIBONACCI, scheme, n_windows)
        assert value == 55

    def test_mutual_recursion(self, scheme, n_windows):
        value, __ = run(MUTUAL, scheme, n_windows)
        assert value == 0

    def test_deep_sum(self, scheme, n_windows):
        machine = Machine(assemble(DEEP_SUM), n_windows=n_windows,
                          scheme=scheme)
        machine.poke(0, 40)
        thread = machine.add_thread("start")
        machine.run(max_steps=3_000_000)
        assert thread.exit_value == sum(range(1, 41))
        assert machine.counters.overflow_traps >= 40 - n_windows


def test_save_counts_scheme_independent():
    counts = set()
    for scheme in SCHEMES:
        for n_windows in (4, 8):
            __, machine = run(FIBONACCI, scheme, n_windows)
            counts.add(machine.counters.saves)
    assert len(counts) == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_two_threads_share_windows(scheme):
    machine = Machine(assemble(TWO_COUNTERS), n_windows=6, scheme=scheme)
    t1 = machine.add_thread("start", args=(0, 512), name="c1")
    t2 = machine.add_thread("start", args=(0, 768), name="c2")
    results = machine.run(max_steps=200_000)
    assert results == {"c1": 8, "c2": 8}
    assert machine.memory.get(512, 0) == 8
    assert machine.memory.get(768, 0) == 8
    assert machine.counters.context_switches > 10


@pytest.mark.parametrize("scheme", ("SNP", "SP"))
def test_inplace_underflow_preserves_live_registers(scheme):
    """After the deep recursion unwinds through in-place restores, the
    caller's locals and the return value must both be intact — this is
    the register-level proof of §3.2's correctness."""
    source = """
    start:
        mov  1234, %l5        ; live local in the root frame
        mov  25, %o0
        call sum
        nop
        add  %o0, %l5, %o0    ; root local must have survived
        halt
    sum:
        save
        cmp  %i0, 1
        ble  base
        add  %i0, -1, %o0
        call sum
        nop
        add  %o0, %i0, %i0
        ret
    base:
        mov  %i0, %i0
        ret
    """
    value, machine = run(source, scheme, 4)
    assert value == sum(range(1, 26)) + 1234
    assert machine.counters.underflow_traps > 0
