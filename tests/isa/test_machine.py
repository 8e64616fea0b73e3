"""Interpreter semantics: ALU, branches, memory, call/ret, windows."""

import pytest

from repro.isa import Machine, MachineFault, assemble


def run_one(source, scheme="SP", n_windows=8, args=(), entry="start"):
    machine = Machine(assemble(source), n_windows=n_windows, scheme=scheme)
    thread = machine.add_thread(entry, args=args, name="t")
    machine.run()
    return thread.exit_value, machine


class TestALU:
    def test_arithmetic(self):
        value, __ = run_one("""
        start:
            mov  7, %l0
            add  %l0, 5, %l1
            sub  %l1, 2, %l2
            smul %l2, 3, %l3
            mov  %l3, %o0
            halt
        """)
        assert value == 30

    def test_logic_and_shifts(self):
        value, __ = run_one("""
        start:
            mov  0xf0, %l0
            and  %l0, 0x3c, %l1   ; 0x30
            or   %l1, 0x03, %l2   ; 0x33
            xor  %l2, 0x11, %l3   ; 0x22
            sll  %l3, 2, %l4      ; 0x88
            srl  %l4, 3, %o0      ; 0x11
            halt
        """)
        assert value == 0x11

    def test_g0_reads_zero_and_ignores_writes(self):
        value, __ = run_one("""
        start:
            mov  99, %g0
            add  %g0, 1, %o0
            halt
        """)
        assert value == 1


class TestBranches:
    @pytest.mark.parametrize("op,a,b,expect", [
        ("be", 3, 3, 1), ("be", 3, 4, 0),
        ("bne", 3, 4, 1), ("bne", 3, 3, 0),
        ("bg", 5, 4, 1), ("bg", 4, 5, 0),
        ("bge", 4, 4, 1), ("bl", -1, 0, 1),
        ("ble", 4, 4, 1), ("ble", 5, 4, 0),
    ])
    def test_conditions(self, op, a, b, expect):
        value, __ = run_one("""
        start:
            cmp  %d, %d
            %s   yes
            mov  0, %%o0
            halt
        yes:
            mov  1, %%o0
            halt
        """ % (a, b, op))
        assert value == expect


class TestMemory:
    def test_ld_st_roundtrip(self):
        value, machine = run_one("""
        start:
            mov  100, %g1
            mov  42, %l0
            st   %l0, [%g1 + 8]
            ld   [%g1 + 8], %o0
            halt
        """)
        assert value == 42
        assert machine.memory.get(108, 0) == 42

    def test_poke_visible_to_program(self):
        source = """
        start:
            ld   [%g0 + 0], %o0
            halt
        """
        machine = Machine(assemble(source))
        machine.poke(0, 77)
        thread = machine.add_thread("start")
        machine.run()
        assert thread.exit_value == 77


class TestCallsAndWindows:
    def test_leaf_call_retl(self):
        value, __ = run_one("""
        start:
            mov  20, %o0
            call double
            nop
            halt
        double:
            add  %o0, %o0, %o0
            retl
        """)
        assert value == 40

    def test_save_with_add_function(self):
        """save rs1, rs2, rd: computed in the old window, written in
        the new one (the SPARC stack-pointer idiom)."""
        value, __ = run_one("""
        start:
            mov  1000, %o6
            call func
            nop
            halt
        func:
            save %o6, -96, %o6
            mov  %o6, %i0         ; new %sp
            ret
        """)
        assert value == 904

    def test_arguments_through_overlap(self):
        value, __ = run_one("""
        start:
            mov  3, %o0
            mov  4, %o1
            call addup
            nop
            halt
        addup:
            save
            add  %i0, %i1, %i0
            ret
        """)
        assert value == 7

    def test_thread_args_in_ins(self):
        source = """
        start:
            add %i0, %i1, %o0
            halt
        """
        value, __ = run_one(source, args=(30, 12))
        assert value == 42


class TestFaults:
    def test_step_budget(self):
        machine = Machine(assemble("start: ba start"))
        machine.add_thread("start")
        with pytest.raises(MachineFault):
            machine.run(max_steps=1000)

    def test_pc_out_of_range(self):
        machine = Machine(assemble("start: nop"))
        machine.add_thread("start")
        with pytest.raises(MachineFault):
            machine.run()

    def test_negative_shift_is_a_machine_fault(self):
        """An ALU fault names the thread and pc, in the verifier's
        words, instead of escaping as a bare ValueError."""
        machine = Machine(assemble("""
        start:
            mov  1, %o0
            sll  %o0, -1, %o0
            halt
        """))
        machine.add_thread("start")
        with pytest.raises(MachineFault) as info:
            machine.run()
        assert str(info.value) == (
            "hw0: sll faults: negative shift count [pc=1]")
        assert info.value.context == {"pc": 1}

    def test_restore_at_entry_window_is_a_machine_fault(self):
        """A restore past a thread's root frame names the pc instead of
        escaping as a bare WindowGeometryError."""
        machine = Machine(assemble("start: restore\n       halt"))
        machine.add_thread("start")
        with pytest.raises(MachineFault) as info:
            machine.run()
        assert str(info.value) == (
            "thread 0 executed restore at depth 1 [pc=0]")
        assert info.value.context == {"pc": 0}
