"""Trap-level tests of the NS scheme: the basic algorithm of §2
(Figures 3 and 4) plus flush-everything context switches."""

import pytest

from tests.helpers import (
    call,
    call_to_depth,
    dispatch,
    make_machine,
    new_thread,
    ret,
    ret_to_depth,
    verify,
)


class TestBasicTraps:
    def test_overflow_spills_own_bottom(self):
        """Figure 3: the stack-bottom window is saved and becomes the
        new reserved window."""
        cpu, scheme = make_machine(4, "NS")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 3)  # fills the n-1 usable windows
        assert cpu.counters.overflow_traps == 0
        old_bottom = tw.bottom
        call(cpu, tw)  # depth 4: must overflow
        assert cpu.counters.overflow_traps == 1
        assert cpu.counters.windows_spilled == 1
        assert len(tw.store) == 1
        assert tw.store.frames[-1].depth == 1
        assert scheme.reserved == old_bottom
        assert tw.resident == 3
        verify(cpu, scheme)

    def test_underflow_restores_below_and_moves_reserved(self):
        """Figure 4: the missing window is restored below the CWP and
        the reserved window moves one further down."""
        cpu, scheme = make_machine(4, "NS")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 5)  # two frames spilled
        ret_to_depth(cpu, tw, 3)   # plain restores
        assert cpu.counters.underflow_traps == 0
        cwp_before = cpu.wf.cwp
        ret(cpu, tw)               # depth 2: must underflow
        assert cpu.counters.underflow_traps == 1
        # conventional restore physically moves the CWP downward
        assert cpu.wf.cwp == cpu.wf.below(cwp_before)
        assert scheme.reserved == cpu.wf.below(cpu.wf.cwp)
        assert tw.resident == 1
        verify(cpu, scheme)

    def test_deep_recursion_roundtrip_preserves_every_frame(self):
        cpu, scheme = make_machine(5, "NS")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 20)
        ret_to_depth(cpu, tw, 1)  # helpers assert signatures throughout
        assert tw.depth == 1
        assert cpu.counters.overflow_traps == 16
        assert cpu.counters.underflow_traps == 16
        verify(cpu, scheme)


class TestContextSwitch:
    def test_switch_flushes_all_active_windows(self):
        cpu, scheme = make_machine(8, "NS")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 4)
        dispatch(cpu, scheme, t1, t2)
        assert t1.resident == 0
        assert len(t1.store) == 4
        assert scheme.records is None  # not kept by default
        hist = cpu.counters.transfer_histogram()
        assert hist.get((4, 0)) == 1  # t2 is fresh: 4 saves, no restore
        verify(cpu, scheme)

    def test_resume_restores_only_the_top_window(self):
        """§6.2: "more precisely the stack-top window is restored on
        the context switch" — deeper frames come back via underflow."""
        cpu, scheme = make_machine(8, "NS")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 4)
        dispatch(cpu, scheme, t1, t2)
        dispatch(cpu, scheme, t2, t1)
        assert t1.resident == 1
        assert t1.depth == 4
        assert len(t1.store) == 3
        traps_before = cpu.counters.underflow_traps
        ret(cpu, t1)  # hidden underflow cost of the NS scheme
        assert cpu.counters.underflow_traps == traps_before + 1
        verify(cpu, scheme)

    def test_outs_survive_switch_via_thread_context(self):
        cpu, scheme = make_machine(6, "NS")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        cpu.write_out(5, "precious")
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 3)
        cpu.write_out(5, "other")
        dispatch(cpu, scheme, t2, t1)
        assert cpu.read_out(5) == "precious"
        verify(cpu, scheme)

    def test_switch_cost_grows_linearly_with_active_windows(self):
        costs = {}
        for depth in (1, 2, 3, 4, 5):
            cpu, scheme = make_machine(8, "NS")
            t1 = new_thread(scheme, 0)
            t2 = new_thread(scheme, 1)
            dispatch(cpu, scheme, None, t1)
            call_to_depth(cpu, t1, depth)
            before = cpu.counters.switch_cycles
            dispatch(cpu, scheme, t1, t2)
            costs[depth] = cpu.counters.switch_cycles - before
        deltas = [costs[d + 1] - costs[d] for d in (1, 2, 3, 4)]
        assert len(set(deltas)) == 1  # exactly linear
        assert deltas[0] == cpu.cost.ns_per_save

    def test_return_values_cross_conventional_underflow(self):
        cpu, scheme = make_machine(4, "NS")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 6)
        for expected_depth in (6, 5, 4, 3, 2):
            got = ret(cpu, tw, value=("v", expected_depth))
            assert got == ("v", expected_depth)
        verify(cpu, scheme)
