"""Trap-level tests of the SNP and SP sharing schemes: the in-place
underflow restore (§3.2, Figure 8), bottom-only spilling (§3.1), PRW
handling (§4.1) and windowless allocation (§4.2)."""

import pytest

from repro.metrics.counters import TrapRecord
from repro.windows.backing_store import Frame
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

SHARING = ["SNP", "SP"]


class TestInPlaceUnderflow:
    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_cwp_does_not_move(self, scheme_name):
        """§3.2: the caller is restored into the callee's window; the
        CWP virtually moves down without physical motion."""
        cpu, scheme = make_machine(5, scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 8)  # forces spills
        ret_to_depth(cpu, tw, tw.depth - tw.resident + 1)  # plain rets
        assert tw.resident == 1
        cwp_before = cpu.wf.cwp
        ret(cpu, tw)  # must underflow
        assert cpu.counters.underflow_traps >= 1
        assert cpu.wf.cwp == cwp_before
        assert tw.bottom == cwp_before
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_underflow_never_spills(self, scheme_name):
        """The whole point of the algorithm: no spillage at underflow,
        so other threads' windows are never disturbed (§3.1)."""
        cpu, scheme = make_machine(6, scheme_name)
        scheme.records = []
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 10)
        ret_to_depth(cpu, t2, 1)
        spilled_by_underflow = [
            rec for rec in scheme.records
            if isinstance(rec, TrapRecord) and rec.kind == "underflow"
            and rec.spilled]
        assert spilled_by_underflow == []
        # t1's store gained nothing from t2's underflows (only from
        # t2's growth overflows, which spill from the bottom).
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_return_values_cross_inplace_restore(self, scheme_name):
        cpu, scheme = make_machine(4 if scheme_name == "SNP" else 5,
                                   scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 10)
        for d in range(10, 1, -1):
            got = ret(cpu, tw, value=("ret", d))
            assert got == ("ret", d)
        assert tw.depth == 1
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_deep_oscillation(self, scheme_name):
        """Repeated call/return across the residency boundary."""
        cpu, scheme = make_machine(5, scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 6)
        for __ in range(10):
            ret(cpu, tw)
            call(cpu, tw)
        ret_to_depth(cpu, tw, 1)
        assert tw.depth == 1
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_frame_pool_reuses_restored_frames(self, scheme_name):
        """A spill copies the bottom window into a pooled frame buffer
        (never aliasing the registers); the in-place underflow moves
        all eight ins to the outs, restores the frame and hands the
        buffer back to the pool for the next spill."""
        cpu, scheme = make_machine(5, scheme_name)
        wf = cpu.wf
        pooled = Frame([0] * 8, [0] * 8, -1)
        wf._frame_pool.append(pooled)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        cpu.write_local(1, "outermost")
        old_bottom = tw.bottom
        while not tw.store:
            call(cpu, tw)
        assert len(tw.store) == 1 and tw.store.frames[0] is pooled
        assert pooled.depth == 1 and pooled.local_regs[1] == "outermost"
        wf.locals_of(old_bottom)[1] = "clobbered"
        assert pooled.local_regs[1] == "outermost"   # copied, not aliased
        ret_to_depth(cpu, tw, 2)
        results = [("ret", i) for i in range(8)]
        for i, value in enumerate(results):
            cpu.write_in(i, value)
        cpu.restore(tw)                              # in-place underflow
        assert cpu.counters.underflow_traps == 1
        assert [cpu.read_out(i) for i in range(8)] == results
        assert cpu.read_local(1) == "outermost"
        assert len(wf._frame_pool) == 1 and wf._frame_pool[0] is pooled
        while not tw.store:
            call(cpu, tw)
        assert tw.store.frames[0] is pooled and not wf._frame_pool
        verify(cpu, scheme)


class TestOverflowSpillsBottoms:
    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_victim_is_other_threads_bottom(self, scheme_name):
        cpu, scheme = make_machine(8, scheme_name)
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 3)
        t1_bottom = t1.bottom
        t1_top = t1.cwp
        dispatch(cpu, scheme, t1, t2)
        # grow t2 until it steals a window from t1
        while t1.resident == 3:
            call(cpu, t2)
        assert t1.resident == 2
        assert len(t1.store) == 1
        assert t1.store.frames[-1].depth == 1  # the OUTERMOST frame
        assert t1.cwp == t1_top                # top untouched (§3.1 #2)
        assert t1.bottom == cpu.wf.above(t1_bottom)
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_own_bottom_spills_when_alone(self, scheme_name):
        cpu, scheme = make_machine(5, scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 12)
        assert len(tw.store) == 12 - tw.resident
        assert cpu.counters.overflow_traps >= 12 - tw.resident
        verify(cpu, scheme)

    @pytest.mark.parametrize("scheme_name", SHARING)
    def test_overflow_into_free_window_transfers_nothing(self, scheme_name):
        """A freed window above the boundary is claimed without a
        spill (only WIM bookkeeping)."""
        cpu, scheme = make_machine(8, scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 4)
        dispatch(cpu, scheme, tw, tw2 := new_thread(scheme, 1))
        dispatch(cpu, scheme, tw2, tw)
        spills_before = cpu.counters.windows_spilled
        # tw returns twice (vacating windows) then calls again: the
        # vacated windows are re-entered without any trap at all.
        ret_to_depth(cpu, tw, 2)
        traps_before = cpu.counters.overflow_traps
        call_to_depth(cpu, tw, 4)
        assert cpu.counters.overflow_traps == traps_before
        assert cpu.counters.windows_spilled == spills_before
        verify(cpu, scheme)


class TestSNPSwitches:
    def test_resident_switch_costs_no_transfer(self):
        """Switching between threads whose windows are resident settles
        into the (0, 0) best case — after one adjustment switch that
        spills a single bottom window to re-site the global reserved
        window (the cost of not having PRWs, §4.1)."""
        cpu, scheme = make_machine(8, "SNP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 2)
        # warm-up switch (may or may not need a boundary re-site spill
        # depending on how the regions packed)
        dispatch(cpu, scheme, t2, t1)
        hist_before = dict(cpu.counters.transfer_histogram())
        dispatch(cpu, scheme, t1, t2)
        dispatch(cpu, scheme, t2, t1)
        dispatch(cpu, scheme, t1, t2)
        hist_after = cpu.counters.transfer_histogram()
        gained = {k: hist_after.get(k, 0) - hist_before.get(k, 0)
                  for k in hist_after
                  if hist_after.get(k, 0) != hist_before.get(k, 0)}
        assert gained == {(0, 0): 3}
        verify(cpu, scheme)

    def test_outs_saved_and_restored_across_switch(self):
        """§4.1: without a PRW, the stack-top outs must travel through
        the thread context."""
        cpu, scheme = make_machine(6, "SNP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        cpu.write_out(4, "keep-me")
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 3)
        cpu.write_out(4, "clobber")
        dispatch(cpu, scheme, t2, t1)
        assert cpu.read_out(4) == "keep-me"
        verify(cpu, scheme)

    def test_windowless_dispatch_uses_old_reserved(self):
        """§4.1: "only one window may have to be saved, because the
        old reserved window is available"."""
        cpu, scheme = make_machine(4, "SNP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 3)       # t1 fills all but the reserved
        old_reserved = scheme.reserved
        dispatch(cpu, scheme, t1, t2)   # t2 is windowless
        assert t2.cwp == old_reserved
        hist = cpu.counters.transfer_histogram()
        assert hist.get((1, 0)) == 1    # one spill for the new reserved
        verify(cpu, scheme)


class TestSPSwitches:
    def test_resident_switch_transfers_nothing_at_all(self):
        cpu, scheme = make_machine(10, "SP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        cpu.write_out(3, "in-prw")
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 2)
        cost_before = cpu.counters.switch_cycles
        dispatch(cpu, scheme, t2, t1)
        cost = cpu.counters.switch_cycles - cost_before
        assert cost == cpu.cost.sp_switch_cost(0, 0, False)
        # the outs survived *physically*, inside the PRW
        assert cpu.read_out(3) == "in-prw"
        assert t1.saved_outs is None
        verify(cpu, scheme)

    def test_prw_snug_after_returns(self):
        """§4.1: on suspension, free windows above the stack-top are
        reclaimed by moving the PRW down (no data copied)."""
        cpu, scheme = make_machine(10, "SP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 4)
        ret_to_depth(cpu, t1, 2)  # two vacated windows above the top
        old_prw = t1.prw
        dispatch(cpu, scheme, t1, t2)
        assert t1.prw == cpu.wf.above(t1.cwp)
        assert t1.prw != old_prw
        # the old PRW slot no longer belongs to t1 (it may already have
        # been reused for the incoming thread's allocation)
        assert cpu.map.tid(old_prw) != t1.tid
        verify(cpu, scheme)

    def test_windowless_dispatch_worst_case_two_saves(self):
        """Table 2's SP (2, 1) row: a windowless thread needs a frame
        window plus a PRW, each possibly requiring a spill."""
        cpu, scheme = make_machine(5, "SP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 6)       # t1 owns every frame window
        dispatch(cpu, scheme, t1, t2)   # t2 fresh: needs 2 windows
        hist = cpu.counters.transfer_histogram()
        assert hist.get((2, 0)) == 1    # fresh thread: 2 saves, 0 restores
        call_to_depth(cpu, t2, 2)
        dispatch(cpu, scheme, t2, t1)   # t1 lost windows: restore case
        assert (t1.resident, len(t1.store) + t1.resident) == (1, 6)
        verify(cpu, scheme)

    def test_prw_freed_with_last_frame_and_outs_stashed(self):
        cpu, scheme = make_machine(5, "SP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 2)
        cpu.write_out(2, "stash")
        dispatch(cpu, scheme, t1, t2)
        call_to_depth(cpu, t2, 8)       # evicts every t1 window
        assert t1.resident == 0
        assert t1.prw is None
        assert t1.saved_outs is not None
        dispatch(cpu, scheme, t2, t1)
        assert cpu.read_out(2) == "stash"
        verify(cpu, scheme)


class TestRetire:
    @pytest.mark.parametrize("scheme_name", ["NS"] + SHARING)
    def test_retire_frees_everything(self, scheme_name):
        cpu, scheme = make_machine(8, scheme_name)
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        call_to_depth(cpu, t1, 3)
        scheme.retire(t1)
        assert t1.resident == 0 and t1.prw is None and t1.depth == 0
        dispatch(cpu, scheme, None, t2)
        call_to_depth(cpu, t2, 5)
        verify(cpu, scheme)
