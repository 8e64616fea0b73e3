"""The invariant checker itself must catch planted corruption."""

import pytest

from repro.core.invariants import check_invariants
from repro.windows.errors import WindowGeometryError
from repro.windows.occupancy import FRAME, FREE
from tests.helpers import call_to_depth, dispatch, make_machine, new_thread


def build(scheme_name="SP", n=8, depth=3):
    cpu, scheme = make_machine(n, scheme_name)
    tw = new_thread(scheme, 0)
    dispatch(cpu, scheme, None, tw)
    call_to_depth(cpu, tw, depth)
    return cpu, scheme, tw


def check(cpu, scheme):
    check_invariants(cpu, scheme, scheme.threads.values())


class TestDetectsCorruption:
    def test_clean_state_passes(self):
        cpu, scheme, tw = build()
        check(cpu, scheme)

    def test_map_frame_mismatch(self):
        cpu, scheme, tw = build()
        cpu.map.set_free(tw.cwp)
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_prw_map_mismatch(self):
        cpu, scheme, tw = build("SP")
        cpu.map.set_reserved(tw.prw, tid=99)
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_prw_without_frames(self):
        cpu, scheme, tw = build("SP")
        tw.resident = 0
        tw.cwp = tw.bottom = None
        tw.depth = len(tw.store)
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_double_claim(self):
        cpu, scheme, t1 = build("SNP")
        t2 = new_thread(scheme, 1)
        t2.cwp = t1.cwp
        t2.bottom = t1.cwp
        t2.resident = 1
        t2.depth = 1
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_unclaimed_occupied_window(self):
        cpu, scheme, tw = build("SNP")
        free = cpu.map._kind.index(FREE)
        cpu.map._kind[free] = FRAME
        cpu.map._tid[free] = 42
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_hardware_cwp_desync(self):
        cpu, scheme, tw = build("SP")
        cpu.wf.cwp = cpu.wf.below(cpu.wf.cwp)
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_wim_corruption_on_running_thread(self):
        cpu, scheme, tw = build("SNP")
        cpu.wf.mark_invalid(tw.cwp)
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)

    def test_stored_depth_gap(self):
        cpu, scheme, tw = build("SP", n=5, depth=8)
        assert tw.store
        tw.store.frames[0].depth = 5
        with pytest.raises(WindowGeometryError):
            check(cpu, scheme)


class TestFailureContext:
    """Every violation carries machine-readable context (the crash
    bundle serialises it, the CLI renders it as a [k=v] suffix)."""

    def test_map_frame_mismatch_context(self):
        cpu, scheme, tw = build()
        cpu.map.set_free(tw.cwp)
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        err = info.value
        assert err.context["window"] == tw.cwp
        assert err.context["thread"] == tw.tid
        assert err.context["map_kind"] == "free"

    def test_double_claim_context(self):
        cpu, scheme, t1 = build("SNP")
        t2 = new_thread(scheme, 1)
        t2.cwp = t1.cwp
        t2.bottom = t1.cwp
        t2.resident = 1
        t2.depth = 1
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        err = info.value
        assert err.context["window"] == t1.cwp
        assert "thread" in err.context
        assert "claimed_by" in err.context

    def test_hardware_cwp_desync_context(self):
        cpu, scheme, tw = build("SP")
        cpu.wf.cwp = cpu.wf.below(cpu.wf.cwp)
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        err = info.value
        assert err.context["thread"] == tw.tid
        assert err.context["hardware_cwp"] == cpu.wf.cwp
        assert err.context["thread_cwp"] == tw.cwp

    def test_wim_corruption_context(self):
        cpu, scheme, tw = build("SNP")
        cpu.wf.mark_invalid(tw.cwp)
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        err = info.value
        assert err.context == {"thread": tw.tid, "window": tw.cwp}

    def test_stored_depth_gap_context(self):
        cpu, scheme, tw = build("SP", n=5, depth=8)
        tw.store.frames[0].depth = 5
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        err = info.value
        assert err.context["thread"] == tw.tid
        assert err.context["frame"] == 0
        assert err.context["depth"] == 5
        assert err.context["expected_depth"] == 1

    def test_context_is_rendered_in_str(self):
        cpu, scheme, tw = build("SP")
        cpu.wf.cwp = cpu.wf.below(cpu.wf.cwp)
        with pytest.raises(WindowGeometryError) as info:
            check(cpu, scheme)
        text = str(info.value)
        assert text.endswith("]") and "[" in text
        assert "hardware_cwp=" in text
        assert "thread=%d" % tw.tid in text
