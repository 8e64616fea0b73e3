"""Unit tests for the physical window file: geometry, overlap, WIM and
the frame traffic of the scheme spill and in-place restore steps."""

import pytest

from repro.windows.errors import WindowGeometryError
from repro.windows.window_file import MIN_WINDOWS, WindowFile
from tests.helpers import call_to_depth, dispatch, make_machine, new_thread


class TestGeometry:
    def test_above_decrements_cyclically(self):
        wf = WindowFile(8)
        assert wf.above(3) == 2
        assert wf.above(0) == 7

    def test_below_increments_cyclically(self):
        wf = WindowFile(8)
        assert wf.below(3) == 4
        assert wf.below(7) == 0

    def test_above_below_inverse(self):
        wf = WindowFile(5)
        for w in range(5):
            assert wf.below(wf.above(w)) == w
            assert wf.above(wf.below(w)) == w

    def test_minimum_size_enforced(self):
        with pytest.raises(WindowGeometryError):
            WindowFile(MIN_WINDOWS - 1)

    def test_index_bounds_checked(self):
        wf = WindowFile(4)
        with pytest.raises(WindowGeometryError):
            wf.ins_of(4)
        with pytest.raises(WindowGeometryError):
            wf.locals_of(-1)


class TestOverlap:
    """The in/out register overlap is the heart of SPARC windows."""

    def test_outs_are_ins_of_window_above(self):
        wf = WindowFile(8)
        wf.cwp = 5
        wf.write_out(3, 99)
        assert wf.ins_of(4)[3] == 99

    def test_callee_sees_caller_outs_as_ins(self):
        wf = WindowFile(8)
        wf.cwp = 5
        for i in range(8):
            wf.write_out(i, 100 + i)
        wf.cwp = 4  # what a save does
        for i in range(8):
            assert wf.read_in(i) == 100 + i

    def test_locals_are_private(self):
        wf = WindowFile(8)
        wf.cwp = 5
        wf.write_local(2, 7)
        wf.cwp = 4
        assert wf.read_local(2) == 0
        wf.cwp = 6
        assert wf.read_local(2) == 0

    def test_outs_of_matches_write_out(self):
        wf = WindowFile(6)
        wf.cwp = 2
        wf.write_out(0, 11)
        assert wf.outs_of(2)[0] == 11

    def test_overlap_wraps_cyclically(self):
        wf = WindowFile(4)
        wf.cwp = 0
        wf.write_out(1, 42)
        assert wf.ins_of(3)[1] == 42


class TestGlobals:
    def test_globals_shared_across_windows(self):
        wf = WindowFile(8)
        wf.write_global(3, 5)
        wf.cwp = 2
        assert wf.read_global(3) == 5

    def test_g0_hardwired_to_zero(self):
        wf = WindowFile(8)
        wf.write_global(0, 123)
        assert wf.read_global(0) == 0


class TestWIM:
    def test_set_and_query(self):
        wf = WindowFile(8)
        wf.set_wim({2, 5})
        assert wf.is_invalid(2)
        assert wf.is_invalid(5)
        assert not wf.is_invalid(3)

    def test_mark_valid_invalid(self):
        wf = WindowFile(8)
        wf.mark_invalid(1)
        assert wf.is_invalid(1)
        wf.mark_valid(1)
        assert not wf.is_invalid(1)

    def test_set_wim_checks_range(self):
        wf = WindowFile(4)
        with pytest.raises(WindowGeometryError):
            wf.set_wim({9})


def _two_frame_thread(n_windows):
    """An SNP machine with one dispatched thread at depth 2: window
    ``bottom`` holds frame 1 and the CWP holds frame 2."""
    cpu, scheme = make_machine(n_windows, "SNP")
    tw = new_thread(scheme, 0)
    dispatch(cpu, scheme, None, tw)
    call_to_depth(cpu, tw, 2)
    assert tw.resident == 2
    return cpu, scheme, tw


class TestFrames:
    """The window file's frame traffic: a spill copies a window's ins
    and locals out (``Scheme._spill_bottom``) and the in-place underflow
    loads them back (``handle_underflow``)."""

    def test_capture_and_load_roundtrip(self):
        cpu, scheme, tw = _two_frame_thread(6)
        wf = cpu.wf
        bottom = tw.bottom
        for i in range(8):
            wf.ins_of(bottom)[i] = i * 2
            wf.locals_of(bottom)[i] = i * 3
        scheme._spill_bottom(tw.bottom)
        frame = tw.store.frames[-1]
        assert frame.depth == 1
        for i in range(8):
            wf.ins_of(bottom)[i] = 0
            wf.locals_of(bottom)[i] = 0
        scheme.handle_underflow(tw)  # frame 1 comes back into the CWP
        for i in range(8):
            assert wf.read_in(i) == i * 2
            assert wf.read_local(i) == i * 3
        assert tw.depth == 1 and not tw.store

    def test_capture_copies_not_aliases(self):
        cpu, scheme, tw = _two_frame_thread(6)
        wf = cpu.wf
        bottom = tw.bottom
        wf.ins_of(bottom)[0] = 10
        scheme._spill_bottom(tw.bottom)
        frame = tw.store.frames[-1]
        wf.ins_of(bottom)[0] = 20
        assert frame.ins[0] == 10

    def test_copy_ins_to_outs_is_the_inplace_shuffle(self):
        """§3.2: callee's ins (return values) must land in its outs."""
        cpu, scheme, tw = _two_frame_thread(8)
        wf = cpu.wf
        scheme._spill_bottom(tw.bottom)
        for i in range(8):
            wf.write_in(i, 50 + i)
        # Loading the caller's frame over the CWP must not lose them.
        scheme.handle_underflow(tw)
        for i in range(8):
            assert wf.read_out(i) == 50 + i
