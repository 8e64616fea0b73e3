"""Differential property test: the flat fast-path ``WindowFile`` must
match the retained nested-list :class:`ReferenceWindowFile` across
randomized save/restore, register and WIM sequences, including traffic
that wraps around window 0."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.support.reference import ReferenceWindowFile
from repro.windows.window_file import REGS_PER_BANK, WindowFile
from tests.helpers import call_to_depth, dispatch, make_machine, new_thread

# ops: (kind, window-ish, reg, value) — window/reg are reduced mod the
# actual geometry inside the interpreter so every op is always legal
op_strategy = st.tuples(st.integers(0, 8), st.integers(0, 63),
                        st.integers(0, REGS_PER_BANK - 1),
                        st.integers(-(2 ** 40), 2 ** 40))


def _same_state(wf: WindowFile, ref: ReferenceWindowFile) -> None:
    assert wf.n_windows == ref.n_windows
    assert wf.cwp == ref.cwp
    assert wf.wim == ref.wim
    assert wf.global_regs == ref.global_regs
    for w in range(wf.n_windows):
        assert list(wf.ins_of(w)) == ref.ins_of(w), "ins of %d" % w
        assert list(wf.locals_of(w)) == ref.locals_of(w), "locals of %d" % w
        assert list(wf.outs_of(w)) == ref.outs_of(w), "outs of %d" % w
        assert wf.is_invalid(w) == ref.is_invalid(w)
        assert wf.above(w) == ref.above(w)
        assert wf.below(w) == ref.below(w)


def _apply(wf, ref, op) -> None:
    kind, wsel, reg, value = op
    n = wf.n_windows
    w = wsel % n
    if kind == 0:  # save: CWP moves up, possibly wrapping past 0
        target = wf.above(wf.cwp)
        wf.cwp = target
        ref.cwp = target
    elif kind == 1:  # restore: CWP moves down
        target = wf.below(wf.cwp)
        wf.cwp = target
        ref.cwp = target
    elif kind == 2:
        wf.write_in(reg, value)
        ref.write_in(reg, value)
    elif kind == 3:
        wf.write_local(reg, value)
        ref.write_local(reg, value)
    elif kind == 4:  # out writes land in the window above (aliasing)
        wf.write_out(reg, value)
        ref.write_out(reg, value)
    elif kind == 5:
        wf.write_global(reg, value)
        ref.write_global(reg, value)
    elif kind == 6:  # WIM rebuild from an invalid set (wraps freely)
        invalid = {(w + i) % n for i in range(wsel % (n + 1))}
        wf.set_wim(invalid)
        ref.set_wim(invalid)
    elif kind == 7:
        wf.set_wim_only(w)
        ref.set_wim_only(w)
    elif kind == 8:
        if value % 2:
            wf.mark_invalid(w)
            ref.mark_invalid(w)
        else:
            wf.mark_valid(w)
            ref.mark_valid(w)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(3, 34), ops=st.lists(op_strategy, min_size=1,
                                          max_size=80))
def test_flat_file_matches_reference(n, ops):
    wf = WindowFile(n)
    ref = ReferenceWindowFile(n)
    for op in ops:
        _apply(wf, ref, op)
        _same_state(wf, ref)


def test_wim_wraparound_save_chain():
    """A save chain longer than the file wraps the CWP (and the single
    invalid window) cyclically past window 0 without state divergence."""
    n = 5
    wf = WindowFile(n)
    ref = ReferenceWindowFile(n)
    wf.set_wim_only(n - 1)
    ref.set_wim_only(n - 1)
    for step in range(2 * n + 3):
        wf.write_local(0, ("frame", step))
        ref.write_local(0, ("frame", step))
        nxt = wf.above(wf.cwp)
        wf.set_wim_only(wf.above(nxt))
        ref.set_wim_only(ref.above(nxt))
        wf.cwp = nxt
        ref.cwp = nxt
        _same_state(wf, ref)
    assert wf.cwp == (0 - (2 * n + 3)) % n


def test_out_in_aliasing_is_physical():
    """outs_of(w) is the same storage as ins_of(above(w)) — in the flat
    file it is literally the same view object."""
    wf = WindowFile(8)
    for w in range(8):
        assert wf.outs_of(w) is wf.ins_of(wf.above(w))
    wf.cwp = 0
    wf.write_out(3, 99)
    assert wf.ins_of(7)[3] == 99


def _spilled_thread(n_windows, ins0, local1):
    """An SNP machine with one thread at depth 2 whose outermost frame
    (ins[0] = ``ins0``, locals[1] = ``local1``) was just spilled by
    ``Scheme._spill_bottom``; returns the spilled frame too."""
    cpu, scheme = make_machine(n_windows, "SNP")
    tw = new_thread(scheme, 0)
    dispatch(cpu, scheme, None, tw)
    call_to_depth(cpu, tw, 2)
    bottom = tw.bottom
    cpu.wf.ins_of(bottom)[0] = ins0
    cpu.wf.locals_of(bottom)[1] = local1
    scheme._spill_bottom(tw.bottom)
    return cpu, scheme, tw, bottom, tw.store.frames[-1]


def test_frame_pool_reuses_released_frames():
    cpu, scheme, tw, __, frame = _spilled_thread(6, 11, 0)
    wf = cpu.wf
    assert frame.ins[0] == 11 and frame.depth == 1
    scheme.handle_underflow(tw)  # the restore releases the buffer
    assert wf._frame_pool == [frame]
    call_to_depth(cpu, tw, 3)
    wf.ins_of(tw.bottom)[0] = 22
    scheme._spill_bottom(tw.bottom)
    again = tw.store.frames[-1]
    assert again is frame  # pooled buffer, not a new allocation
    assert again.ins[0] == 22 and again.depth == 1
    # with the pool empty, the next spill allocates a full-sized frame
    scheme._spill_bottom(tw.bottom)
    third = tw.store.frames[-1]
    assert third is not frame and third.depth == 2
    assert len(third.ins) == len(third.local_regs) == REGS_PER_BANK


def test_capture_copies_rather_than_aliases():
    cpu, __, __, bottom, frame = _spilled_thread(4, 0, 7)
    cpu.wf.locals_of(bottom)[1] = 8
    assert frame.local_regs[1] == 7
