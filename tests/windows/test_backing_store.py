"""Unit tests for the per-thread backing store and the scheme spill and
restore steps that keep it consistent (``Scheme._spill_bottom``, the
in-place underflow)."""

import pytest

from repro.windows.backing_store import BackingStore, Frame
from repro.windows.errors import WindowGeometryError, WindowIntegrityError
from tests.helpers import call_to_depth, dispatch, make_machine, new_thread


def frame(depth):
    return Frame([depth] * 8, [depth * 10] * 8, depth)


def running_thread(depth):
    """An SNP machine with one dispatched thread at ``depth`` (all of
    its frames resident)."""
    cpu, scheme = make_machine(8, "SNP")
    tw = new_thread(scheme, 0)
    dispatch(cpu, scheme, None, tw)
    call_to_depth(cpu, tw, depth)
    assert tw.resident == depth
    return scheme, tw


class TestBackingStore:
    def test_len_and_bool(self):
        store = BackingStore()
        assert not store
        assert len(store) == 0
        store.frames.append(frame(1))
        assert store
        assert len(store) == 1

    def test_underflow_from_empty_store_raises(self):
        scheme, tw = running_thread(1)
        with pytest.raises(WindowGeometryError, match="empty backing store"):
            scheme.handle_underflow(tw)

    def test_non_contiguous_spill_rejected(self):
        scheme, tw = running_thread(3)
        tw.store.frames.append(frame(3))  # the spill is of depth 1
        with pytest.raises(WindowIntegrityError, match="non-contiguous"):
            scheme._spill_bottom(tw.bottom)

    def test_contiguous_spill_accepted(self):
        scheme, tw = running_thread(5)
        for __ in range(4):
            scheme._spill_bottom(tw.bottom)
        assert [f.depth for f in tw.store.frames] == [1, 2, 3, 4]
        assert len(tw.store) == 4

    def test_unknown_depth_frames_skip_check(self):
        scheme, tw = running_thread(3)
        tw.store.frames.append(Frame([0] * 8, [0] * 8, -1))
        scheme._spill_bottom(tw.bottom)
        assert len(tw.store) == 2
