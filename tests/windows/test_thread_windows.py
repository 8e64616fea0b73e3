"""ThreadWindows bookkeeping."""

import pytest

from repro.windows.errors import WindowGeometryError
from repro.windows.thread_windows import ThreadWindows


class TestResidency:
    def test_fresh_thread_has_nothing(self):
        tw = ThreadWindows(1)
        assert not tw.has_windows
        assert tw.resident_windows(8) == []
        assert tw.depth == 0

    def test_resident_windows_cyclic(self):
        tw = ThreadWindows(1)
        tw.cwp, tw.bottom, tw.resident, tw.depth = 6, 1, 4, 4
        assert tw.resident_windows(8) == [6, 7, 0, 1]

    def test_drop_windows(self):
        tw = ThreadWindows(1)
        tw.cwp, tw.bottom, tw.resident, tw.prw = 2, 3, 2, 1
        tw.drop_windows()
        assert tw.cwp is None and tw.prw is None and tw.resident == 0


class TestConsistency:
    def test_valid_state_passes(self):
        tw = ThreadWindows(1)
        tw.cwp, tw.bottom, tw.resident, tw.depth = 5, 7, 3, 3
        tw.check_consistency(8)

    def test_span_mismatch_detected(self):
        tw = ThreadWindows(1)
        tw.cwp, tw.bottom, tw.resident, tw.depth = 5, 7, 2, 2
        with pytest.raises(WindowGeometryError):
            tw.check_consistency(8)

    def test_phantom_pointers_detected(self):
        tw = ThreadWindows(1)
        tw.cwp = 3
        with pytest.raises(WindowGeometryError):
            tw.check_consistency(8)

    def test_depth_mismatch_detected(self):
        tw = ThreadWindows(1)
        tw.cwp, tw.bottom, tw.resident, tw.depth = 5, 5, 1, 7
        with pytest.raises(WindowGeometryError):
            tw.check_consistency(8)

    def test_repr(self):
        assert "tid=4" in repr(ThreadWindows(4))
