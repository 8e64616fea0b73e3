"""Unit tests for the window-ownership map."""

from repro.windows.occupancy import FRAME, FREE, RESERVED, WindowMap


def set_frame(wmap, w, tid):
    """Claim window ``w`` for a frame of ``tid``, the way
    ``WindowCPU.save`` writes the map."""
    wmap._kind[w] = FRAME
    wmap._tid[w] = tid


class TestWindowMap:
    def test_starts_all_free(self):
        wmap = WindowMap(6)
        assert wmap.free_count() == 6
        assert all(wmap.is_free(w) for w in range(6))

    def test_set_frame(self):
        wmap = WindowMap(6)
        set_frame(wmap, 2, tid=5)
        assert wmap.entry(2) == (FRAME, 5)
        assert not wmap.is_free(2) and wmap.free_count() == 5

    def test_set_reserved_global_and_private(self):
        wmap = WindowMap(6)
        wmap.set_reserved(0)
        wmap.set_reserved(1, tid=3)
        assert wmap.entry(0) == (RESERVED, None)
        assert wmap.entry(1) == (RESERVED, 3)

    def test_set_free_clears_tid(self):
        wmap = WindowMap(6)
        set_frame(wmap, 2, tid=5)
        wmap.set_free(2)
        assert wmap.is_free(2)
        assert wmap.tid(2) is None
        assert wmap.kind(2) == FREE

    def test_repr_readable(self):
        wmap = WindowMap(4)
        set_frame(wmap, 0, tid=2)
        wmap.set_reserved(1)
        wmap.set_reserved(2, tid=3)
        text = repr(wmap)
        assert "T2" in text and "R" in text and "P3" in text
