"""Unit tests for the free-run scanner behind the allocation policies."""

from repro.core.allocation import _longest_free_run
from repro.windows.occupancy import FRAME, WindowMap


def make_map(n, frames=(), reserved=()):
    wmap = WindowMap(n)
    for w in frames:
        wmap._kind[w] = FRAME
        wmap._tid[w] = 0
    for w in reserved:
        wmap.set_reserved(w)
    return wmap


class TestLongestFreeRun:
    def test_all_free(self):
        end, length = _longest_free_run(make_map(6))
        assert length == 6

    def test_single_occupied_window(self):
        wmap = make_map(6, frames=[2])
        end, length = _longest_free_run(wmap)
        assert length == 5
        # the run's lower end is just above the occupied window,
        # wrapping: 1, 0, 5, 4, 3
        assert end == 1

    def test_two_runs_picks_longer(self):
        wmap = make_map(8, frames=[0, 5])
        # runs: 4..1 upward from 4 (length 4): 4,3,2,1 ; 7,6 (length 2)
        end, length = _longest_free_run(wmap)
        assert (end, length) == (4, 4)

    def test_no_free_windows(self):
        wmap = make_map(4, frames=[0, 1, 2], reserved=[3])
        end, length = _longest_free_run(wmap)
        assert length == 0

    def test_reserved_blocks_runs(self):
        wmap = make_map(6, frames=[0], reserved=[3])
        # free: 1, 2 and 4, 5 -> two runs of length 2; either is fine
        end, length = _longest_free_run(wmap)
        assert length == 2
        assert end in (2, 5)

    def test_lower_end_has_occupied_below(self):
        wmap = make_map(8, frames=[3])
        end, length = _longest_free_run(wmap)
        assert not wmap.is_free((end + 1) % 8) or length == 8
