"""Counter bookkeeping.

The CPU, the kernel and the schemes bump the fields inline, so these
cases set them directly and check what is derived from them.
"""

import pytest

from repro.metrics.counters import Counters
from repro.windows.thread_windows import ThreadWindows


class TestCounters:
    def test_trap_probability(self):
        c = Counters(saves=8, restores=2, overflow_traps=1,
                     underflow_traps=1)
        assert c.trap_probability == pytest.approx(2 / 10)
        assert c.window_traps == 2

    def test_trap_probability_empty(self):
        assert Counters().trap_probability == 0.0

    def test_avg_switch_cycles(self):
        c = Counters(context_switches=2, switch_cycles=300)
        c.switch_transfer_hist[(0, 0)] += 1
        c.switch_transfer_hist[(1, 1)] += 1
        assert c.avg_switch_cycles == 150.0
        assert c.transfer_histogram() == {(0, 0): 1, (1, 1): 1}

    def test_avg_switch_cycles_empty(self):
        assert Counters().avg_switch_cycles == 0.0

    def test_cycle_categories_sum(self):
        c = Counters(call_cycles=5, trap_cycles=30, switch_cycles=55)
        c.record_compute(10)
        assert c.total_cycles == 100

    def test_per_thread_counters(self):
        """The per-thread dicts are filled by fold_thread_stats from the
        tallies each ThreadWindows batches inline, and the tallies are
        zeroed, so a second fold adds nothing."""
        a, b = ThreadWindows(3), ThreadWindows(5)
        a.stat_saves, a.stat_switches = 2, 1
        b.stat_saves = 1
        c = Counters(per_thread_saves={3: 1})
        c.fold_thread_stats([a, b])
        c.fold_thread_stats([a, b])
        assert c.per_thread_saves == {3: 3, 5: 1}
        assert c.per_thread_switches == {3: 1}
        assert (a.stat_saves, a.stat_switches, b.stat_saves) == (0, 0, 0)

    def test_per_thread_restores(self):
        a, b = ThreadWindows(3), ThreadWindows(7)
        a.stat_saves, a.stat_restores = 1, 2
        b.stat_restores = 1
        c = Counters(restores=3)
        c.fold_thread_stats([a, b])
        c.fold_thread_stats([a, b])
        assert c.per_thread_restores == {3: 2, 7: 1}
        assert sum(c.per_thread_restores.values()) == c.restores
        assert (a.stat_restores, b.stat_restores) == (0, 0)

    def test_snapshot_keys(self):
        snap = Counters().snapshot()
        assert snap["total_cycles"] == 0
        assert set(snap) >= {"saves", "restores", "overflow_traps",
                             "underflow_traps", "context_switches",
                             "per_thread_saves", "per_thread_restores"}

    def test_snapshot_per_thread_maps(self):
        c = Counters(per_thread_saves={1: 1},
                     per_thread_restores={1: 1, 2: 1})
        snap = c.snapshot()
        assert snap["per_thread_saves"] == {1: 1}
        assert snap["per_thread_restores"] == {1: 1, 2: 1}
        # snapshot returns copies, not live references
        snap["per_thread_restores"][9] = 99
        assert 9 not in c.per_thread_restores
