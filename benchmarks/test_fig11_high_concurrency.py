"""Figure 11 — execution time vs number of windows, high concurrency.

Shape claims reproduced (paper §6.3):

* with enough windows the best scheme is SP;
* with very few windows the NS scheme is best;
* NS is flat in the window count (it flushes everything anyway);
* the sharing advantage grows as granularity becomes finer;
* the sharing curves saturate once the window count covers the total
  window activity.
"""

import pytest

from benchmarks.conftest import value_at, write_series_report
from repro.experiments.figures import run_fig11

GRANULARITIES = ("coarse", "medium", "fine")


@pytest.fixture(scope="module")
def fig11(figure):
    return figure(run_fig11)


def test_regenerate_fig11(benchmark, fig11, results_dir, scale):
    def render():
        write_series_report(
            results_dir / "fig11.txt",
            "Figure 11: execution time (cycles), high concurrency, "
            "scale=%.2f" % scale,
            fig11)
        return fig11

    benchmark.pedantic(render, rounds=1, iterations=1)


class TestFig11Shape:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_ns_best_with_few_windows(self, fig11, granularity):
        by_scheme = fig11[granularity]
        ns = value_at(by_scheme["NS"], 4)
        assert ns <= value_at(by_scheme["SNP"], 4)
        assert ns <= value_at(by_scheme["SP"], 4)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sp_best_with_enough_windows(self, fig11, granularity):
        by_scheme = fig11[granularity]
        last = max(x for x, __ in by_scheme["SP"])
        sp = value_at(by_scheme["SP"], last)
        assert sp < value_at(by_scheme["NS"], last)
        assert sp <= value_at(by_scheme["SNP"], last) * 1.01

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_ns_flat_in_window_count(self, fig11, granularity):
        values = [y for __, y in fig11[granularity]["NS"]]
        assert max(values) <= min(values) * 1.02

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_sharing_curves_nonincreasing(self, fig11, granularity,
                                          scheme):
        values = [y for __, y in fig11[granularity][scheme]]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * 1.03

    def test_sharing_advantage_grows_with_finer_granularity(self, fig11):
        def advantage(granularity):
            by_scheme = fig11[granularity]
            last = max(x for x, __ in by_scheme["SP"])
            return (value_at(by_scheme["NS"], last)
                    / value_at(by_scheme["SP"], last))

        assert advantage("fine") > advantage("coarse")

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sharing_saturates(self, fig11, granularity):
        """More windows beyond the total window activity stop helping."""
        sp = fig11[granularity]["SP"]
        last = max(x for x, __ in sp)
        assert value_at(sp, 16) <= value_at(sp, last) * 1.08

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_crossover_exists(self, fig11, granularity):
        """Somewhere between 4 and 32 windows SP overtakes NS."""
        by_scheme = fig11[granularity]
        diffs = [value_at(by_scheme["NS"], x) - y
                 for x, y in by_scheme["SP"]]
        assert diffs[0] <= 0 or abs(diffs[0]) < diffs[-1]
        assert diffs[-1] > 0
