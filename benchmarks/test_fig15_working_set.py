"""Figure 15 — the working-set concept on register windows (§4.6,
§6.5): high concurrency, the awoken-thread-with-windows-jumps-the-queue
policy.

Paper claims reproduced:

* performance at a small number of windows improves dramatically — the
  sharing schemes "work well with even seven or eight windows";
* at four or five windows the scheduling cannot push total window
  activity low enough, so the sharing schemes still lose;
* there is no significant performance loss versus FIFO at a large
  number of windows.
"""

import pytest

from benchmarks.conftest import value_at, write_series_report
from repro.experiments.figures import run_fig11, run_fig15

GRANULARITIES = ("coarse", "medium", "fine")


@pytest.fixture(scope="module")
def fig15(figure):
    return figure(run_fig15)


@pytest.fixture(scope="module")
def fig11_series(figure):
    return figure(run_fig11)


def test_regenerate_fig15(benchmark, fig15, results_dir, scale):
    def render():
        write_series_report(
            results_dir / "fig15.txt",
            "Figure 15: execution time (cycles), high concurrency, "
            "working-set scheduling, scale=%.2f" % scale,
            fig15)
        return fig15

    benchmark.pedantic(render, rounds=1, iterations=1)


class TestFig15Shape:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_sharing_works_well_at_seven_or_eight_windows(
            self, fig15, granularity, scheme):
        points = fig15[granularity][scheme]
        last = max(x for x, __ in points)
        floor = value_at(points, last)
        at8 = value_at(points, 8)
        assert at8 <= floor * 1.30

    @pytest.mark.parametrize("granularity", ["medium", "fine"])
    def test_four_windows_still_not_enough(self, fig15, granularity):
        """§6.5: scheduling cannot reduce total window activity below
        the four-five window level."""
        sp = fig15[granularity]["SP"]
        last = max(x for x, __ in sp)
        assert value_at(sp, 4) > value_at(sp, last) * 1.25

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_improves_on_fifo_when_windows_scarce(self, fig15,
                                                  fig11_series,
                                                  granularity):
        """The headline of Figure 15 vs Figure 11."""
        improved = 0
        for n in (6, 7, 8):
            ws = value_at(fig15[granularity]["SP"], n)
            fifo = value_at(fig11_series[granularity]["SP"], n)
            if ws < fifo * 0.97:
                improved += 1
        assert improved >= 2

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_no_significant_loss_at_many_windows(self, fig15,
                                                 fig11_series,
                                                 granularity, scheme):
        last = max(x for x, __ in fig15[granularity][scheme])
        ws = value_at(fig15[granularity][scheme], last)
        fifo = value_at(fig11_series[granularity][scheme], last)
        assert ws <= fifo * 1.05
