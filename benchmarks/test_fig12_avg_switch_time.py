"""Figure 12 — average context-switch time vs number of windows, high
concurrency.

The paper's point: with enough windows the sharing schemes' average
switch time approaches their Table 2 *best case* (especially at fine
granularity), meaning most switches transfer no windows at all — the
property that makes the algorithm attractive for multi-threaded
architectures (§6.3).
"""

import pytest

from benchmarks.conftest import value_at, write_series_report
from repro.core.costs import CostModel
from repro.experiments.figures import run_fig12

GRANULARITIES = ("coarse", "medium", "fine")


@pytest.fixture(scope="module")
def fig12(figure):
    return figure(run_fig12)


@pytest.fixture(scope="module")
def model():
    return CostModel()


def test_regenerate_fig12(benchmark, fig12, results_dir, scale):
    def render():
        write_series_report(
            results_dir / "fig12.txt",
            "Figure 12: average context-switch time (cycles), high "
            "concurrency, scale=%.2f" % scale,
            fig12, fmt="%.1f")
        return fig12

    benchmark.pedantic(render, rounds=1, iterations=1)


class TestFig12Shape:
    def test_sp_approaches_best_case_at_fine_granularity(self, fig12,
                                                         model):
        sp = fig12["fine"]["SP"]
        last = max(x for x, __ in sp)
        best = model.sp_switch_cost(0, 0, False)
        assert value_at(sp, last) <= best * 1.10

    def test_snp_approaches_best_case_at_fine_granularity(self, fig12,
                                                          model):
        snp = fig12["fine"]["SNP"]
        last = max(x for x, __ in snp)
        best = model.snp_switch_cost(0, 0)
        assert value_at(snp, last) <= best * 1.10

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_ns_never_below_its_minimum(self, fig12, granularity,
                                        model):
        floor = model.ns_switch_cost(1, 0)
        for __, y in fig12[granularity]["NS"]:
            assert y >= floor

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_sharing_switch_time_falls_with_windows(self, fig12,
                                                    granularity, scheme):
        points = fig12[granularity][scheme]
        first = points[0][1]
        last = points[-1][1]
        assert last < first

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sp_cheaper_than_snp_with_enough_windows(self, fig12,
                                                     granularity):
        """The PRW pays for itself: no outs transfer on switches."""
        sp = fig12[granularity]["SP"]
        snp = fig12[granularity]["SNP"]
        last = max(x for x, __ in sp)
        assert value_at(sp, last) < value_at(snp, last)
