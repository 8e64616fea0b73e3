"""Figure 14 — execution time vs number of windows, low concurrency
(M = 1024, so the I/O threads almost never switch).

Paper §6.4: the variation in total window activity is greater than in
the high-concurrency case — the coarse-granularity SP curve needs many
more windows to saturate — and the SNP scheme misbehaves at fine
granularity because of the simple allocation policy.
"""

import pytest

from benchmarks.conftest import value_at, write_series_report
from repro.experiments.figures import run_fig11, run_fig14

GRANULARITIES = ("coarse", "medium", "fine")


@pytest.fixture(scope="module")
def fig14(figure):
    return figure(run_fig14)


def test_regenerate_fig14(benchmark, fig14, results_dir, scale):
    def render():
        write_series_report(
            results_dir / "fig14.txt",
            "Figure 14: execution time (cycles), low concurrency, "
            "scale=%.2f" % scale,
            fig14)
        return fig14

    benchmark.pedantic(render, rounds=1, iterations=1)


class TestFig14Shape:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sp_best_with_enough_windows(self, fig14, granularity):
        by_scheme = fig14[granularity]
        last = max(x for x, __ in by_scheme["SP"])
        sp = value_at(by_scheme["SP"], last)
        assert sp < value_at(by_scheme["NS"], last)
        assert sp <= value_at(by_scheme["SNP"], last) * 1.01

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_ns_flat(self, fig14, granularity):
        values = [y for __, y in fig14[granularity]["NS"]]
        assert max(values) <= min(values) * 1.02

    def test_coarse_needs_many_windows_to_saturate(self, fig14):
        """§6.4: "20 or more windows are required for the SP scheme at
        the coarse granularity" — at 12 windows the low-concurrency
        coarse SP curve is still measurably above its floor."""
        low = fig14["coarse"]["SP"]
        last = max(x for x, __ in low)
        assert value_at(low, 12) > value_at(low, last) * 1.03

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sharing_improves_with_windows(self, fig14, granularity):
        for scheme in ("SP", "SNP"):
            points = fig14[granularity][scheme]
            assert points[-1][1] < points[0][1]

    def test_low_concurrency_runs_fewer_cycles_than_high(self, fig14,
                                                         figure):
        """Fewer context switches overall (Table 1's low columns)."""
        high = figure(run_fig11)
        for granularity in GRANULARITIES:
            last = max(x for x, __ in fig14[granularity]["SP"])
            assert (value_at(fig14[granularity]["SP"], last)
                    < value_at(high[granularity]["SP"], last))
