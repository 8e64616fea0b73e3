"""Figure 13 — probability of window traps vs number of windows, high
concurrency.

Traps divided by executed save+restore instructions.  Since the number
of function calls is constant, a falling curve means the sharing
schemes keep procedure calls fast too (§6.3): with enough windows
their trap probability approaches zero, while NS keeps a floor of
underflow traps caused by flushing on every switch.
"""

import pytest

from benchmarks.conftest import value_at, write_series_report
from repro.experiments.figures import run_fig13

GRANULARITIES = ("coarse", "medium", "fine")


@pytest.fixture(scope="module")
def fig13(figure):
    return figure(run_fig13)


def test_regenerate_fig13(benchmark, fig13, results_dir, scale):
    def render():
        write_series_report(
            results_dir / "fig13.txt",
            "Figure 13: window-trap probability, high concurrency, "
            "scale=%.2f" % scale,
            fig13, fmt="%.4f")
        return fig13

    benchmark.pedantic(render, rounds=1, iterations=1)


class TestFig13Shape:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_sharing_traps_vanish_with_enough_windows(self, fig13,
                                                      granularity,
                                                      scheme):
        points = fig13[granularity][scheme]
        last = max(x for x, __ in points)
        assert value_at(points, last) < 0.05

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_sharing_traps_high_when_windows_scarce(self, fig13,
                                                    granularity, scheme):
        assert value_at(fig13[granularity][scheme], 4) > 0.10

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_ns_probability_flat(self, fig13, granularity):
        values = [y for __, y in fig13[granularity]["NS"]]
        assert max(values) - min(values) < 0.01

    @pytest.mark.parametrize("granularity", ["medium", "fine"])
    def test_ns_keeps_a_trap_floor(self, fig13, granularity):
        """The hidden underflow cost of flush-on-switch (§6.2)."""
        values = [y for __, y in fig13[granularity]["NS"]]
        assert min(values) > 0.05

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_sharing_beats_ns_with_enough_windows(self, fig13,
                                                  granularity):
        last = max(x for x, __ in fig13[granularity]["SP"])
        for scheme in ("SP", "SNP"):
            assert (value_at(fig13[granularity][scheme], last)
                    < value_at(fig13[granularity]["NS"], last))

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_probability_decreases_overall(self, fig13, granularity,
                                           scheme):
        points = fig13[granularity][scheme]
        assert points[-1][1] < points[0][1]
