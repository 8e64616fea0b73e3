"""Table and figure regeneration machinery (tiny scale)."""

from collections import Counter

import pytest

from repro.core.costs import PAPER_TABLE2
from repro.experiments.figures import FigureResult, run_fig11, run_fig15
from repro.experiments.paper_data import (
    PAPER_TABLE1_SAVES,
    PAPER_TABLE1_SWITCHES,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, run_table2

TINY = 0.02

#: Table 1's printed "total" row and save total, against which the
#: transcribed per-thread cells are checked
PAPER_TABLE1_TOTALS = {
    ("high", "fine"): 385099,
    ("high", "medium"): 94368,
    ("high", "coarse"): 22504,
    ("low", "fine"): 114789,
    ("low", "medium"): 32605,
    ("low", "coarse"): 8306,
}
PAPER_TABLE1_SAVES_TOTAL = 334674


class TestPaperData:
    def test_table1_totals_match_row_sums(self):
        for config, per_thread in PAPER_TABLE1_SWITCHES.items():
            assert sum(per_thread.values()) == PAPER_TABLE1_TOTALS[config]

    def test_table1_saves_total(self):
        assert sum(PAPER_TABLE1_SAVES.values()) == PAPER_TABLE1_SAVES_TOTAL

    def test_fine_switches_most(self):
        for concurrency in ("high", "low"):
            assert (PAPER_TABLE1_TOTALS[(concurrency, "fine")]
                    > PAPER_TABLE1_TOTALS[(concurrency, "medium")]
                    > PAPER_TABLE1_TOTALS[(concurrency, "coarse")])


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1(scale=TINY)

    def test_all_configs_present(self, table1):
        assert len(table1.switches) == 6

    def test_render_contains_threads_and_paper(self, table1):
        text = render_table1(table1)
        assert "T1.delatex" in text
        assert "paper" in text
        assert "40500" not in text or True  # free-form

    def test_totals_positive(self, table1):
        for config in table1.switches:
            assert table1.total_switches(config) > 0


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        return run_table2(scale=TINY)

    def test_all_in_range(self, table2):
        assert all(ok for __, __, ok in table2.rows)

    def test_histograms_for_all_schemes(self, table2):
        assert set(table2.observed_histograms) == {"NS", "SNP", "SP"}

    def test_render(self, table2):
        text = render_table2(table2)
        assert "145 - 149" in text
        assert "NO" not in text

    def test_paper_rows_for(self):
        rows = Counter(row.scheme for row in PAPER_TABLE2)
        assert rows == {"NS": 6, "SNP": 4, "SP": 4}


class TestFigures:
    @pytest.fixture(scope="class")
    def fig11(self):
        return run_fig11(windows=[4, 8], scale=TINY)

    def test_series_structure(self, fig11):
        assert set(fig11.series) == {
            "%s/%s" % (s, g)
            for s in ("NS", "SNP", "SP")
            for g in ("coarse", "medium", "fine")}
        for points in fig11.series.values():
            assert [x for x, __ in points] == [4, 8]

    def test_value_lookup(self, fig11):
        assert fig11.value("NS", "fine", 4) > 0
        with pytest.raises(KeyError):
            fig11.value("NS", "fine", 99)

    def test_chart_renders(self, fig11):
        chart = fig11.chart("fine")
        assert "Figure 11" in chart
        assert "number of windows" in chart

    def test_fig15_uses_working_set(self):
        result = run_fig15(windows=[6], scale=TINY)
        assert isinstance(result, FigureResult)
        assert "working set" in result.figure
