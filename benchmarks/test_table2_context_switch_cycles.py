"""Table 2 — cycles for a context switch (§6.2).

The calibrated cost model must land inside the paper's measured S-20
range for every (scheme, saves, restores) row, and the running system
must only ever produce switch shapes the schemes allow.
"""

import pytest

from repro.core.costs import CostModel
from repro.experiments.table2 import render_table2, run_table2


@pytest.fixture(scope="module")
def table2(engine):
    return run_table2(scale=0.05, engine=engine)


def test_regenerate_table2(benchmark, results_dir, engine):
    result = benchmark.pedantic(
        lambda: run_table2(scale=0.05, engine=engine),
        rounds=1, iterations=1)
    (results_dir / "table2.txt").write_text(render_table2(result))


class TestTable2:
    def test_every_model_row_inside_paper_range(self, table2):
        for row, value, ok in table2.rows:
            assert ok, (row, value)

    def test_snp_switches_transfer_at_most_one_each_way(self, table2):
        """Table 2 lists SNP rows only up to (1, 1): the scheme never
        moves more than one window per direction at a switch."""
        for (saves, restores) in table2.observed_histograms["SNP"]:
            assert saves <= 1 and restores <= 1

    def test_sp_switches_transfer_at_most_two_saves(self, table2):
        for (saves, restores) in table2.observed_histograms["SP"]:
            assert saves <= 2 and restores <= 1

    def test_sp_best_case_dominates_when_windows_suffice(self, table2):
        """Most SP switches move nothing (the (0,0) row), which is the
        whole argument for PRWs."""
        hist = table2.observed_histograms["SP"]
        best = hist.get((0, 0), 0)
        assert best >= max(v for k, v in hist.items() if k != (0, 0)) * 0.3

    def test_ns_always_restores_resumed_threads(self, table2):
        """NS switches to a *resumed* thread always restore exactly the
        stack-top window."""
        hist = table2.observed_histograms["NS"]
        resumed = {k: v for k, v in hist.items() if k[1] == 1}
        fresh = {k: v for k, v in hist.items() if k[1] == 0}
        assert sum(resumed.values()) > 100
        assert sum(fresh.values()) <= 7 + 1  # at most one per thread


def test_cost_model_switch_cost_microbench(benchmark):
    """Microbenchmark: the cost-model lookup itself (used in every
    simulated switch) must stay trivial."""
    model = CostModel()

    def lookup():
        total = 0
        for saves in range(3):
            total += model.snp_switch_cost(saves, 1)
            total += model.sp_switch_cost(saves, 1, True)
            total += model.ns_switch_cost(saves + 1, 1)
        return total

    assert benchmark(lookup) > 0
