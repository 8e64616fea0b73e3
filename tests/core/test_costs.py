"""The calibrated cost model must reproduce Table 2 and keep the cost
relations the paper's arguments depend on."""

import pytest

from repro.core.costs import CostModel, PAPER_TABLE2


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestTable2Calibration:
    def test_every_row_in_paper_range(self, model):
        for row, value, ok in model.table2_check():
            assert ok, (
                "%s (%d,%d): model %d outside paper range %d-%d"
                % (row.scheme, row.saves, row.restores, value,
                   row.lo, row.hi))

    def test_ns_cost_exactly_linear(self, model):
        costs = [model.ns_switch_cost(s, 1) for s in range(1, 7)]
        deltas = {b - a for a, b in zip(costs, costs[1:])}
        assert deltas == {model.ns_per_save}

    def test_best_case_ordering(self, model):
        """SP best < SNP best < NS best (Table 2's headline)."""
        sp = model.sp_switch_cost(0, 0, False)
        snp = model.snp_switch_cost(0, 0)
        ns = model.ns_switch_cost(1, 1)
        assert sp < snp < ns

    def test_sp_worst_beats_ns_with_four_active_windows(self, model):
        """SP's worst case (2 saves + restore) is still cheaper than an
        NS switch flushing four windows (as in the paper's Table 2,
        229-ish vs 255-ish)."""
        assert model.sp_switch_cost(2, 1, True) < model.ns_switch_cost(4, 1)


class TestTrapCosts:
    def test_overflow_spill_costs_more_than_claim(self, model):
        assert model.overflow_cost(True) > model.overflow_cost(False)

    def test_flush_cheaper_than_trap_spill(self, model):
        """§4.4: flushing at switch time avoids trap entry/exit."""
        assert model.flush_cost(1) < model.overflow_cost(True)

    def test_inplace_underflow_has_copy_and_emulation_overhead(self, model):
        """§3.2/§4.3: the in-place restore pays for the ins->outs copy
        and the emulated restore instruction, but stays the same order
        as the conventional handler."""
        inplace = model.underflow_inplace_cost()
        conventional = model.underflow_conventional_cost()
        assert inplace > conventional - model.wim_update
        assert inplace < 2 * conventional

    def test_trap_costs_positive(self, model):
        assert model.overflow_cost(False) > 0
        assert model.underflow_conventional_cost() > 0
        assert model.underflow_inplace_cost() > 0


class TestSwitchCostDispatch:
    def test_switch_cost_by_name(self, model):
        assert model.switch_cost("ns", 2, 1) == model.ns_switch_cost(2, 1)
        assert model.switch_cost("SNP", 1, 0) == model.snp_switch_cost(1, 0)
        assert (model.switch_cost("SP", 0, 1)
                == model.sp_switch_cost(0, 1, True))

    def test_unknown_scheme_rejected(self, model):
        with pytest.raises(ValueError):
            model.switch_cost("XYZ", 0, 0)

    def test_paper_table_structure(self):
        schemes = {row.scheme for row in PAPER_TABLE2}
        assert schemes == {"NS", "SNP", "SP"}
        assert len(PAPER_TABLE2) == 14
        for row in PAPER_TABLE2:
            assert row.lo < row.hi
            assert row.contains((row.lo + row.hi) // 2)
