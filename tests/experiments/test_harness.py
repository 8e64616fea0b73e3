"""The experiment harness: run_point, sweep grids and env knobs."""

from repro.experiments.engine import sweep_specs
from repro.experiments.harness import run_point
from repro.experiments.points import env_scale, env_windows

TINY = 0.02


class TestRunPoint:
    def test_fields_populated(self):
        point = run_point("SP", 8, "high", "fine", scale=TINY)
        assert point.scheme == "SP"
        assert point.n_windows == 8
        assert point.policy == "fifo"
        assert point.total_cycles > 0
        assert point.context_switches > 0
        assert point.saves == point.restores
        assert 0.0 <= point.trap_probability <= 1.0
        assert point.output_bytes > 0
        assert set(point.per_thread_switches) == {
            "T1.delatex", "T2.spell1", "T3.spell2", "T4.input",
            "T5.output", "T6.dict1", "T7.dict2"}

    def test_working_set_flag(self):
        point = run_point("SP", 8, "high", "fine", scale=TINY,
                          working_set=True)
        assert point.policy == "working-set"

    def test_cycles_decompose(self):
        p = run_point("SNP", 6, "low", "coarse", scale=TINY)
        assert (p.switch_cycles + p.trap_cycles + p.compute_cycles
                <= p.total_cycles)


class TestSweep:
    def test_sp_skips_too_small_files(self):
        specs = sweep_specs("high", "fine", [3, 4, 5], ("SP", "SNP"), TINY)
        assert [(s.scheme, s.n_windows) for s in specs] == [
            ("SP", 4), ("SP", 5), ("SNP", 3), ("SNP", 4), ("SNP", 5)]

    def test_deterministic(self):
        a = run_point("SP", 6, "high", "medium", scale=TINY)
        b = run_point("SP", 6, "high", "medium", scale=TINY)
        assert a.total_cycles == b.total_cycles
        assert a.per_thread_switches == b.per_thread_switches


class TestEnvKnobs:
    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert env_scale() == 0.5
        monkeypatch.delenv("REPRO_SCALE")
        assert env_scale(0.25) == 0.25

    def test_env_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_WINDOWS", "4, 8,16")
        assert env_windows() == [4, 8, 16]
        monkeypatch.delenv("REPRO_WINDOWS")
        assert env_windows([7]) == [7]
