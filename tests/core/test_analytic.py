"""The analytic bounding model must bracket the simulation."""

import pytest

from tests.support.analytic import AnalyticModel, WorkloadStats, stats_from_run
from repro.apps.spellcheck import SpellConfig, build_spellchecker
from repro.metrics.observer import RunObserver
from repro.runtime.kernel import Kernel

SCALE = 0.03


def _instrumented_run(scheme, n_windows):
    kernel = Kernel(n_windows=n_windows, scheme=scheme,
                    verify_registers=False)
    observer = RunObserver().attach(kernel)
    build_spellchecker(kernel, SpellConfig.named("high", "medium",
                                                 scale=SCALE))
    result = kernel.run()
    return result, observer.behavior()


@pytest.fixture(scope="module")
def model():
    result, behavior = _instrumented_run("SP", 32)
    return AnalyticModel(stats_from_run(result.counters, behavior))


class TestStats:
    def test_total_window_activity_is_the_product(self):
        stats = WorkloadStats(1, 1, 1, 1,
                              window_activity_per_thread=2.5,
                              concurrency=4.0)
        assert stats.total_window_activity == 10.0

    def test_stats_from_run_sane(self, model):
        s = model.stats
        assert s.context_switches > 50
        assert s.saves == s.restores
        assert 1.0 <= s.window_activity_per_thread <= 6.0
        assert 1.0 <= s.concurrency <= 7.0


class TestBounds:
    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_floor_below_ceiling(self, model, scheme):
        assert (model.sharing_floor_cycles(scheme)
                < model.sharing_ceiling_cycles(scheme))

    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_simulation_between_bounds_when_plentiful(self, model,
                                                      scheme):
        result, __ = _instrumented_run(scheme, 32)
        measured = result.counters.total_cycles
        assert model.sharing_floor_cycles(scheme) * 0.95 <= measured
        assert measured <= model.sharing_ceiling_cycles(scheme)

    @pytest.mark.parametrize("scheme", ["SP", "SNP"])
    def test_simulation_approaches_floor_with_many_windows(self, model,
                                                           scheme):
        result, __ = _instrumented_run(scheme, 32)
        floor = model.sharing_floor_cycles(scheme)
        assert result.counters.total_cycles <= floor * 1.25

    def test_ns_prediction_close_to_simulation(self, model):
        result, __ = _instrumented_run("NS", 16)
        measured = result.counters.total_cycles
        predicted = model.ns_cycles()
        assert 0.5 <= predicted / measured <= 2.0

    def test_headline_claim(self, model):
        """With windows plentiful the sharing schemes must beat NS —
        the whole point of the paper, in closed form."""
        assert model.sharing_beats_ns_when_plentiful("SP")
        assert model.sharing_beats_ns_when_plentiful("SNP")

    def test_plentiful_criterion(self, model):
        activity = model.stats.total_window_activity
        assert model.windows_plentiful(int(activity) + 2)
        assert not model.windows_plentiful(max(1, int(activity) - 3))
