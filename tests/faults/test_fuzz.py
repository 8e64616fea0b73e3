"""The fuzzer: deterministic draws, the survive-or-minimize gate, and
unexpected-outcome detection."""

import pytest

from repro.faults import FuzzReport, draw_trial, run_fuzz
from repro.faults.fuzz import FuzzTrial
from repro.faults.plan import FaultPlan
from repro.runtime.batch import ENV_CORE
from tests.support.trampoline import forbid_step_loop

#: a seed/trial window known (by construction, any works) to include
#: both survived and detected outcomes — see test_smoke_mixes_outcomes
SMOKE_SEED = 1993
SMOKE_TRIALS = 8

ALL_WORKLOADS = None  # default registry


@pytest.fixture(autouse=True, params=["batched"])
def execution_core(request, monkeypatch):
    """Fuzz trials draw their own execution core per trial; pin the
    ambient env so the suite-wide sweep does not double the cost."""
    monkeypatch.setenv(ENV_CORE, request.param)
    return request.param


class TestDraws:
    def test_draw_is_deterministic(self):
        a = draw_trial(42, 3, ("spellcheck", "synthetic-ping-pong"))
        b = draw_trial(42, 3, ("spellcheck", "synthetic-ping-pong"))
        assert (a.workload, a.scheme, a.n_windows, a.core,
                a.plan, a.config) == \
               (b.workload, b.scheme, b.n_windows, b.core,
                b.plan, b.config)

    def test_different_indices_differ(self):
        draws = {draw_trial(42, i, ("spellcheck",)).plan
                 for i in range(10)}
        assert len(draws) > 1

    def test_draw_arms_the_detection_battery(self):
        trial = draw_trial(7, 0, ("synthetic-ping-pong",))
        assert trial.config["verify_registers"]
        assert trial.config["audit"]
        assert trial.config["watchdog"] > 0
        assert trial.config["max_steps"] > 0
        assert 1 <= len(trial.plan.specs) <= 3

    def test_draw_respects_core_and_scheme_filters(self):
        for i in range(6):
            trial = draw_trial(7, i, ("synthetic-ping-pong",),
                               schemes=("NS",), cores=("generator",))
            assert trial.scheme == "NS"
            assert trial.core == "generator"
            assert trial.config["core"] == "generator"


class TestCampaign:
    def test_campaign_is_deterministic(self, tmp_path):
        a = run_fuzz(trials=4, seed=5, out_dir=tmp_path / "a")
        b = run_fuzz(trials=4, seed=5, out_dir=tmp_path / "b")
        assert [(t.outcome, t.error_type) for t in a.trials] \
            == [(t.outcome, t.error_type) for t in b.trials]
        for ta, tb in zip(a.trials, b.trials):
            if ta.bundle is not None:
                assert ta.bundle.name == tb.bundle.name

    def test_smoke_mixes_outcomes_and_passes_gate(self, tmp_path):
        """The CI fuzz-smoke configuration: fixed seed, few trials,
        must exercise both outcome classes and hold the gate."""
        report = run_fuzz(trials=SMOKE_TRIALS, seed=SMOKE_SEED,
                          out_dir=tmp_path)
        assert report.ok
        assert report.survived > 0
        assert report.detected > 0
        assert report.minimized == report.detected
        assert report.unexpected == 0
        for trial in report.trials:
            if trial.outcome == "detected":
                assert trial.minimized.verified
                assert trial.minimized.path.exists()
                assert trial.bundle.parent.name == "raw"

    def test_sched_fault_resuming_the_yielder_survives(self, tmp_path,
                                                       monkeypatch):
        """Trial 17 of this campaign is a yield storm whose ``sched``
        fault shuffles the thread that just yielded back to the head of
        the queue; the kernel must resume it without a context switch
        (the batched dispatch used to assert on such a self-switch).
        Every trial and every minimizer replay runs batched."""
        forbid_step_loop(monkeypatch)
        report = run_fuzz(trials=18, seed=SMOKE_SEED, out_dir=tmp_path)
        trial = next(t for t in report.trials if t.index == 17)
        assert trial.workload == "synthetic-yield-storm"
        assert any(spec.kind == "sched" for spec in trial.plan.specs)
        assert trial.outcome != "unexpected", trial.error_type
        assert report.ok
        survived = [t for t in report.trials if t.outcome == "survived"]
        assert "synthetic-yield-storm" in {t.workload for t in survived}
        assert {t.loop for t in survived} == {"pure-batched"}

    def test_summary_counts(self, tmp_path):
        report = run_fuzz(trials=3, seed=5, out_dir=tmp_path)
        text = report.summary()
        assert "3 trials" in text and "seed=5" in text

    def test_no_minimize_keeps_raw_only(self, tmp_path):
        report = run_fuzz(trials=SMOKE_TRIALS, seed=SMOKE_SEED,
                          out_dir=tmp_path, minimize=False)
        assert report.minimized == 0
        assert not list(tmp_path.glob("*.min.json"))

    def test_unexpected_exception_fails_the_gate(self, tmp_path,
                                                 monkeypatch):
        def explode(config, faults=None, crash_dir=None,
                    trial_budget=None):
            raise RuntimeError("plain bug, no bundle")

        monkeypatch.setattr("repro.faults.fuzz.run_workload", explode)
        report = run_fuzz(trials=2, seed=5, out_dir=tmp_path)
        assert not report.ok
        assert report.unexpected == 2
        assert report.trials[0].error_type == "RuntimeError"
        assert "plain bug" in report.trials[0].detail

    def test_crash_without_bundle_fails_the_gate(self, tmp_path,
                                                 monkeypatch):
        from repro.errors import ReproError

        def crash_quietly(config, faults=None, crash_dir=None,
                          trial_budget=None):
            raise ReproError("detected but undumped")

        monkeypatch.setattr("repro.faults.fuzz.run_workload",
                            crash_quietly)
        report = run_fuzz(trials=1, seed=5, out_dir=tmp_path)
        assert not report.ok
        assert report.trials[0].outcome == "unexpected"
        assert "no bundle" in report.trials[0].detail

    def test_gate_requires_verified_minimization(self):
        trial = FuzzTrial(index=0, workload="w", scheme="SP",
                          n_windows=4, core="batched",
                          plan=FaultPlan(), outcome="detected")
        report = FuzzReport(seed=1, trials=[trial])
        assert not report.ok  # detected but never minimized
