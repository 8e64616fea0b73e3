"""The fuzzer: deterministic draws, the survive-or-minimize gate, and
unexpected-outcome detection."""

import pytest

from repro.faults import FuzzReport, draw_trial, run_fuzz
from repro.faults.fuzz import FuzzTrial
from repro.faults.plan import FaultPlan
from repro.faults.workloads import WORKLOADS

#: a seed/trial window known (by construction, any works) to include
#: both survived and detected outcomes — see test_smoke_mixes_outcomes
SMOKE_SEED = 1993
SMOKE_TRIALS = 8

ALL_WORKLOADS = None  # default registry

#: what draw_trial(1993, i) drew for i = 0..17 when trials still drew an
#: execution core: (workload, scheme, windows, plan, plan seed, workload
#: params plus any non-default watchdog).  The discarded core draw keeps
#: every campaign measuring the same trials.
SEED_1993_DRAWS = [
    ("synthetic-ping-pong", "SNP", 4, "retval@23,trap_dup@5",
     33778350, {"rounds": 12}),
    ("synthetic-fork-join", "NS", 4, "cwp@27,wim@17",
     1796924273, {"n_children": 3, "items": 4, "flush_hint": True}),
    ("synthetic-yield-storm", "NS", 8, "store_delay@22",
     1544906445, {"n_spinners": 1, "spins": 191, "watchdog": 582}),
    ("synthetic-yield-storm", "NS", 8, "retval@5,trap_drop@26",
     2083572647, {"n_spinners": 3, "spins": 318, "watchdog": 353}),
    ("spellcheck", "SP", 6, "store_fail@13,store_delay@24,register@9",
     1836598064, {"scale": 0.03, "m": 16, "n": 4, "seed": 1993}),
    ("spellcheck", "SNP", 4, "sched@25,trap_dup@21",
     1541600624, {"scale": 0.02, "m": 4, "n": 1, "seed": 1993}),
    ("spellcheck", "NS", 8, "cwp@15,wim@5",
     879953082, {"scale": 0.05, "m": 4, "n": 1, "seed": 1993}),
    ("synthetic-ping-pong", "NS", 6, "wim@14",
     215923324, {"rounds": 24}),
    ("spellcheck", "SNP", 8, "trap_drop@3,cwp@3",
     1874103625, {"scale": 0.03, "m": 4, "n": 16, "seed": 1993}),
    ("synthetic-call-depth", "SNP", 6, "store_fail@2",
     1337593452, {"n_workers": 3, "iterations": 5, "depth": 2, "work": 7}),
    ("spellcheck", "SNP", 4, "cwp@29,store_delay@5,sched@7",
     1217702607, {"scale": 0.03, "m": 16, "n": 4, "seed": 1993}),
    ("synthetic-yield-storm", "NS", 6, "trap_dup@2,register@18,store_delay@7",
     952170499, {"n_spinners": 3, "spins": 75, "watchdog": 585}),
    ("synthetic-ping-pong", "SNP", 8, "sched@22",
     1056820118, {"rounds": 9}),
    ("synthetic-fork-join", "SP", 8, "register@12,cwp@22",
     406585310, {"n_children": 1, "items": 5, "flush_hint": True}),
    ("synthetic-fork-join", "SP", 8, "cwp@28,retval@11,sched@5",
     937741527, {"n_children": 3, "items": 18, "flush_hint": True}),
    ("synthetic-call-depth", "NS", 4, "trap_drop@23",
     1637782562, {"n_workers": 1, "iterations": 5, "depth": 2, "work": 8}),
    ("spellcheck", "SP", 6, "store_fail@22,cwp@9",
     756609758, {"scale": 0.05, "m": 1, "n": 16, "seed": 1993}),
    ("synthetic-yield-storm", "NS", 6, "sched@16,store_delay@20,trap_dup@5",
     860957224, {"n_spinners": 3, "spins": 309, "watchdog": 345}),
]


@pytest.fixture(autouse=True, params=["batched"])
def loop_label(request):
    return request.param  # keeps the [batched] test ids


class TestDraws:
    def test_draw_is_deterministic(self):
        a = draw_trial(42, 3, ("spellcheck", "synthetic-ping-pong"))
        b = draw_trial(42, 3, ("spellcheck", "synthetic-ping-pong"))
        assert (a.workload, a.scheme, a.n_windows, a.plan, a.config) == \
               (b.workload, b.scheme, b.n_windows, b.plan, b.config)

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

    def test_draw_respects_scheme_filter(self):
        for i in range(6):
            trial = draw_trial(7, i, ("synthetic-ping-pong",),
                               schemes=("NS",))
            assert trial.scheme == "NS"
            assert "core" not in trial.config

    def test_seed_1993_draws_are_unchanged(self):
        names = tuple(sorted(WORKLOADS))
        for i, expected in enumerate(SEED_1993_DRAWS):
            trial = draw_trial(1993, i, names)
            params = {k: v for k, v in trial.config.items()
                      if k not in ("workload", "scheme", "n_windows",
                                   "verify_registers", "audit",
                                   "max_steps")}
            if params["watchdog"] == 50_000:
                del params["watchdog"]
            assert (trial.workload, trial.scheme, trial.n_windows,
                    ",".join(s.describe() for s in trial.plan.specs),
                    trial.plan.seed, params) == expected, i


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

    def test_sched_fault_resuming_the_yielder_survives(self, tmp_path):
        """Trial 17 of this campaign is a yield storm whose ``sched``
        fault shuffles the thread that just yielded back to the head of
        the queue; the kernel must resume it without a context switch
        (the batched dispatch used to assert on such a self-switch).
        Every survived trial reports the batched loop."""
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
                          n_windows=4, plan=FaultPlan(),
                          outcome="detected")
        report = FuzzReport(seed=1, trials=[trial])
        assert not report.ok  # detected but never minimized
