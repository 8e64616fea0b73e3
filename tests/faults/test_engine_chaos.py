"""Chaos at the sweep level: a real engine run where injected point
failures are quarantined while every healthy point still comes back
identical to a serial reference run."""

import json
from dataclasses import replace

import pytest

from repro.experiments.engine import (
    MANIFEST_SCHEMA,
    Engine,
    EngineError,
    PointSpec,
    sweep_specs,
)
from repro.experiments.harness import run_report_point

SCALE = 0.02


def healthy_specs():
    return sweep_specs("high", "coarse", [5, 6], ("SP",), SCALE)


class TestQuarantineSweep:
    def test_faulty_point_quarantined_healthy_points_exact(self, tmp_path):
        specs = list(healthy_specs())
        faulty = replace(specs[0], faults="retval@5")
        all_specs = specs + [faulty]
        engine = Engine(jobs=2, cache_dir=tmp_path / "cache",
                        retries=1, keep_going=True)
        reports = engine.run_reports(all_specs)

        # the injected point is a hole, never a wrong result
        assert reports[-1] is None
        assert all(r is not None for r in reports[:-1])

        # healthy points match a serial in-process reference exactly
        for spec, report in zip(specs, reports[:-1]):
            reference = run_report_point(
                spec.scheme, spec.n_windows, spec.concurrency,
                spec.granularity, scale=spec.scale, seed=spec.seed)
            assert report == reference

        manifest = json.loads(
            engine.failure_manifest_path().read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["failures"]) == 1
        failure = manifest["failures"][0]
        assert failure["error_type"] == "WindowIntegrityError"
        assert failure["transient"] is False
        assert failure["attempts"] == 1  # deterministic: no retry
        assert failure["spec"]["faults"] == "retval@5"

    def test_transient_fault_exhausts_retries_then_quarantines(
            self, tmp_path):
        spec = PointSpec("SP", 6, "high", "coarse", SCALE,
                         faults="store_fail@1")
        engine = Engine(jobs=1, cache_dir=tmp_path / "cache",
                        retries=1, keep_going=True)
        reports = engine.run_reports([spec])
        assert reports == [None]
        manifest = json.loads(
            engine.failure_manifest_path().read_text())
        failure = manifest["failures"][0]
        assert failure["error_type"] == "InjectedStoreError"
        assert failure["transient"] is True
        assert failure["attempts"] == 2  # initial + one retry

    def test_without_keep_going_the_sweep_aborts(self, tmp_path):
        spec = PointSpec("SP", 6, "high", "coarse", SCALE,
                         faults="retval@5")
        engine = Engine(jobs=1, cache_dir=tmp_path / "cache", retries=1)
        with pytest.raises(EngineError) as info:
            engine.run_reports([spec])
        assert "WindowIntegrityError" in str(info.value)

    def test_figure_skips_quarantined(self, tmp_path):
        from repro.experiments.figures import run_fig11

        engine = Engine(jobs=1, cache_dir=tmp_path / "cache",
                        keep_going=True,
                        spec_defaults={"faults": "retval@5"})
        fig = run_fig11(windows=[6], scale=SCALE, engine=engine)
        # every point quarantined, none invented, each one noted
        assert all(points == [] for points in fig.series.values())
        assert len(fig.series) == 9
        assert sorted(fig.notes) == sorted(
            "missing point: %s/w6/high/%s/fifo" % (scheme, granularity)
            for scheme in ("NS", "SNP", "SP")
            for granularity in ("coarse", "medium", "fine"))


class TestFaultedPointsStillCache:
    def test_surviving_faulted_point_is_cached_and_keyed(self, tmp_path):
        """A survivable fault (sched shuffle) completes, caches, and its
        cache entry never collides with the unfaulted point's."""
        base = PointSpec("SP", 6, "high", "coarse", SCALE)
        faulted = replace(base, faults="sched@3")
        engine = Engine(jobs=1, cache_dir=tmp_path / "cache")
        r_base = engine.run_reports([base])[0]
        r_faulted = engine.run_reports([faulted])[0]
        assert engine.last_stats.executed == 1  # not a cache hit
        assert r_faulted["config"]["faults"] == "sched@3"
        assert "faults" not in r_base["config"]
        # the architectural counters survive the shuffle unchanged
        assert (r_faulted["counters"]["total_cycles"] > 0)
