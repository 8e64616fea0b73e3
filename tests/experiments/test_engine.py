"""The parallel cached sweep engine: keys, store, stats, retry, resume."""

import json

import pytest

from repro.experiments.engine import (
    CACHE_SCHEMA,
    Engine,
    EngineError,
    PointSpec,
    ResultCache,
    atomic_write_text,
    cache_fingerprint,
    cache_key,
    sweep_specs,
)
from repro.metrics.report import SCHEMA_NAME, SCHEMA_VERSION

SPEC = PointSpec("SP", 8, "high", "fine", 0.02)


class Unrecorded:
    """A replay group's recorder that runs the group's first point
    through a point runner and records no trace, so the group's other
    points run through the point runner too (module-level, so it
    pickles into pool workers)."""

    def __init__(self, runner):
        self.runner = runner

    def __call__(self, task):
        return self.runner(task), None


def engine_with(runner, **kwargs) -> Engine:
    """An engine whose workers run each task through ``runner``, point
    by point also inside a replay group."""
    engine = Engine(**kwargs)
    engine._runner = runner
    engine._recorder = Unrecorded(runner)
    return engine


def fake_report(spec: PointSpec) -> dict:
    """A minimal document that passes RunReport validation, derived
    deterministically from the spec so cache round-trips are checkable."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": spec.to_payload(),
        "counters": {"total_cycles": spec.n_windows * 100},
        "threads": [],
    }


def fake_runner(task):
    index, payload = task
    return index, fake_report(PointSpec.from_payload(payload)), None, 1.0


def error(type_name: str, transient: bool = True) -> dict:
    """The structured error document a runner reports a failure with."""
    return {"type": type_name, "transient": transient,
            "traceback": "Traceback ...\n%s: point exploded\n" % type_name}


def failing_runner(task):
    index, __ = task
    return index, None, error("RuntimeError"), 1.0


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        assert cache_key(SPEC) == cache_key(
            PointSpec("SP", 8, "high", "fine", 0.02))

    def test_every_spec_field_is_significant(self):
        variants = [
            PointSpec("SNP", 8, "high", "fine", 0.02),
            PointSpec("SP", 9, "high", "fine", 0.02),
            PointSpec("SP", 8, "low", "fine", 0.02),
            PointSpec("SP", 8, "high", "coarse", 0.02),
            PointSpec("SP", 8, "high", "fine", 0.03),
            PointSpec("SP", 8, "high", "fine", 0.02, seed=7),
            PointSpec("SP", 8, "high", "fine", 0.02, working_set=True),
        ]
        keys = {cache_key(v) for v in variants} | {cache_key(SPEC)}
        assert len(keys) == len(variants) + 1

    def test_fingerprint_invalidates(self):
        """Bumping the package version, the report schema or any cost
        constant re-keys every entry (the invalidation rule)."""
        base = cache_fingerprint()
        for mutate in (
            lambda fp: fp.update(repro_version="999.0"),
            lambda fp: fp.update(report_version=SCHEMA_VERSION + 1),
            lambda fp: fp["cost_model"].update(ns_per_save=1),
        ):
            fp = json.loads(json.dumps(base))
            mutate(fp)
            assert cache_key(SPEC, fp) != cache_key(SPEC, base)

    def test_fingerprint_covers_cost_model(self):
        assert "ns_per_save" in cache_fingerprint()["cost_model"]

    def test_fingerprint_covers_source_tree(self):
        """Editing any simulator source re-keys the cache, even with
        an unchanged version string."""
        fp = cache_fingerprint()
        assert len(fp["source_digest"]) == 64
        mutated = json.loads(json.dumps(fp))
        mutated["source_digest"] = "0" * 64
        assert cache_key(SPEC, mutated) != cache_key(SPEC, fp)


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "out.json"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        atomic_write_text(target, "replaced")
        assert target.read_text() == "replaced"
        assert [p.name for p in target.parent.iterdir()] == ["out.json"]

    def test_mode_is_that_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("hello")
        target = atomic_write_text(tmp_path / "atomic.json", "hello")
        assert target.stat().st_mode == plain.stat().st_mode


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        assert cache.get(key) is None
        cache.put(key, fake_report(SPEC))
        assert cache.get(key) == fake_report(SPEC)
        assert [p.stem for p in tmp_path.glob("objects/*/*.json")] == [key]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        cache.put(key, fake_report(SPEC))
        path = cache._path(key)
        path.write_text(path.read_text()[:17])  # truncate
        assert cache.get(key) is None

    def test_manifest_merge_and_layout_invalidation(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = cache_fingerprint()
        cache.update_manifest({"k1": SPEC.to_payload()}, fp)
        cache.update_manifest({"k2": SPEC.to_payload()}, fp)
        manifest = cache.read_manifest()
        assert set(manifest["entries"]) == {"k1", "k2"}
        assert manifest["schema"] == CACHE_SCHEMA
        # a future layout bump forgets the old entries
        manifest["version"] = 999
        atomic_write_text(cache.manifest_path(), json.dumps(manifest))
        assert cache.read_manifest()["entries"] == {}


class TestEngine:
    def grid(self):
        return sweep_specs("high", "fine", [4, 6, 8], ("NS", "SP"), 0.02)

    def test_results_in_spec_order(self, tmp_path):
        engine = engine_with(fake_runner, jobs=1, cache_dir=tmp_path)
        specs = self.grid()
        reports = engine.run_reports(specs)
        assert [r["config"] for r in reports] == [
            s.to_payload() for s in specs]
        assert engine.last_stats.executed == len(specs)
        assert engine.last_stats.hits == 0

    def test_second_run_is_pure_cache_hits(self, tmp_path):
        specs = self.grid()
        engine_with(fake_runner, jobs=1, cache_dir=tmp_path)\
            .run_reports(specs)
        engine = engine_with(failing_runner, jobs=1, cache_dir=tmp_path)
        reports = engine.run_reports(specs)  # runner never consulted
        assert engine.last_stats.hits == len(specs)
        assert engine.last_stats.executed == 0
        assert engine.last_stats.hit_ratio == 1.0
        assert reports[0]["config"] == specs[0].to_payload()

    def test_resume_executes_only_missing_points(self, tmp_path):
        """Checkpoint/resume: drop one object from an interrupted
        sweep's cache and only that point re-runs."""
        specs = self.grid()
        engine = engine_with(fake_runner, jobs=1, cache_dir=tmp_path)
        engine.run_reports(specs)
        victim = specs[2]
        engine.cache._path(cache_key(victim)).unlink()
        engine.run_reports(specs)
        assert engine.last_stats.executed == 1
        assert engine.last_stats.hits == len(specs) - 1
        assert engine.cache.get(cache_key(victim)) is not None

    def test_no_cache_dir_always_executes(self):
        engine = engine_with(fake_runner, jobs=1, cache_dir=None)
        engine.run_reports([SPEC])
        engine.run_reports([SPEC])
        assert engine.last_stats.executed == 1
        assert engine.last_stats.hits == 0

    def test_retry_recovers_flaky_point(self, tmp_path):
        attempts = []

        def flaky(task):
            attempts.append(task[0])
            if len(attempts) == 1:
                return task[0], None, error("OSError"), 1.0
            return fake_runner(task)

        engine = engine_with(flaky, jobs=1, cache_dir=tmp_path, retries=1)
        reports = engine.run_reports([SPEC])
        assert reports[0] == fake_report(SPEC)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.executed == 1

    def test_persistent_failure_raises_with_labels(self):
        engine = engine_with(failing_runner, jobs=1, cache_dir=None,
                             retries=1)
        with pytest.raises(EngineError) as exc:
            engine.run_reports([SPEC])
        assert SPEC.label in str(exc.value)
        assert "point exploded" in str(exc.value)
        assert len(engine.last_stats.failures) == 1
        assert engine.last_stats.failures[0].attempts == 2

    def test_pool_path_preserves_order(self, tmp_path):
        specs = self.grid()
        engine = engine_with(fake_runner, jobs=2, cache_dir=tmp_path)
        reports = engine.run_reports(specs)
        assert [r["config"] for r in reports] == [
            s.to_payload() for s in specs]

    def test_stats_summary_is_greppable(self, tmp_path):
        engine = engine_with(fake_runner, jobs=3, cache_dir=tmp_path)
        specs = self.grid()
        engine.run_reports(specs)
        engine.run_reports(specs)
        line = engine.last_stats.summary(engine.jobs)
        assert "%d cached (100%%)" % len(specs) in line
        assert "0 executed" in line


class TestFailurePolicy:
    """Retry classification, graceful degradation and the manifest."""

    def fatal_runner(self, task):
        index, __ = task
        return index, None, error("WindowIntegrityError",
                                  transient=False), 1.0

    def test_fatal_failure_is_never_retried(self):
        calls = []

        def runner(task):
            calls.append(task[0])
            return self.fatal_runner(task)

        engine = engine_with(runner, jobs=1, cache_dir=None, retries=3)
        with pytest.raises(EngineError):
            engine.run_reports([SPEC])
        assert calls == [0]  # deterministic failure: one attempt only
        failure = engine.last_stats.failures[0]
        assert failure.attempts == 1
        assert failure.transient is False
        assert failure.error_type == "WindowIntegrityError"

    def test_transient_failure_is_retried(self):
        calls = []

        def runner(task):
            calls.append(task[0])
            return task[0], None, error("InjectedStoreError"), 1.0

        engine = engine_with(runner, jobs=1, cache_dir=None, retries=2)
        with pytest.raises(EngineError):
            engine.run_reports([SPEC])
        assert calls == [0, 0, 0]  # initial attempt + both retries
        assert engine.last_stats.failures[0].attempts == 3
        assert engine.last_stats.failures[0].transient is True

    def test_keep_going_quarantines_and_returns_holes(self, tmp_path):
        specs = sweep_specs("high", "fine", [4, 6], ("NS", "SP"), 0.02)
        victim = specs[1].label

        def runner(task):
            index, payload = task
            if PointSpec.from_payload(payload).label == victim:
                return self.fatal_runner(task)
            return fake_runner(task)

        engine = engine_with(runner, jobs=1, cache_dir=tmp_path,
                             keep_going=True)
        reports = engine.run_reports(specs)
        assert reports[1] is None
        assert [r is None for r in reports] == [
            s.label == victim for s in specs]
        for spec, report in zip(specs, reports):
            if report is not None:
                assert report == fake_report(spec)
        assert "quarantined" in engine.last_stats.summary(engine.jobs)
        manifest = json.loads(
            engine.failure_manifest_path().read_text())
        assert manifest["schema"] == "repro.failure-manifest"
        assert [f["label"] for f in manifest["failures"]] == [victim]
        assert manifest["failures"][0]["transient"] is False
        assert manifest["failures"][0]["attempts"] == 1

    def test_keep_going_run_points_maps_holes(self, tmp_path):
        engine = engine_with(self.fatal_runner, jobs=1, cache_dir=tmp_path,
                             keep_going=True)
        points = engine.run_points([SPEC])
        assert points == [None]
        assert (tmp_path / "failures.json").is_file()

    def test_quarantined_points_are_not_cached(self, tmp_path):
        engine = engine_with(self.fatal_runner, jobs=1, cache_dir=tmp_path,
                             keep_going=True)
        engine.run_reports([SPEC])
        assert engine.cache.get(cache_key(SPEC)) is None

    def test_spec_defaults_are_applied(self):
        seen = []

        def runner(task):
            index, payload = task
            seen.append(PointSpec.from_payload(payload))
            return fake_runner(task)

        engine = engine_with(runner, jobs=1, cache_dir=None,
                             spec_defaults={"faults": "store_fail@2",
                                            "audit": True})
        engine.run_reports([SPEC])
        assert seen[0].faults == "store_fail@2"
        assert seen[0].audit is True
        assert seen[0].n_windows == SPEC.n_windows

    def test_fault_fields_change_the_cache_key(self):
        variants = [
            PointSpec("SP", 8, "high", "fine", 0.02, faults="wim@1"),
            PointSpec("SP", 8, "high", "fine", 0.02, fault_seed=7),
            PointSpec("SP", 8, "high", "fine", 0.02, audit=True),
            PointSpec("SP", 8, "high", "fine", 0.02, watchdog=500),
        ]
        keys = {cache_key(v) for v in variants} | {cache_key(SPEC)}
        assert len(keys) == len(variants) + 1

    def test_timeout_is_injected_into_payloads(self):
        payloads = []

        def runner(task):
            payloads.append(dict(task[1]))
            return fake_runner(task)

        engine = engine_with(runner, jobs=1, cache_dir=None, timeout=2.5)
        engine.run_reports([SPEC])
        assert payloads[0]["_timeout"] == 2.5


class TestSweepSpecs:
    def test_sp_minimum_windows(self):
        specs = sweep_specs("high", "fine", [3, 4], ("SP", "SNP"), 0.02)
        assert [(s.scheme, s.n_windows) for s in specs] == [
            ("SP", 4), ("SNP", 3), ("SNP", 4)]

    def test_labels_unique(self):
        specs = sweep_specs("high", "fine", [4, 8], ("NS", "SNP", "SP"),
                            0.02)
        assert len({s.label for s in specs}) == len(specs)
