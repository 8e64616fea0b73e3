"""Replayed sweep points: every FIFO point of the default grid replays
to the RunReport executing it gives, and the engine's replay groups
keep its cache, its timeouts and its failure policy per point."""

import os
import time

import pytest

import repro.experiments.harness as harness
import repro.runtime.replay as replay
from repro.experiments.engine import (
    Engine,
    PointSpec,
    _execute_payload,
    cache_key,
    replay_groups,
    sweep_specs,
)
from repro.experiments.harness import (
    replay_report_point,
    run_point,
    run_report_point,
)
from repro.experiments.points import DEFAULT_WINDOWS, GRANULARITIES, SCHEMES
from repro.metrics.report import to_json
from repro.windows.errors import WindowIntegrityError
from tests.experiments.test_engine import Unrecorded, fake_runner

SCALE = 0.005

#: the FIFO groups of Tables 1-2 and Figures 11-14 (Table 1's SP/12
#: points and Figures 12-13's points are inside Figure 11's and 14's
#: groups; Table 2 runs its own scale and window count)
GRID_GROUPS = {
    "%s-%s" % (c, g): sweep_specs(c, g, DEFAULT_WINDOWS, SCHEMES, SCALE)
    for c in ("high", "low") for g in GRANULARITIES}
GRID_GROUPS["table2"] = [PointSpec(s, 7, "high", "medium", 0.05)
                         for s in SCHEMES]


def _executed(spec):
    return run_report_point(spec.scheme, spec.n_windows, spec.concurrency,
                            spec.granularity, scale=spec.scale,
                            seed=spec.seed)


@pytest.mark.parametrize("group", sorted(GRID_GROUPS))
def test_every_fifo_grid_point_replays_byte_identical(group):
    specs = GRID_GROUPS[group]
    head = specs[0]
    trace = replay.WindowTrace()
    recorded = run_report_point(
        head.scheme, head.n_windows, head.concurrency, head.granularity,
        scale=head.scale, seed=head.seed, trace=trace)
    assert to_json(recorded) == to_json(_executed(head))
    for spec in specs:
        replayed = replay_report_point(trace, recorded["config"],
                                       spec.scheme, spec.n_windows)
        assert to_json(replayed) == to_json(_executed(spec)), spec.label


def _grid():
    return sweep_specs("high", "fine", (4, 8), SCHEMES, SCALE) \
        + sweep_specs("low", "coarse", (4, 8), SCHEMES, SCALE)


def _objects(root):
    return {path.name: path.read_bytes()
            for path in sorted(root.glob("objects/*/*.json"))}


def _executing_engine(**kwargs):
    """An engine that executes every point of a replay group."""
    engine = Engine(**kwargs)
    engine._recorder = Unrecorded(_execute_payload)
    return engine


def _sourced(task):
    """A recorder whose every head records (a fake trace)."""
    return fake_runner(task), ("trace", {})


def _slow_replay(job):
    """A replay that takes a while and says which worker ran it."""
    task, __ = job
    time.sleep(0.2)
    index, report, err, wall_ms = fake_runner(task)
    report["config"]["pid"] = os.getpid()
    return index, report, err, wall_ms


class TestGroups:
    def test_only_fault_free_fifo_points_group(self):
        specs = [
            PointSpec("NS", 4, "high", "fine", SCALE),
            PointSpec("SP", 4, "high", "fine", SCALE, working_set=True),
            PointSpec("SP", 8, "low", "fine", SCALE),
            PointSpec("SP", 4, "high", "fine", SCALE),
            PointSpec("SP", 5, "high", "fine", SCALE, faults="sched@1"),
            PointSpec("SP", 6, "high", "fine", SCALE, audit=True),
            PointSpec("SP", 7, "high", "fine", SCALE, watchdog=9),
            PointSpec("SP", 8, "high", "fine", SCALE, seed=7),
            PointSpec("SP", 8, "high", "fine", 0.01),
            PointSpec("SNP", 8, "low", "fine", SCALE),
        ]
        assert replay_groups(specs, range(len(specs))) == [
            [0, 3], [1], [2, 9], [4], [5], [6], [7], [8]]
        assert replay_groups(specs, [3, 9]) == [[3], [9]]


class TestEngineReplay:
    def test_cache_is_that_of_execution_at_any_worker_count(
            self, tmp_path):
        specs = _grid() + sweep_specs("high", "fine", (4, 8), SCHEMES,
                                      SCALE, working_set=True)
        _executing_engine(jobs=1, cache_dir=tmp_path / "x").run_reports(
            specs)
        for jobs in (1, 2):
            engine = Engine(jobs=jobs, cache_dir=tmp_path / str(jobs))
            engine.run_reports(specs)
            assert engine.last_stats.executed == len(specs)
        executed = _objects(tmp_path / "x")
        assert len(executed) == len(specs)
        assert _objects(tmp_path / "1") == executed
        assert _objects(tmp_path / "2") == executed

    def test_a_group_spreads_over_the_pool(self):
        """Each replayed point is a pool task of its own, so one group
        keeps every worker busy."""
        specs = sweep_specs("high", "fine", (4, 8), SCHEMES, SCALE)
        engine = Engine(jobs=2, cache_dir=None)
        engine._recorder, engine._replayer = _sourced, _slow_replay
        reports = engine.run_reports(specs)
        assert engine.last_stats.executed == len(specs)
        assert len({r["config"]["pid"] for r in reports[1:]}) == 2

    def test_a_partly_cached_group_replays_the_rest(self, tmp_path):
        specs = sweep_specs("high", "fine", (4, 8), SCHEMES, SCALE)
        _executing_engine(jobs=1, cache_dir=tmp_path).run_reports(
            specs[1:3])
        ran = []
        engine = Engine(jobs=1, cache_dir=tmp_path)
        recorder, replayer = engine._recorder, engine._replayer

        def record(task):
            ran.append(("record", task[0]))
            return recorder(task)

        def replay(job):
            ran.append(("replay", job[0][0]))
            return replayer(job)

        engine._recorder, engine._replayer = record, replay
        reports = engine.run_reports(specs)
        assert ran == [("record", 0), ("replay", 3), ("replay", 4),
                       ("replay", 5)]
        assert engine.last_stats.hits == 2
        assert [to_json(r) for r in reports] == [
            to_json(_executed(s)) for s in specs]

    def test_an_interrupted_group_keeps_its_landed_points(
            self, tmp_path, monkeypatch):
        """Each point is cached as it lands, not when its group ends:
        a sweep stopped on a group's third point resumes from there."""
        original = harness.replay_report_point
        specs = sweep_specs("high", "coarse", (4, 8), ("NS", "SP"), SCALE)
        victim = specs[2]

        def interrupted(trace, config, scheme, n_windows):
            if (scheme, n_windows) == (victim.scheme, victim.n_windows):
                raise KeyboardInterrupt
            return original(trace, config, scheme, n_windows)

        monkeypatch.setattr(harness, "replay_report_point", interrupted)
        engine = Engine(jobs=1, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            engine.run_reports(specs)
        assert [engine.cache.get(cache_key(s)) is not None
                for s in specs] == [True, True, False, False]
        monkeypatch.setattr(harness, "replay_report_point", original)
        reports = engine.run_reports(specs)
        assert (engine.last_stats.hits, engine.last_stats.executed) \
            == (2, 2)
        assert [to_json(r) for r in reports] == [
            to_json(_executed(s)) for s in specs]

    def test_a_failed_head_executes_every_point(self, monkeypatch):
        """No trace: the other points execute on their own, and the
        head, a transient failure, is retried alone, executed."""
        def broken_attach(self, kernel):
            raise OSError("recorder unavailable")

        monkeypatch.setattr(replay.WindowTrace, "attach", broken_attach)
        monkeypatch.setattr(harness, "replay_report_point", None)
        specs = sweep_specs("low", "coarse", (4, 8), ("NS", "SP"), SCALE)
        engine = Engine(jobs=1, cache_dir=None, retries=1)
        reports = engine.run_reports(specs)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.failures == []
        assert [to_json(r) for r in reports] == [
            to_json(_executed(s)) for s in specs]

    def test_the_time_budget_is_per_point(self, monkeypatch):
        """Four points of which three replay 0.4 s each: a group budget
        of 1 s would expire, a point budget does not."""
        original = harness.replay_report_point

        def slow(*args):
            time.sleep(0.4)
            return original(*args)

        monkeypatch.setattr(harness, "replay_report_point", slow)
        specs = sweep_specs("high", "coarse", (4, 8), ("NS", "SP"), SCALE)
        engine = Engine(jobs=1, cache_dir=None, retries=0, timeout=1.0)
        reports = engine.run_reports(specs)
        assert engine.last_stats.failures == []
        assert [to_json(r) for r in reports] == [
            to_json(_executed(s)) for s in specs]

    def test_a_timed_out_replay_is_retried_alone_executed(
            self, monkeypatch):
        original = harness.replay_report_point

        def stuck(trace, config, scheme, n_windows):
            if (scheme, n_windows) == ("SP", 8):
                time.sleep(5)
            return original(trace, config, scheme, n_windows)

        monkeypatch.setattr(harness, "replay_report_point", stuck)
        specs = sweep_specs("high", "coarse", (4, 8), ("NS", "SP"), SCALE)
        engine = Engine(jobs=1, cache_dir=None, retries=1, timeout=0.5)
        reports = engine.run_reports(specs)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.failures == []
        assert [to_json(r) for r in reports] == [
            to_json(_executed(s)) for s in specs]

    def test_keep_going_quarantines_one_replayed_point(self, tmp_path,
                                                       monkeypatch):
        original = harness.replay_report_point

        def corrupt(trace, config, scheme, n_windows):
            if (scheme, n_windows) == ("NS", 8):
                raise WindowIntegrityError("replayed frame corrupted")
            return original(trace, config, scheme, n_windows)

        monkeypatch.setattr(harness, "replay_report_point", corrupt)
        specs = sweep_specs("low", "fine", (4, 8), ("NS", "SP"), SCALE)
        engine = Engine(jobs=1, cache_dir=tmp_path, retries=2,
                        keep_going=True)
        reports = engine.run_reports(specs)
        victim = [s.label for s in specs].index("NS/w8/low/fine/fifo")
        assert reports[victim] is None
        [failure] = engine.last_stats.failures
        assert failure.spec == specs[victim]
        assert failure.error_type == "WindowIntegrityError"
        assert failure.attempts == 1  # deterministic: never retried
        assert engine.cache.get(cache_key(specs[victim])) is None
        for spec, report in zip(specs, reports):
            if spec != specs[victim]:
                assert to_json(report) == to_json(_executed(spec))


class TestNoTraceWithoutAGroup:
    @pytest.fixture()
    def traces(self, monkeypatch):
        made = []

        class Counted(replay.WindowTrace):
            __slots__ = ()

            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(replay, "WindowTrace", Counted)
        return made

    def test_single_runs_build_none(self, traces):
        from repro.apps.spellcheck import SpellConfig, run_spellchecker

        config = SpellConfig.named("high", "fine", scale=SCALE)
        result, __ = run_spellchecker(6, "SNP", config)
        run_point("SP", 8, "high", "fine", scale=SCALE)
        _executed(PointSpec("NS", 4, "low", "fine", SCALE))
        assert traces == []

    def test_engine_builds_one_per_group(self, traces):
        engine = Engine(jobs=1, cache_dir=None)
        engine.run_reports([PointSpec("SP", 8, "high", "fine", SCALE)])
        for flag in ({"working_set": True}, {"audit": True},
                     {"faults": "store_delay@1"}, {"watchdog": 10 ** 6}):
            engine.run_reports(sweep_specs("high", "fine", (4, 8),
                                           ("SP",), SCALE, **flag)
                               if "working_set" in flag else
                               [PointSpec("SP", n, "high", "fine", SCALE,
                                          **flag) for n in (4, 8)])
        assert traces == []
        engine.run_reports(sweep_specs("high", "fine", (4, 8), ("SP",),
                                       SCALE))
        assert len(traces) == 1
