"""The benchmark's workloads: what one operation runs, how its output
is checked, and what its traced pass adds.

Each workload has

* ``setup(ctx)``: everything before the first timed operation —
  imports, input generation from the seed, reference outputs and one
  untimed warm-up;
* ``op(ctx)``: one timed operation, the unit a user waits for;
* ``check(ctx, result)``: the untimed correctness check of that
  operation, returning a list of failure descriptions (empty: correct);
* ``install_trace(rec, sim)``: the spans of the traced pass.

All runs are closed loop with one client: the next operation starts
when the previous one has finished and been checked.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers

@dataclass
class Context:
    """Per-run settings shared by every workload."""

    root: Path      # the checkout
    seed: int
    work: Path      # scratch directory, deleted when the run ends
    env: Dict[str, str]
    python: str     # interpreter for child processes
    suite: Path     # this package's entry script
    _n: int = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._n += 1
        path = self.work / ("%s-%d" % (prefix, self._n))
        path.mkdir(parents=True)
        return path


@dataclass
class OpResult:
    """What one timed operation produced, for its check."""

    value: object = None
    #: peak RSS of the operation's child process tree (kB), if any
    child_rss_kb: int = 0
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# spell checker


class SpellWorkload:
    """Rounds of ``run_spellchecker`` points, each output checked
    against the sequential oracle and each point's simulated counters
    required identical to its first run."""

    def __init__(self, name: str, why: str, m: int, n: int, scale: float,
                 points: Tuple[Tuple[str, int], ...],
                 recorded: bool = False) -> None:
        self.name, self.why = name, why
        self.m, self.n, self.scale = m, n, scale
        self.points = points
        self.recorded = recorded
        self.reference: Dict[Tuple[str, int], dict] = {}

    def setup(self, ctx: Context) -> None:
        from repro.apps.spellcheck import (
            SpellConfig,
            build_spellchecker,
            run_spellchecker,
        )
        from repro.apps.spellcheck.oracle import run_reference
        from repro.runtime.kernel import Kernel

        self.run = run_spellchecker
        self.config = SpellConfig(m=self.m, n=self.n, scale=self.scale,
                                  seed=ctx.seed)
        # the pipeline's own input generation, so the oracle checks the
        # bytes the simulated threads actually read
        parts = build_spellchecker(Kernel(n_windows=8), self.config)
        dict1, dict2 = parts["dicts"]
        self.expected, __ = run_reference(parts["corpus"], dict1, dict2,
                                          self.config.read_chunk)
        self.crash_dir = (ctx.fresh_dir("crash") if self.recorded
                          else None)
        warm = self.op(ctx, self.points[:1])
        failures = self.check(ctx, warm)
        if failures:
            raise RuntimeError("warm-up point failed: " + "; ".join(failures))

    def install_trace(self, rec, sim: Dict[str, int]) -> None:
        layers.install_runtime(rec, sim)
        self.run = rec.wrap(self.run, "apps.run_spellchecker")

    def op(self, ctx: Context, points=None) -> OpResult:
        outputs = []
        kwargs = {"crash_dir": self.crash_dir} if self.recorded else {}
        for scheme, n_windows in points or self.points:
            result, report = self.run(n_windows, scheme, self.config,
                                      **kwargs)
            outputs.append(((scheme, n_windows), result.steps,
                            result.counters.snapshot(), report))
        return OpResult(outputs)

    def check(self, ctx: Context, result: OpResult) -> List[str]:
        failures = []
        for point, steps, counters, report in result.value:
            label = "%s/w%d" % point
            if report != self.expected:
                failures.append("%s: output differs from the oracle" % label)
            counters = dict(counters, steps=steps)
            if self.reference.setdefault(point, counters) != counters:
                failures.append("%s: simulated counters changed" % label)
        return failures


# ---------------------------------------------------------------------------
# paper reproduction: python -m repro.experiments


_TIMING_LINE = re.compile(r"^(engine: .*|\(\w+ computed in [0-9.]+s\))$")


def strip_timing(text: str) -> str:
    """The CLI's output without the lines that carry wall-clock times."""
    return "\n".join(line for line in text.splitlines()
                     if not _TIMING_LINE.match(line))


def _engine_lines(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if line.startswith("engine: ")]


def run_child(cmd: List[str], env: Dict[str, str], stdout: Path
              ) -> Tuple[int, int]:
    """Run ``cmd`` to completion with stdout/stderr in ``stdout``;
    returns (exit code, peak RSS in kB of it and its waited children)."""
    with open(stdout, "wb") as handle:
        proc = subprocess.Popen(cmd, env=env, stdout=handle,
                                stderr=subprocess.STDOUT)
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cache_sim(cache: Path) -> Dict[str, int]:
    """``sim.*`` totals over every RunReport in an engine cache."""
    sim: Dict[str, int] = {}
    for path in sorted(cache.glob("objects/*/*.json")):
        report = json.loads(path.read_text())
        layers.add_sim(sim, layers.sim_totals(report["counters"],
                                              report["steps"]))
    return sim


#: the nine Table 1 / Table 2 points (the latter's scale and window
#: count are fixed inside repro.experiments.table2)
def _table_specs(scale: float):
    from repro.experiments.table1 import CONFIGS

    return ([("SP", 12, c, g, scale) for c, g in CONFIGS]
            + [(s, 7, "high", "medium", 0.05) for s in ("NS", "SNP", "SP")])


class FiguresWorkload:
    """``python -m repro.experiments all`` in a child process, against
    an empty cache (cold) or a filled one (warm)."""

    SCALE = "0.005"
    #: serial: with two pool workers on a two-core host, run time
    #: varied by a fifth from one operation to the next (task-order
    #: imbalance plus the other core's drift); serial runs are steady
    ARGS = ["all", "--scale", SCALE, "--windows", "4,32", "--jobs", "1"]

    def __init__(self, name: str, why: str, warm: bool) -> None:
        self.name, self.why = name, why
        self.warm = warm
        self.expected: Optional[str] = None
        self.sim_reference: Optional[Dict[str, int]] = None
        self.traced = False
        self.sim: Dict[str, int] = {}
        self.engine_stats: List[dict] = []

    def _cli(self, ctx: Context, cache: Path, spans: Optional[Path] = None
             ) -> OpResult:
        if spans is None:
            cmd = [ctx.python, "-m", "repro.experiments"]
        else:
            cmd = [ctx.python, str(ctx.suite), "--figures-child",
                   str(spans), "--"]
        cmd += self.ARGS + ["--cache-dir", str(cache)]
        log = ctx.work / "cli-output.txt"
        code, rss = run_child(cmd, ctx.env, log)
        return OpResult(value=code, child_rss_kb=rss,
                        extra={"text": log.read_text(errors="replace"),
                               "cache": cache})

    def setup(self, ctx: Context) -> None:
        import repro.experiments.__main__  # noqa: F401  (the CLI stack)

        if self.warm:
            self.cache = ctx.fresh_dir("cache")
            fill = self._cli(ctx, self.cache)
            failures = self._check_run(fill, warm=False)
            if failures:
                raise RuntimeError("cache fill failed: " + "; ".join(failures))
            self.expected = strip_timing(fill.extra["text"])
            self.sim_reference = cache_sim(self.cache)

    def install_trace(self, rec, sim: Dict[str, int]) -> None:
        self.traced = True
        self.rec = rec
        self.sim = sim

    def trace_probe(self, ctx: Context) -> Dict[str, float]:
        """Serial probe over the table points: what the full-report path
        the engine runs costs over a plain run of the same point."""
        import repro.experiments.harness as harness
        from spans import SpanRecorder

        probe = SpanRecorder()
        original = harness.build_run_report
        harness.build_run_report = probe.wrap(original, "build_report",
                                              keep=False)
        try:
            plain = report = 0.0
            for scheme, n_windows, conc, gran, scale in _table_specs(
                    float(self.SCALE)):
                start = time.perf_counter()
                harness.run_point(scheme, n_windows, conc, gran,
                                  scale=scale)
                mid = time.perf_counter()
                harness.run_report_point(scheme, n_windows, conc, gran,
                                         scale=scale)
                plain += mid - start
                report += time.perf_counter() - mid
        finally:
            harness.build_run_report = original
        return {"report_tax_ratio": report / plain,
                "build_report_s": probe.totals()["build_report"]["total_s"]}

    def op(self, ctx: Context) -> OpResult:
        cache = self.cache if self.warm else ctx.fresh_dir("cache")
        spans = ctx.work / "child-spans.json" if self.traced else None
        result = self._cli(ctx, cache, spans)
        if spans is not None and spans.is_file():
            child = json.loads(spans.read_text())
            spans.unlink()
            self.rec.merge_child(child["totals"], child["covered_s"])
            self.engine_stats.extend(child["engine"])
        return result

    def _check_run(self, result: OpResult, warm: bool) -> List[str]:
        text = result.extra["text"]
        if result.value != 0:
            return ["exit code %s: %s" % (result.value, text[-400:])]
        lines = _engine_lines(text)
        failures = []
        if len(lines) != len(layers.TARGETS):
            failures.append("%d engine stats lines, expected %d"
                            % (len(lines), len(layers.TARGETS)))
        if not all(" 0 failed " in line for line in lines):
            failures.append("a target reports failed points")
        if warm and not all("(100%), 0 executed" in line for line in lines):
            failures.append("warm run executed points")
        return failures

    def check(self, ctx: Context, result: OpResult) -> List[str]:
        failures = self._check_run(result, self.warm)
        text = strip_timing(result.extra["text"])
        if self.expected is None:
            self.expected = text
        elif text != self.expected:
            failures.append("tables and figures differ from the first run")
        cache = result.extra["cache"]
        sim = cache_sim(cache)
        if self.sim_reference is None:
            self.sim_reference = sim
        elif sim != self.sim_reference:
            failures.append("simulated counters changed")
        if self.traced:
            layers.add_sim(self.sim, sim)
        if not self.warm:
            shutil.rmtree(cache)
        return failures


# ---------------------------------------------------------------------------
# robustness tooling: fuzzer and crash-corpus minimizer


class RobustnessWorkload:
    """A fixed fuzz campaign, then minimization of the committed crash
    corpus; every outcome must repeat exactly."""

    FUZZ_SEED = 1993
    FUZZ_TRIALS = 8
    #: ``synthetic-yield-storm`` under a ``sched`` fault can end in
    #: ``AssertionError: self-switch should be impossible`` (a known
    #: runtime bug); a workload here must not fail, so it is left out
    EXCLUDED = ("synthetic-yield-storm",)

    def __init__(self, name: str, why: str) -> None:
        self.name, self.why = name, why
        self.reference: Optional[tuple] = None
        self.outcomes: Dict[str, int] = {}
        self.traced = False

    def setup(self, ctx: Context) -> None:
        import repro.faults.fuzz as fuzz
        import repro.faults.minimize as minimize
        from repro.faults.workloads import WORKLOADS

        self.fuzz, self.minimize = fuzz, minimize
        self.names = tuple(n for n in sorted(WORKLOADS)
                           if n not in self.EXCLUDED)
        self.corpus = sorted(
            (ctx.root / "tests" / "faults" / "corpus").glob("crash-*.json"))
        if not self.corpus:
            raise RuntimeError("no crash corpus under tests/faults/corpus")
        fuzz.run_fuzz(trials=1, seed=self.FUZZ_SEED,
                      out_dir=ctx.fresh_dir("fuzz"), workloads=self.names)

    def install_trace(self, rec, sim: Dict[str, int]) -> None:
        layers.install_runtime(rec, sim)
        layers.install_faults(rec)
        self.traced = True

    def op(self, ctx: Context) -> OpResult:
        out = ctx.fresh_dir("fuzz")
        report = self.fuzz.run_fuzz(trials=self.FUZZ_TRIALS,
                                    seed=self.FUZZ_SEED, out_dir=out,
                                    workloads=self.names)
        minimized = [self.minimize.minimize_bundle(path, out_dir=out / "min")
                     for path in self.corpus]
        return OpResult((report, minimized), extra={"out": out})

    def check(self, ctx: Context, result: OpResult) -> List[str]:
        report, minimized = result.value
        shutil.rmtree(result.extra["out"])
        failures = []
        if not report.ok:
            failures.append("fuzz gate failed: " + report.summary())
        failures += ["corpus bundle %s not verified" % r.path.name
                     for r in minimized if not r.verified]
        tally = (tuple((t.outcome, t.error_type) for t in report.trials),
                 tuple((r.final_specs, r.final_steps, r.candidates)
                       for r in minimized))
        if self.reference is None:
            self.reference = tally
        elif tally != self.reference:
            failures.append("fuzz or minimization outcomes changed")
        if self.traced:
            for key in ("survived", "detected", "unexpected"):
                self.outcomes[key] = (self.outcomes.get(key, 0)
                                      + getattr(report, key))
        return failures


# ---------------------------------------------------------------------------
# the registry

_SWITCHY = tuple((s, w) for s in ("NS", "SNP", "SP") for w in (4, 8))
_STEADY = tuple((s, 32) for s in ("NS", "SNP", "SP"))


def make_workloads():
    """Fresh workload objects by name (they hold per-run state)."""
    workloads = [
        SpellWorkload(
            "spell-switchy",
            "fine-grained high concurrency (M=N=1): context switches and "
            "window traps dominate, so repro.core changes show here",
            m=1, n=1, scale=0.05, points=_SWITCHY),
        SpellWorkload(
            "spell-steady",
            "coarse low concurrency (M=1024, N=16) at 32 windows: the "
            "batched kernel loop dominates and repro.core barely runs",
            m=1024, n=16, scale=0.5, points=_STEADY),
        SpellWorkload(
            "spell-recorded",
            "spell-steady with crash bundles on: the flight recorder "
            "forces the step loop and the event bus",
            m=1024, n=16, scale=0.5, points=_STEADY, recorded=True),
        FiguresWorkload(
            "figures-cold",
            "paper tables and figures from an empty cache: fork pool, "
            "every point under full tracing, report JSON",
            warm=False),
        FiguresWorkload(
            "figures-warm",
            "paper tables and figures from a full cache: no simulation, "
            "only start-up, source digest, cache keys and reads",
            warm=True),
        RobustnessWorkload(
            "robustness",
            "fixed fuzz campaign plus crash-corpus minimization: fault "
            "plans force the step loop and minimizer replays dominate"),
    ]
    return {w.name: w for w in workloads}

