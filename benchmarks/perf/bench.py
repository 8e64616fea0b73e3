"""Measure simulator throughput and compare against the tracked baseline.

Two measurements, both against the spell-checker workload (the paper's
evaluation program):

* **micro** — steps/sec of one end-to-end run per (scheme, window
  count) point: NS/SNP/SP at 8 and 32 windows.  ``steps`` is the
  kernel's own step counter, so the number is a direct measure of
  simulator (not workload) throughput and is comparable across PRs as
  long as the counters stay bit-identical — which the differential and
  golden suites enforce.
* **sweep** — wall-clock of the full Table-2-style grid (3 schemes x
  {high, low} concurrency x {coarse, medium, fine} granularity) through
  the serial harness, i.e. what one engine worker pays per grid.

The document's ``settings`` record the Python version and compiler,
so numbers are only ever read like-with-like.

Baselines are committed at the repo root as ``BENCH_<n>.json`` and
form the perf history: each PR that re-baselines appends the next id
instead of overwriting.  ``--check`` compares against the latest
baseline measured on the pure-Python loop (``BENCH_8.json`` was
measured on a C extension that no longer exists and stays only as
history) and fails (exit 1) when the current tree's headline
steps/sec or sweep throughput regresses more than ``--tolerance``
(default 20%, override with ``REPRO_BENCH_TOLERANCE``); ``--update``
writes the next ``BENCH_<n+1>.json``, preserving the recorded
pre-optimization reference numbers under ``baseline_pre_pr``.

Two additional modes:

* ``--history`` — trend table over every committed ``BENCH_*.json``
  (headline, per-scheme micro at 8 windows, sweep throughput, deltas
  between consecutive baselines, regression flags);
* ``--ab-metrics`` — interleaved A/B of the telemetry subsystem:
  the same SP/8-window spell-check run with metrics detached vs
  attached, failing if the enabled overhead exceeds
  ``--ab-tolerance`` (default 3%, ``REPRO_BENCH_AB_TOLERANCE``).
  This is the CI gate on the zero-cost-guard contract.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.experiments.harness import run_point
from repro.ioutil import atomic_write_text

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1

#: repo root holding the committed BENCH_<n>.json history
REPO_ROOT = Path(__file__).resolve().parents[2]


def bench_history_paths(root: Optional[Path] = None):
    """Committed baselines as ``[(n, path)]`` in ascending-id order."""
    root = Path(root) if root is not None else REPO_ROOT
    entries = []
    for path in root.glob("BENCH_*.json"):
        suffix = path.stem[len("BENCH_"):]
        if suffix.isdigit():
            entries.append((int(suffix), path))
    return sorted(entries)


def latest_bench_path(root: Optional[Path] = None) -> Optional[Path]:
    history = bench_history_paths(root)
    return history[-1][1] if history else None


def next_bench_id(root: Optional[Path] = None) -> str:
    history = bench_history_paths(root)
    return "BENCH_%d" % ((history[-1][0] + 1) if history else 1)


def load_baseline(path: Optional[Path] = None) -> Dict[str, object]:
    path = Path(path) if path is not None else BASELINE_PATH
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA_NAME:
        raise ValueError("not a %s document: %r"
                         % (SCHEMA_NAME, doc.get("schema")))
    return doc


def measured_compiled(doc: Dict[str, object]) -> bool:
    """True for a history document measured on the deleted compiled C
    extension (``BENCH_8.json``): ``--history`` lists it, but it is
    never a ``--check`` baseline and never a delta's reference."""
    return doc.get("settings", {}).get("backend") == "compiled"


def latest_pure_baseline(root: Optional[Path] = None) -> Optional[Path]:
    """Newest committed baseline measured on the pure-Python loop."""
    for __, path in reversed(bench_history_paths(root)):
        if not measured_compiled(load_baseline(path)):
            return path
    return None


#: the committed baseline this suite checks against (repo root)
BASELINE_PATH = latest_pure_baseline() \
    or REPO_ROOT / (next_bench_id() + ".json")

SCHEMES = ("NS", "SNP", "SP")
MICRO_WINDOWS = (8, 32)
MICRO_CONCURRENCY = "high"
MICRO_GRANULARITY = "medium"

DEFAULT_MICRO_SCALE = 0.25
DEFAULT_SWEEP_SCALE = 0.05
DEFAULT_REPEATS = 3
DEFAULT_TOLERANCE = 0.20
#: single micro points have far higher run-to-run variance than the
#: aggregate headline (one point is ~1s of wall time on a shared
#: host), so --check gives them this much extra headroom on top of
#: --tolerance before calling a regression
MICRO_POINT_MARGIN = 1.75
DEFAULT_AB_TOLERANCE = 0.03
AB_SCHEME = "SP"
AB_WINDOWS = 8

SWEEP_GRID = [(scheme, concurrency, granularity)
              for scheme in SCHEMES
              for concurrency in ("high", "low")
              for granularity in ("coarse", "medium", "fine")]
SWEEP_WINDOWS = 8


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def bench_micro_point(scheme: str, n_windows: int, scale: float,
                      repeats: int) -> Dict[str, object]:
    """Best-of-``repeats`` steps/sec for one (scheme, windows) point."""
    config = SpellConfig.named(MICRO_CONCURRENCY, MICRO_GRANULARITY,
                               scale=scale)
    best = None
    steps = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result, _out = run_spellchecker(n_windows, scheme, config)
        elapsed = time.perf_counter() - start
        steps = result.steps
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None and best > 0
    return {
        "scheme": scheme,
        "n_windows": n_windows,
        "steps": steps,
        "wall_s": round(best, 6),
        "steps_per_sec": round(steps / best, 1),
    }


def bench_sweep(scale: float) -> Dict[str, object]:
    """Wall-clock of the full scheme x concurrency x granularity grid."""
    start = time.perf_counter()
    for scheme, concurrency, granularity in SWEEP_GRID:
        run_point(scheme, SWEEP_WINDOWS, concurrency, granularity,
                  scale=scale)
    elapsed = time.perf_counter() - start
    return {
        "points": len(SWEEP_GRID),
        "n_windows": SWEEP_WINDOWS,
        "wall_s": round(elapsed, 6),
        "points_per_sec": round(len(SWEEP_GRID) / elapsed, 3),
    }


def run_suite(micro_scale: Optional[float] = None,
              sweep_scale: Optional[float] = None,
              repeats: Optional[int] = None,
              quiet: bool = False) -> Dict[str, object]:
    """Run the full suite; returns the bench document."""
    micro_scale = (micro_scale if micro_scale is not None
                   else _env_float("REPRO_BENCH_SCALE", DEFAULT_MICRO_SCALE))
    sweep_scale = (sweep_scale if sweep_scale is not None
                   else _env_float("REPRO_BENCH_SWEEP_SCALE",
                                   DEFAULT_SWEEP_SCALE))
    repeats = (repeats if repeats is not None
               else _env_int("REPRO_BENCH_REPEATS", DEFAULT_REPEATS))

    micro: List[Dict[str, object]] = []
    for scheme in SCHEMES:
        for n_windows in MICRO_WINDOWS:
            point = bench_micro_point(scheme, n_windows, micro_scale,
                                      repeats)
            micro.append(point)
            if not quiet:
                print("micro %-3s w=%-2d  %8d steps  %7.3fs  %10.0f steps/s"
                      % (scheme, n_windows, point["steps"],
                         point["wall_s"], point["steps_per_sec"]))

    total_steps = sum(p["steps"] for p in micro)
    total_wall = sum(p["wall_s"] for p in micro)
    headline = round(total_steps / total_wall, 1)

    sweep = bench_sweep(sweep_scale)
    if not quiet:
        print("sweep %d points in %.3fs (%.2f points/s)"
              % (sweep["points"], sweep["wall_s"],
                 sweep["points_per_sec"]))
        print("headline spellcheck steps/sec: %.0f" % headline)

    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "bench_id": next_bench_id(),
        "settings": {
            "micro_scale": micro_scale,
            "sweep_scale": sweep_scale,
            "repeats": repeats,
            "concurrency": MICRO_CONCURRENCY,
            "granularity": MICRO_GRANULARITY,
            "python": platform.python_version(),
            "compiler": platform.python_compiler(),
        },
        "micro": micro,
        "spellcheck_steps_per_sec": headline,
        "sweep": sweep,
    }


def check_against_baseline(current: Dict[str, object],
                           baseline: Dict[str, object],
                           tolerance: float) -> List[str]:
    """Regressions beyond ``tolerance``, as readable failure lines.

    The headline and sweep aggregates gate at ``tolerance``; each
    micro point gates at ``tolerance * MICRO_POINT_MARGIN``, because a
    single ~1s point carries much more scheduling noise than the
    aggregate and a tight per-point gate flakes on shared hosts.
    """
    failures = []

    def compare(label: str, now: float, then: float,
                margin: float = 1.0) -> None:
        if then <= 0:
            return
        allowed = tolerance * margin
        floor = then * (1.0 - allowed)
        if now < floor:
            failures.append(
                "%s regressed: %.0f -> %.0f (-%.1f%%, tolerance %.0f%%)"
                % (label, then, now, 100.0 * (1.0 - now / then),
                   100.0 * allowed))

    compare("spellcheck steps/sec",
            float(current["spellcheck_steps_per_sec"]),
            float(baseline["spellcheck_steps_per_sec"]))
    base_micro = {(p["scheme"], p["n_windows"]): p
                  for p in baseline.get("micro", [])}
    for point in current["micro"]:
        key = (point["scheme"], point["n_windows"])
        if key in base_micro:
            compare("micro %s w=%d steps/sec" % key,
                    float(point["steps_per_sec"]),
                    float(base_micro[key]["steps_per_sec"]),
                    margin=MICRO_POINT_MARGIN)
    if "sweep" in baseline:
        compare("sweep points/sec",
                float(current["sweep"]["points_per_sec"]),
                float(baseline["sweep"]["points_per_sec"]))
    return failures


def bench_ab_metrics(scale: Optional[float] = None,
                     repeats: Optional[int] = None,
                     quiet: bool = False) -> Dict[str, object]:
    """Telemetry-overhead gate: deterministic counts x measured unit costs.

    Naive A/B wall-clock comparison cannot resolve a ~1% effect on a
    shared host — co-tenant load makes individual 0.5s runs scatter by
    5-15%, and no pairing/median/min statistic survives that.  Instead
    the gate builds a **cost model**:

    1. one fully-instrumented run yields the exact, deterministic event
       counts (quanta, switches, traps, profiler checks, samples) and
       the one-shot ``finalize`` fold time;
    2. tight-loop microbenchmarks measure each telemetry primitive's
       unit cost (best-of-5 over 200k iterations, so per-iteration
       noise averages out within a single timed region);
    3. ``overhead = sum(count * unit_cost) / baseline_run_time``.

    Unit costs and the baseline are measured on the same host under the
    same load, so ambient slowdown inflates numerator and denominator
    together and cancels to first order — the model is reproducible on
    a noisy box to a few tenths of a percent, where direct A/B flapped
    by whole percents.  The loop-emulation unit costs *include* the
    bench loop overhead, biasing the model conservatively high.
    """
    from repro.metrics.counters import Counters
    from repro.metrics.profiler import CycleProfiler
    from repro.metrics.telemetry import RunTelemetry

    scale = (scale if scale is not None
             else _env_float("REPRO_BENCH_SCALE", DEFAULT_MICRO_SCALE))
    repeats = (repeats if repeats is not None
               else _env_int("REPRO_BENCH_REPEATS", DEFAULT_REPEATS))
    config = SpellConfig.named(MICRO_CONCURRENCY, MICRO_GRANULARITY,
                               scale=scale)

    # 1. counted run: exact event counts + fold cost ---------------------
    telemetry = RunTelemetry()
    start = time.process_time()
    result, _out = run_spellchecker(AB_WINDOWS, AB_SCHEME, config,
                                    instrument=telemetry.attach)
    enabled_cpu = time.process_time() - start
    start = time.process_time()
    telemetry.finalize(result)
    finalize_s = time.process_time() - start
    prof = telemetry.profiler
    snap = result.counters.snapshot()
    counts = {
        # each quantum executes the profiler guard once (decrement +
        # compare in the dispatch loop's finally)
        "quanta": prof.checks * prof.check_every
                  + (prof.check_every - prof._cd),
        "switch_appends": snap["context_switches"],
        "trap_appends": snap["overflow_traps"] + snap["underflow_traps"],
        "checks": prof.checks,
        "samples": prof.samples,
    }
    steps = result.steps

    # 2. baseline: the disabled run this overhead is relative to --------
    baseline = None
    for _ in range(max(1, repeats)):
        start = time.process_time()
        run_spellchecker(AB_WINDOWS, AB_SCHEME, config)
        elapsed = time.process_time() - start
        baseline = elapsed if baseline is None else min(baseline, elapsed)

    # 3. unit costs ------------------------------------------------------
    def unit_ns(body, iters=200_000, rounds=5):
        best = None
        for _ in range(rounds):
            t0 = time.process_time()
            body(iters)
            dt = time.process_time() - t0
            best = dt if best is None else min(best, dt)
        return best / iters * 1e9

    uprof = CycleProfiler()
    ucounters = Counters()
    ucounters.compute_cycles = 1  # keep total_cycles below the grid

    def guard_body(n):
        # the per-quantum finally: None-check, decrement, threshold test
        prof = uprof
        prof._cd = 1 << 40
        for _ in range(n):
            if prof is not None:
                prof._cd -= 1
                if prof._cd <= 0:
                    prof._check(None, None, ucounters)

    def append_body(n):
        buf = []
        append_cycles = 37
        for i in range(n):
            if buf is not None:
                buf.append(append_cycles)
            if len(buf) >= 4096:
                del buf[:]

    def check_body(n):
        # countdown expiry that reads the clock but crosses no boundary
        prof = uprof
        prof._next_cycle = 1 << 60
        check = prof._check
        for _ in range(n):
            check(None, None, ucounters)

    class _Thread:
        pass

    def _gen():
        yield

    sample_thread = _Thread()
    sample_thread.name = "ab"
    sample_thread.gen_stack = [_gen(), _gen(), _gen()]

    def sample_body(n):
        # forced grid crossing every call: stack build + dicts +
        # occupancy append (the real sample path)
        prof = uprof
        check = prof._check
        for _ in range(n):
            prof._next_cycle = 0
            check(sample_thread, None, ucounters)
        prof.occupancy.clear()
        prof.stack_cycles.clear()

    unit = {
        "guard_ns": unit_ns(guard_body),
        "append_ns": unit_ns(append_body),
        "check_ns": unit_ns(check_body, iters=50_000),
        "sample_ns": unit_ns(sample_body, iters=50_000),
    }

    modeled_s = (
        counts["quanta"] * unit["guard_ns"]
        + (counts["switch_appends"] + counts["trap_appends"])
        * unit["append_ns"]
        + counts["checks"] * unit["check_ns"]
        + counts["samples"] * unit["sample_ns"]) * 1e-9 + finalize_s
    overhead = modeled_s / baseline

    doc = {
        "scheme": AB_SCHEME,
        "n_windows": AB_WINDOWS,
        "scale": scale,
        "repeats": repeats,
        "steps": steps,
        "counts": counts,
        "unit_ns": {k: round(v, 1) for k, v in unit.items()},
        "finalize_s": round(finalize_s, 6),
        "modeled_overhead_s": round(modeled_s, 6),
        "baseline_cpu_s": round(baseline, 6),
        "enabled_cpu_s": round(enabled_cpu, 6),
        "disabled_steps_per_sec": round(steps / baseline, 1),
        "overhead": round(overhead, 4),
    }
    if not quiet:
        print("ab %s w=%d  baseline %8.0f steps/s   modeled telemetry "
              "cost %.1f ms on %.0f ms  ->  overhead %+.2f%%"
              % (AB_SCHEME, AB_WINDOWS, doc["disabled_steps_per_sec"],
                 1e3 * modeled_s, 1e3 * baseline, 100.0 * overhead))
        print("   counts %s" % json.dumps(counts, sort_keys=True))
        print("   unit costs (ns) %s" % json.dumps(doc["unit_ns"],
                                                   sort_keys=True))
    return doc


def render_history(docs: List[Dict[str, object]],
                   tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Trend table over successive benchmark documents.

    Deltas compare each pure-loop baseline to its pure predecessor; a
    drop beyond ``tolerance`` on the headline is flagged REGRESSED.
    Documents measured on the deleted compiled extension are listed,
    labelled as such, with no delta.
    """
    from repro.metrics.reporting import format_table

    rows = []
    prev: Optional[float] = None
    for doc in docs:
        compiled = measured_compiled(doc)
        headline = float(doc["spellcheck_steps_per_sec"])
        micro8 = {p["scheme"]: p["steps_per_sec"]
                  for p in doc.get("micro", []) if p["n_windows"] == 8}
        sweep = float(doc.get("sweep", {}).get("points_per_sec", 0))
        if compiled or prev is None or prev <= 0:
            delta, flag = "", ""
        else:
            change = headline / prev - 1.0
            delta = "%+.1f%%" % (100.0 * change)
            flag = "REGRESSED" if change < -tolerance else ""
        rows.append([doc.get("bench_id", "?"),
                     "compiled (history)" if compiled else "pure",
                     "%.0f" % headline, delta,
                     "%.0f" % micro8.get("NS", 0),
                     "%.0f" % micro8.get("SNP", 0),
                     "%.0f" % micro8.get("SP", 0),
                     "%.2f" % sweep, flag])
        if not compiled:
            prev = headline
    return format_table(
        ["bench", "loop", "steps/s", "delta", "NS w=8", "SNP w=8",
         "SP w=8", "sweep pts/s", ""],
        rows, title="perf history (headline spellcheck steps/sec)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="simulator throughput suite (baselines: the repo's "
                    "BENCH_<n>.json history)")
    parser.add_argument("--update", action="store_true",
                        help="commit the measurement as the next "
                             "BENCH_<n+1>.json baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail if the tree regresses vs the baseline")
    parser.add_argument("--baseline", default=None,
                        help="baseline path (default: the latest repo "
                             "BENCH_<n>.json measured on the pure loop)")
    parser.add_argument("--out", default=None,
                        help="also write the measured document here")
    parser.add_argument("--tolerance", type=float,
                        default=_env_float("REPRO_BENCH_TOLERANCE",
                                           DEFAULT_TOLERANCE),
                        help="allowed fractional regression for --check")
    parser.add_argument("--history", action="store_true",
                        help="print the trend table over all committed "
                             "BENCH_*.json baselines and exit")
    parser.add_argument("--ab-metrics", action="store_true",
                        help="A/B the telemetry overhead (enabled vs "
                             "disabled) and fail beyond --ab-tolerance")
    parser.add_argument("--ab-tolerance", type=float,
                        default=_env_float("REPRO_BENCH_AB_TOLERANCE",
                                           DEFAULT_AB_TOLERANCE),
                        help="max fractional telemetry overhead for "
                             "--ab-metrics (default 0.03)")
    parser.add_argument("--micro-scale", type=float, default=None)
    parser.add_argument("--sweep-scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    if args.history:
        history = bench_history_paths()
        if not history:
            print("no BENCH_*.json baselines at %s" % REPO_ROOT,
                  file=sys.stderr)
            return 2
        docs = [load_baseline(path) for __, path in history]
        print(render_history(docs, tolerance=args.tolerance))
        return 0

    if args.ab_metrics:
        ab = bench_ab_metrics(scale=args.micro_scale,
                              repeats=args.repeats)
        if args.out:
            atomic_write_text(Path(args.out),
                              json.dumps(ab, indent=2, sort_keys=True)
                              + "\n")
            print("wrote %s" % args.out)
        if ab["overhead"] > args.ab_tolerance:
            print("FAIL: telemetry overhead %.2f%% exceeds %.0f%% budget"
                  % (100.0 * ab["overhead"], 100.0 * args.ab_tolerance),
                  file=sys.stderr)
            return 1
        print("ab check OK: telemetry overhead %+.2f%% "
              "(budget %.0f%%)" % (100.0 * ab["overhead"],
                                   100.0 * args.ab_tolerance))
        return 0

    current = run_suite(micro_scale=args.micro_scale,
                        sweep_scale=args.sweep_scale,
                        repeats=args.repeats)
    baseline_path = Path(args.baseline) if args.baseline else BASELINE_PATH

    if args.out:
        atomic_write_text(Path(args.out),
                          json.dumps(current, indent=2, sort_keys=True)
                          + "\n")
        print("wrote %s" % args.out)

    if args.update:
        if args.baseline:
            target = baseline_path
        else:
            # append the next id so the committed history accumulates
            target = REPO_ROOT / (current["bench_id"] + ".json")
        previous = latest_bench_path()
        if previous is not None and previous != target \
                and previous.exists():
            old = load_baseline(previous)
            if "baseline_pre_pr" in old:
                current["baseline_pre_pr"] = old["baseline_pre_pr"]
        elif target.exists():
            old = load_baseline(target)
            current["bench_id"] = old.get("bench_id",
                                          current["bench_id"])
            if "baseline_pre_pr" in old:
                current["baseline_pre_pr"] = old["baseline_pre_pr"]
        atomic_write_text(target,
                          json.dumps(current, indent=2, sort_keys=True)
                          + "\n")
        print("baseline updated: %s" % target)
        return 0

    if args.check:
        if not baseline_path.exists():
            print("no committed baseline; run with --update first",
                  file=sys.stderr)
            return 2
        baseline = load_baseline(baseline_path)
        failures = check_against_baseline(current, baseline,
                                          args.tolerance)
        if failures:
            for line in failures:
                print("FAIL: %s" % line, file=sys.stderr)
            return 1
        print("bench check OK: headline %.0f steps/s vs %s %.0f "
              "(tolerance %.0f%%)"
              % (current["spellcheck_steps_per_sec"], baseline_path.name,
                 baseline["spellcheck_steps_per_sec"],
                 100.0 * args.tolerance))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
