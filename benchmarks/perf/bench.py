"""Telemetry-overhead gate: what attaching ``RunTelemetry`` costs the
spell-checker workload (the paper's evaluation program).

    PYTHONPATH=src python -m benchmarks.perf [--out PATH]

It runs one SP/8-window spell check and models the enabled overhead
from deterministic event counts and measured unit costs (see
:func:`bench_ab_metrics`), and exits 1 when the overhead exceeds
``AB_BUDGET`` (3%).  This is the CI gate on the zero-cost-guard
contract: no workload of ``benchmarks/workloads`` arms telemetry, so
the parent/change pairs of ``python -m benchmarks.perf.pairs`` never
see it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.ioutil import atomic_write_text

AB_SCHEME = "SP"
AB_WINDOWS = 8
AB_CONCURRENCY = "high"
AB_GRANULARITY = "medium"
#: corpus scale of the measured run (1.0 = the paper's 40.5 kB)
AB_SCALE = 0.25
#: disabled runs; the fastest is the base the overhead is relative to
AB_REPEATS = 3
#: largest enabled overhead the gate accepts, as a fraction
AB_BUDGET = 0.03


def bench_ab_metrics() -> Dict[str, object]:
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

    config = SpellConfig.named(AB_CONCURRENCY, AB_GRANULARITY,
                               scale=AB_SCALE)

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
    for _ in range(AB_REPEATS):
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
        "scale": AB_SCALE,
        "repeats": AB_REPEATS,
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
    print("ab %s w=%d  baseline %8.0f steps/s   modeled telemetry "
          "cost %.1f ms on %.0f ms  ->  overhead %+.2f%%"
          % (AB_SCHEME, AB_WINDOWS, doc["disabled_steps_per_sec"],
             1e3 * modeled_s, 1e3 * baseline, 100.0 * overhead))
    print("   counts %s" % json.dumps(counts, sort_keys=True))
    print("   unit costs (ns) %s" % json.dumps(doc["unit_ns"],
                                               sort_keys=True))
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="telemetry-overhead gate: fails when attaching "
                    "RunTelemetry costs more than %.0f%%"
                    % (100.0 * AB_BUDGET))
    parser.add_argument("--out", default=None,
                        help="also write the measured document here")
    args = parser.parse_args(argv)

    ab = bench_ab_metrics()
    if args.out:
        atomic_write_text(Path(args.out),
                          json.dumps(ab, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % args.out)
    if ab["overhead"] > AB_BUDGET:
        print("FAIL: telemetry overhead %.2f%% exceeds %.0f%% budget"
              % (100.0 * ab["overhead"], 100.0 * AB_BUDGET),
              file=sys.stderr)
        return 1
    print("ab check OK: telemetry overhead %+.2f%% (budget %.0f%%)"
          % (100.0 * ab["overhead"], 100.0 * AB_BUDGET))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
