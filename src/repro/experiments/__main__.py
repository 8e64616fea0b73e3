"""Command-line entry point: ``python -m repro.experiments <target>``.

Targets: table1 table2 fig11 fig12 fig13 fig14 fig15 all report

Every sweep target goes through the parallel cached experiment engine
(``repro.experiments.engine``): points fan out over ``--jobs`` worker
processes and completed points are memoised on disk, so re-running a
target is pure cache hits and an interrupted sweep resumes from the
points it already finished.

``report`` emits one versioned RunReport JSON document (see
``repro.metrics.report``) for a fully-instrumented spell-checker run.

Environment knobs:
  REPRO_SCALE      corpus scale factor (default 0.25; 1.0 = paper size)
  REPRO_WINDOWS    comma-separated window counts (default 4..32 subset)
  REPRO_JOBS       default worker count (else os.cpu_count())
  REPRO_CACHE_DIR  result-cache root (else ~/.cache/repro-experiments)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.experiments.engine import Engine
from repro.experiments.figures import (
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
)
from repro.core import SCHEME_MIN_WINDOWS
from repro.experiments.points import (
    ENV_SCALE,
    ENV_WINDOWS,
    GRANULARITIES,
    SCHEMES,
    env_scale,
    env_windows,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.usage import step_count_error

FIGURES = {
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
}


def _emit_figure(name: str, windows, scale, engine) -> None:
    t0 = time.time()
    result = FIGURES[name](windows=windows, scale=scale, engine=engine)
    for granularity in GRANULARITIES:
        print(result.chart(granularity))
        print()
    print("(%s computed in %.1fs)" % (name, time.time() - t0))


def _usage_error(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("target", choices=sorted(
        list(FIGURES) + ["table1", "table2", "all", "report"]))
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale (1.0 = the paper's 40.5 kB)")
    parser.add_argument("--windows", type=str, default=None,
                        help="comma-separated window counts")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for sweep points "
                             "(default: REPRO_JOBS or os.cpu_count())")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result-cache root (default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro-experiments)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run every point even if cached")
    parser.add_argument("--scheme", default="SP",
                        choices=["NS", "SNP", "SP"],
                        help="scheme for the report target")
    parser.add_argument("--out", type=str, default=None,
                        help="report target: write JSON here "
                             "(default: stdout)")
    parser.add_argument("--faults", metavar="PLAN", default="",
                        help="fault-injection plan applied to every "
                             "point, e.g. 'store_fail@2' (see "
                             "repro.faults)")
    parser.add_argument("--seed", type=int, default=1993,
                        help="seed for the fault plan's RNG")
    parser.add_argument("--audit", action="store_true",
                        help="continuous invariant audit on every point")
    parser.add_argument("--watchdog", type=int, metavar="STEPS",
                        default=0,
                        help="per-point livelock watchdog threshold")
    parser.add_argument("--timeout", type=float, metavar="SECONDS",
                        default=None,
                        help="per-point wall-clock budget (times out as "
                             "a retryable failure)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per transient point failure")
    parser.add_argument("--backoff", type=float, default=0.0,
                        help="base seconds slept before retry k")
    parser.add_argument("--keep-going", action="store_true",
                        help="quarantine failing points into the "
                             "failure manifest instead of aborting "
                             "the sweep")
    parser.add_argument("--metrics", action="store_true",
                        help="collect engine telemetry (implied by "
                             "--metrics-out)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the live repro.metrics-snapshot "
                             "JSON here (default with --metrics: "
                             "engine-metrics.json); tail it with "
                             "python -m repro.metrics.top")
    args = parser.parse_args(argv)
    if args.faults:
        from repro.faults.plan import plan_from_arg

        # parsed once here, so a malformed plan exits 2 before any
        # point runs, instead of failing (and retrying) every point
        plan_from_arg(args.faults, seed=args.seed)

    # --watchdog 0 is off
    problem = step_count_error("--watchdog", args.watchdog, 0)
    if problem is not None:
        return _usage_error(problem)
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        return _usage_error("--timeout %s: not a positive number of "
                            "seconds" % args.timeout)

    # window counts and scale are checked here too, before any point;
    # so are the environment values a target reads in their place
    windows = None
    where = "--windows %s" % args.windows
    try:
        if args.windows:
            windows = [int(x) for x in args.windows.split(",")]
        elif args.target != "report" and os.environ.get(ENV_WINDOWS):
            where = "%s=%s" % (ENV_WINDOWS, os.environ[ENV_WINDOWS])
            windows = env_windows()
        if windows == []:
            raise ValueError(where)
    except ValueError:
        return _usage_error("%s: not a comma-separated list of integers"
                            % where)
    if windows:
        for scheme in ([args.scheme] if args.target == "report"
                       else SCHEMES):
            if min(windows) < SCHEME_MIN_WINDOWS[scheme]:
                return _usage_error(
                    "%s: %s needs at least %d windows"
                    % (where, scheme, SCHEME_MIN_WINDOWS[scheme]))
    scale = args.scale
    where = "--scale %s" % scale
    if scale is None and args.target != "table2" \
            and ENV_SCALE in os.environ:
        where = "%s=%s" % (ENV_SCALE, os.environ[ENV_SCALE])
        try:
            scale = env_scale()
        except ValueError:
            return _usage_error("%s: not a positive number" % where)
    if scale is not None and not scale > 0:
        return _usage_error("%s: not a positive number" % where)

    if args.target == "report":
        from repro.experiments.harness import run_report_point
        from repro.metrics.report import to_json, write_report

        report = run_report_point(
            args.scheme, windows[0] if windows else 8, "high", "coarse",
            scale=scale, faults=args.faults, fault_seed=args.seed,
            audit=args.audit, watchdog=args.watchdog)
        if args.out:
            write_report(report, args.out)
            print("wrote RunReport: %s" % args.out)
        else:
            print(to_json(report))
        return 0

    spec_defaults = {}
    if args.faults:
        spec_defaults["faults"] = args.faults
        spec_defaults["fault_seed"] = args.seed
    if args.audit:
        spec_defaults["audit"] = True
    if args.watchdog:
        spec_defaults["watchdog"] = args.watchdog
    metrics_out = args.metrics_out
    if args.metrics and metrics_out is None:
        metrics_out = "engine-metrics.json"
    engine = Engine.from_env(jobs=args.jobs, cache=not args.no_cache,
                             cache_dir=args.cache_dir,
                             retries=args.retries,
                             timeout=args.timeout,
                             backoff=args.backoff,
                             keep_going=args.keep_going,
                             spec_defaults=spec_defaults,
                             metrics_out=metrics_out)

    targets = ([args.target] if args.target != "all"
               else ["table1", "table2"] + sorted(FIGURES))
    for target in targets:
        print("=" * 72)
        if target == "table1":
            print(render_table1(run_table1(scale=scale, engine=engine)))
        elif target == "table2":
            print(render_table2(run_table2(engine=engine)))
        else:
            _emit_figure(target, windows, scale, engine)
        print(engine.last_stats.summary(engine.jobs))
        if engine.last_stats.failures and args.keep_going \
                and engine.failure_manifest_path() is not None:
            print("failure manifest: %s" % engine.failure_manifest_path())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
