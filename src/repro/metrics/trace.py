"""Trace CLI: record an instrumented run and inspect its event stream.

    python -m repro.metrics.trace                      # spellcheck summary
    python -m repro.metrics.trace --list --kind switch,overflow --limit 20
    python -m repro.metrics.trace --app pingpong --scheme SNP --windows 5
    python -m repro.metrics.trace --perfetto trace.json --report report.json

Records one run of the spell-check pipeline (or a synthetic workload)
with the full observability stack attached — event recorder and
Perfetto exporter on the event bus, and the behaviour tracker,
occupancy timeline and event tally, which the kernel's per-quantum
record log and dispatch snapshots feed — then prints or exports
what was captured:

* ``--summary`` (default): per-thread cycle attribution, switch-cost
  percentiles (p50/p95/p99), trap counts and event totals;
* ``--list``: the raw event log, filterable by ``--kind``/``--tid``/
  ``--start``/``--end`` and capped with ``--limit``;
* ``--perfetto PATH``: Chrome trace-event JSON for chrome://tracing;
* ``--report PATH``: the versioned RunReport JSON document.
"""

from __future__ import annotations

import argparse
import sys

from repro.metrics.behavior import BehaviorTracker
from repro.metrics.events import EventTally, TraceRecorder
from repro.metrics.perfetto import PerfettoExporter
from repro.metrics.report import build_run_report, write_report
from repro.metrics.reporting import format_table
from repro.metrics.tracing import OccupancyTimeline
from repro.runtime.kernel import Kernel

APPS = ("spellcheck", "pingpong", "forkjoin")


def record_run(args):
    """Build the requested workload fully instrumented and run it."""
    injector = None
    if args.faults:
        from repro.faults import FaultInjector, plan_from_arg
        injector = FaultInjector(plan_from_arg(args.faults,
                                               seed=args.seed))
    kernel = Kernel(n_windows=args.windows, scheme=args.scheme,
                    verify_registers=injector is not None,
                    faults=injector, audit=args.audit,
                    watchdog=args.watchdog, crash_dir=args.crash_dir)
    recorder = kernel.enable_tracing()
    exporter = PerfettoExporter()
    kernel.events.subscribe(exporter)
    tracker = BehaviorTracker()
    kernel.tracker = tracker
    timeline = OccupancyTimeline()
    kernel.timeline = timeline
    tally = EventTally()
    kernel.tally = tally
    telemetry = None
    if args.metrics or args.metrics_out:
        from repro.metrics.telemetry import RunTelemetry

        telemetry = RunTelemetry()
        telemetry.attach(kernel)

    if args.app == "spellcheck":
        from repro.apps.spellcheck.pipeline import (
            SpellConfig,
            build_spellchecker,
        )
        config = SpellConfig.named(args.concurrency, args.granularity,
                                   scale=args.scale, seed=args.seed)
        build_spellchecker(kernel, config)
        workload = {"app": "spellcheck", "concurrency": args.concurrency,
                    "granularity": args.granularity, "scale": args.scale,
                    "m": config.m, "n": config.n}
    elif args.app == "pingpong":
        from repro.apps.synthetic import spawn_ping_pong
        spawn_ping_pong(kernel, rounds=args.rounds)
        workload = {"app": "pingpong", "rounds": args.rounds}
    else:
        from repro.apps.synthetic import spawn_fork_join
        spawn_fork_join(kernel, n_children=3, items=args.rounds)
        workload = {"app": "forkjoin", "children": 3,
                    "items": args.rounds}

    config = dict(workload, scheme=args.scheme, n_windows=args.windows,
                  seed=args.seed)
    if args.crash_dir is not None and args.app == "spellcheck":
        kernel.crash_config = dict(config, workload="spellcheck",
                                   verify_registers=injector is not None,
                                   audit=args.audit,
                                   watchdog=args.watchdog)
    result = kernel.run()
    if injector is not None:
        print(injector.summary())
    if telemetry is not None:
        telemetry.finalize(result)
    return (result, config, recorder, exporter, tracker, timeline, tally,
            telemetry)


def print_events(recorder: TraceRecorder, args) -> None:
    kinds = ([k.strip() for k in args.kind.split(",") if k.strip()]
             if args.kind else None)
    events = recorder.filter(kinds=kinds, tid=args.tid,
                             start=args.start, end=args.end)
    shown = events if args.limit is None else events[:args.limit]
    print("     cycle  thread  kind        attrs")
    for event in shown:
        print(event)
    if len(shown) < len(events):
        print("... %d more (raise --limit)" % (len(events) - len(shown)))


def print_summary(result, recorder: TraceRecorder, tracker,
                  timeline) -> None:
    counters = result.counters
    names = {t.tid: t.name for t in result.threads}

    print("run: %d cycles, %d steps, %d events, loop=%s" % (
        counters.total_cycles, result.steps, len(recorder), result.loop))
    print()

    per_cycles = recorder.per_thread_cycles()
    rows = []
    total = counters.total_cycles or 1
    for t in sorted(result.threads, key=lambda t: t.tid):
        cycles = per_cycles.get(t.tid, 0)
        rows.append([t.name, cycles, "%.1f%%" % (100.0 * cycles / total),
                     counters.per_thread_switches.get(t.tid, 0),
                     counters.per_thread_saves.get(t.tid, 0),
                     counters.per_thread_restores.get(t.tid, 0),
                     t.blocks])
    print(format_table(
        ["thread", "cycles", "share", "switches", "saves", "restores",
         "blocks"], rows, title="per-thread cycle attribution"))
    print()

    stats = recorder.switch_cost_stats()
    print(format_table(
        ["count", "mean", "p50", "p95", "p99", "max"],
        [[stats["count"], stats["mean"], stats["p50"], stats["p95"],
          stats["p99"], stats["max"]]],
        title="context-switch cost (cycles)"))
    print()

    traps = recorder.trap_timeline()
    print("traps: %d overflow, %d underflow (trap probability %.4f)" % (
        counters.overflow_traps, counters.underflow_traps,
        counters.trap_probability))
    for event in traps[:10]:
        print("  %8d  %-9s %s" % (
            event.cycle, event.kind,
            names.get(event.tid, "T%s" % event.tid)))
    if len(traps) > 10:
        print("  ... %d more (use --list --kind overflow,underflow)"
              % (len(traps) - 10))
    print()

    if tracker.quanta:
        print("behavior: %.2f windows/quantum, %.1f-cycle granularity, "
              "%.2f mean concurrency" % (
                  tracker.mean_window_activity(), tracker.granularity(),
                  tracker.mean_concurrency()))
    if timeline.samples:
        print("windows: %.0f%% mean occupancy, %.0f%% churn "
              "(%d timeline samples)" % (
                  100 * timeline.occupancy_ratio(),
                  100 * timeline.churn(), len(timeline.samples)))
    print()

    rows = [[kind, count]
            for kind, count in sorted(recorder.by_kind().items())]
    print(format_table(["event", "count"], rows, title="events by kind"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.trace",
        description="Record an instrumented run and inspect its "
                    "structured trace events.")
    parser.add_argument("--app", choices=APPS, default="spellcheck")
    parser.add_argument("--scheme", default="SP",
                        choices=["NS", "SNP", "SP"])
    parser.add_argument("--windows", type=int, default=8)
    parser.add_argument("--concurrency", default="high",
                        choices=["high", "low"])
    parser.add_argument("--granularity", default="coarse",
                        choices=["coarse", "medium", "fine"])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="spellcheck corpus scale (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--rounds", type=int, default=100,
                        help="iterations for the synthetic workloads")
    parser.add_argument("--list", action="store_true",
                        help="print the (filtered) raw event log")
    parser.add_argument("--summary", action="store_true",
                        help="print run statistics (default action)")
    parser.add_argument("--kind", type=str, default=None,
                        help="comma-separated event kinds for --list")
    parser.add_argument("--tid", type=int, default=None,
                        help="only events of this thread for --list")
    parser.add_argument("--start", type=int, default=None,
                        help="events at or after this cycle")
    parser.add_argument("--end", type=int, default=None,
                        help="events at or before this cycle")
    parser.add_argument("--limit", type=int, default=200,
                        help="max events printed by --list")
    parser.add_argument("--perfetto", metavar="PATH", default=None,
                        help="write Chrome trace-event JSON here")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the RunReport JSON here")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-injection plan, e.g. "
                             "'register@3,wim@2' or 'random:4' "
                             "(fault events land in --list output)")
    parser.add_argument("--audit", action="store_true",
                        help="run the full invariant check after every "
                             "dispatch/call/return")
    parser.add_argument("--watchdog", type=int, metavar="STEPS",
                        default=None,
                        help="raise LivelockError after this many steps "
                             "without progress")
    parser.add_argument("--crash-dir", metavar="DIR", default=None,
                        help="write a replayable crash bundle here on "
                             "any simulator error")
    parser.add_argument("--metrics", action="store_true",
                        help="collect aggregate telemetry (histograms + "
                             "cycle-domain profiler)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the repro.metrics-snapshot JSON here "
                             "(implies --metrics)")
    args = parser.parse_args(argv)

    try:
        (result, config, recorder, exporter, tracker, timeline, tally,
         telemetry) = record_run(args)
    except Exception as exc:
        from repro.errors import ReproError

        if not isinstance(exc, ReproError):
            raise
        print("simulator fault: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        bundle = getattr(exc, "bundle_path", None)
        if bundle is not None:
            print("crash bundle: %s" % bundle, file=sys.stderr)
            print("replay with: python -m repro.faults replay %s"
                  % bundle, file=sys.stderr)
        return 1

    metrics_snapshot = None
    if telemetry is not None:
        metrics_snapshot = telemetry.snapshot(dict(config))
    wrote = False
    if args.perfetto:
        if telemetry is not None:
            exporter.add_telemetry(telemetry)
        exporter.write(args.perfetto)
        print("wrote Perfetto trace: %s" % args.perfetto)
        wrote = True
    if args.report:
        report = build_run_report(result, config=config, tracker=tracker,
                                  timeline=timeline, tally=tally,
                                  metrics=metrics_snapshot)
        write_report(report, args.report)
        print("wrote RunReport: %s" % args.report)
        wrote = True
    if args.metrics_out:
        from repro.metrics.telemetry import write_snapshot

        write_snapshot(metrics_snapshot, args.metrics_out)
        print("wrote metrics snapshot: %s" % args.metrics_out)
        wrote = True
    if args.list:
        print_events(recorder, args)
    if args.summary or not (args.list or wrote):
        print_summary(result, recorder, tracker, timeline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
