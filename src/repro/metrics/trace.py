"""Trace CLI: record an instrumented run and inspect its event stream.

    python -m repro.metrics.trace                      # spellcheck summary
    python -m repro.metrics.trace --list --kind switch,overflow --limit 20
    python -m repro.metrics.trace --app pingpong --scheme SNP --windows 5
    python -m repro.metrics.trace --perfetto trace.json --report report.json

Records one traced run of the spell-check pipeline (or a synthetic
workload) with the full observability stack attached — the kernel's
trace recorder, and the RunReport observer, which the kernel's
per-quantum record log and dispatch snapshots feed — then prints or
exports what was captured, reading the recorded events after the run:

* ``--summary`` (default): per-thread cycle attribution, switch-cost
  percentiles (p50/p95/p99), trap counts and event totals (from the
  observer's record log);
* ``--list``: the raw event log, filterable by ``--kind``/``--tid``/
  ``--start``/``--end`` and capped with ``--limit``;
* ``--perfetto PATH``: Chrome trace-event JSON for chrome://tracing;
* ``--report PATH``: the versioned RunReport JSON document.

Every ``--app`` runs through the replayable-workload registry
(:func:`repro.faults.workloads.run_workload`), so the config a crash
bundle records is the very input the run was built from.
:class:`CliRun` and :func:`add_run_flags` are the plumbing this CLI
shares with ``python -m repro.apps.spellcheck``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.metrics.events import TraceRecorder, switch_cost_stats
from repro.metrics.observer import RunObserver
from repro.metrics.reporting import format_table

APPS = ("spellcheck", "pingpong", "forkjoin")


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The seed, robustness and telemetry flags of the single-run
    CLIs."""
    parser.add_argument("--seed", type=int, default=1993,
                        help="seed of the workload (the spell checker's "
                             "corpus and dictionaries) and of the fault "
                             "plan's RNG")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-injection plan, e.g. "
                             "'register@3,wim@2' or 'random:4' "
                             "(see repro.faults)")
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


class CliRun:
    """One single-run CLI invocation: the ``--faults`` injector, the
    kernel instruments its flags ask for, the stderr report of a
    simulator fault, and the files written after the run.

    ``perfetto`` is the Chrome trace-event output path (it implies
    ``trace``, which records the run's events); ``observe`` arms a
    :class:`~repro.metrics.observer.RunObserver`.  ``args`` carries
    the flags :func:`add_run_flags` defines, plus ``report``.  A malformed
    ``--faults`` plan exits 2 here (see
    :func:`repro.faults.plan.plan_from_arg`), before anything runs.
    """

    def __init__(self, args, perfetto=None, trace: bool = False,
                 observe: bool = False) -> None:
        self.injector = None
        if args.faults:
            from repro.faults import FaultInjector, plan_from_arg

            self.injector = FaultInjector(plan_from_arg(args.faults,
                                                        seed=args.seed))
        self.crash_dir = args.crash_dir
        self.perfetto = perfetto
        self.report = args.report
        self.metrics_out = args.metrics_out
        self.trace = trace or perfetto is not None
        self.recorder = None
        self.observer = RunObserver() if observe else None
        self.telemetry = None
        if args.metrics or args.metrics_out:
            from repro.metrics.telemetry import RunTelemetry

            self.telemetry = RunTelemetry()

    def instrument(self, kernel) -> None:
        """The ``instrument=`` hook: arm the kernel before any spawn."""
        if self.trace:
            self.recorder = kernel.enable_tracing()
        if self.observer is not None:
            self.observer.attach(kernel)
        if self.telemetry is not None:
            self.telemetry.attach(kernel)

    def run(self, runner, *args, **kwargs):
        """Return ``runner(*args, **kwargs)`` with the ``faults``,
        ``crash_dir`` and ``instrument`` keywords added, or None after
        a simulator error, which goes to stderr with the crash
        bundle's replay command."""
        try:
            return runner(*args, faults=self.injector,
                          crash_dir=self.crash_dir,
                          instrument=self.instrument, **kwargs)
        except ReproError as exc:
            print("simulator fault: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
            bundle = getattr(exc, "bundle_path", None)
            if bundle is not None:
                print("crash bundle: %s" % bundle, file=sys.stderr)
                print("replay with: python -m repro.faults replay %s"
                      % bundle, file=sys.stderr)
            if self.injector is not None:
                print(self.injector.summary(), file=sys.stderr)
            return None

    def finish(self, result, config) -> bool:
        """Print the fired faults and write the Perfetto trace, the
        RunReport and the metrics snapshot the flags ask for; returns
        whether any file was written."""
        if self.injector is not None:
            print(self.injector.summary())
        metrics_snapshot = None
        if self.telemetry is not None:
            self.telemetry.finalize(result)
            metrics_snapshot = self.telemetry.snapshot(dict(config))
        if self.perfetto:
            from repro.metrics.perfetto import PerfettoExporter

            exporter = PerfettoExporter()
            exporter.read(self.recorder)
            if self.telemetry is not None:
                exporter.add_telemetry(self.telemetry)
            exporter.write(self.perfetto)
            print("wrote Perfetto trace: %s" % self.perfetto)
        if self.report:
            from repro.metrics.report import build_run_report, write_report

            report = build_run_report(
                result, config=config, observer=self.observer,
                metrics=metrics_snapshot)
            write_report(report, self.report)
            print("wrote RunReport: %s" % self.report)
        if self.metrics_out:
            from repro.metrics.telemetry import write_snapshot

            write_snapshot(metrics_snapshot, self.metrics_out)
            print("wrote metrics snapshot: %s" % self.metrics_out)
        return bool(self.perfetto or self.report or self.metrics_out)


def record_run(args, cli: CliRun):
    """Map the ``--app`` to a registry config (the config any crash
    bundle of the run records) and run it fully instrumented; returns
    ``(result, report config)``, or None after a simulator error."""
    from repro.faults.workloads import run_workload

    if args.app == "spellcheck":
        from repro.apps.spellcheck.config import BUFFER_CONFIGS

        m, n = BUFFER_CONFIGS[(args.concurrency, args.granularity)]
        app = {"app": "spellcheck", "concurrency": args.concurrency,
               "granularity": args.granularity, "scale": args.scale,
               "m": m, "n": n}
        workload = dict(app, workload="spellcheck")
    elif args.app == "pingpong":
        app = {"app": "pingpong", "rounds": args.rounds}
        workload = {"workload": "synthetic-ping-pong",
                    "rounds": args.rounds}
    else:
        app = {"app": "forkjoin", "children": 3, "items": args.rounds}
        workload = {"workload": "synthetic-fork-join", "n_children": 3,
                    "items": args.rounds}
    knobs = {"scheme": args.scheme, "n_windows": args.windows,
             "seed": args.seed}
    result = cli.run(run_workload, dict(
        workload, **knobs, verify_registers=bool(args.faults),
        audit=args.audit, watchdog=args.watchdog or 0))
    return None if result is None else (result, dict(app, **knobs))


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


def print_summary(result, recorder: TraceRecorder,
                  observer: RunObserver) -> None:
    counters = result.counters
    names = {t.tid: t.name for t in result.threads}
    tally = observer.tally()

    print("run: %d cycles, %d steps, %d events, loop=%s" % (
        counters.total_cycles, result.steps, len(recorder), result.loop))
    print()

    per_cycles = tally.per_thread_cycles
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

    stats = switch_cost_stats(tally.switch_costs)
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

    behavior = observer.behavior()
    if behavior.n_quanta:
        print("behavior: %.2f windows/quantum, %.1f-cycle granularity, "
              "%.2f mean concurrency" % (
                  behavior.mean_window_activity(), behavior.granularity(),
                  behavior.mean_concurrency()))
    timeline = observer.timeline
    if timeline.samples:
        print("windows: %.0f%% mean occupancy, %.0f%% churn "
              "(%d timeline samples)" % (
                  100 * timeline.occupancy_ratio(),
                  100 * timeline.churn(), len(timeline.samples)))
    print()

    rows = [[kind, count]
            for kind, count in observer.by_kind(result, tally).items()]
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
    add_run_flags(parser)
    args = parser.parse_args(argv)

    cli = CliRun(args, perfetto=args.perfetto, trace=True, observe=True)
    recorded = record_run(args, cli)
    if recorded is None:
        return 1
    result, config = recorded
    wrote = cli.finish(result, config)
    if args.list:
        print_events(cli.recorder, args)
    if args.summary or not (args.list or wrote):
        print_summary(result, cli.recorder, cli.observer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
