"""Command-line spell checker: ``python -m repro.apps.spellcheck``.

Checks a LaTeX file (or the built-in synthetic corpus) by running the
full seven-thread pipeline on the window simulator and prints the
misspelling report plus simulation statistics.

    python -m repro.apps.spellcheck paper.tex
    python -m repro.apps.spellcheck --scheme NS --windows 7 --stats
    python -m repro.apps.spellcheck --m 1024 --n 4   # low concurrency
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.spellcheck.corpus import (
    DICT_SIZE,
    generate_corpus,
    generate_dictionaries,
)
from repro.apps.spellcheck.delatex import delatex_thread
from repro.apps.spellcheck.io_threads import (
    file_sink_thread,
    file_source_thread,
)
from repro.apps.spellcheck.spell import spell1_thread, spell2_thread
from repro.runtime.kernel import Kernel


def check_document(document: bytes, dict1: bytes, dict2: bytes,
                   m: int, n: int, scheme: str, n_windows: int,
                   instrument=None, faults=None, audit: bool = False,
                   watchdog=None, crash_dir=None, crash_config=None):
    """Run the pipeline over arbitrary document bytes.

    ``instrument`` (optional) receives the kernel before spawning, so
    observability consumers can enable tracing (``kernel.events``) or
    arm the kernel's quantum observers.
    ``faults``/``audit``/``watchdog``/``crash_dir`` are the robustness
    knobs (see :mod:`repro.faults`); register verification is forced on
    under injection so a corrupting fault is detected, not absorbed.
    """
    if crash_dir is not None and crash_config is None:
        crash_config = {"workload": "spellcheck", "scheme": scheme,
                        "n_windows": n_windows, "m": m, "n": n,
                        "verify_registers": faults is not None,
                        "audit": audit, "watchdog": watchdog or 0}
    kernel = Kernel(n_windows=n_windows, scheme=scheme,
                    verify_registers=faults is not None,
                    faults=faults, audit=audit, watchdog=watchdog,
                    crash_dir=crash_dir, crash_config=crash_config)
    if instrument is not None:
        instrument(kernel)
    s1 = kernel.stream(m, "S1")
    s2 = kernel.stream(n, "S2")
    s3 = kernel.stream(n, "S3")
    s4 = kernel.stream(m, "S4")
    s5 = kernel.stream(m, "S5")
    s6 = kernel.stream(m, "S6")
    kernel.spawn(delatex_thread, s1, s2, name="T1.delatex")
    kernel.spawn(spell1_thread, s5, s2, s3, name="T2.spell1")
    kernel.spawn(spell2_thread, s6, s3, s4, name="T3.spell2")
    kernel.spawn(file_source_thread, s1, document, name="T4.input")
    kernel.spawn(file_sink_thread, s4, name="T5.output")
    kernel.spawn(file_source_thread, s5, dict1, name="T6.dict1")
    kernel.spawn(file_source_thread, s6, dict2, name="T7.dict2")
    result = kernel.run()
    return result, result.result_of("T5.output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.spellcheck",
        description="Multi-threaded spell checker on the register-"
                    "window simulator (the paper's Figure 10).")
    parser.add_argument("file", nargs="?",
                        help="LaTeX file to check (default: the "
                             "built-in synthetic corpus)")
    parser.add_argument("--scheme", default="SP",
                        choices=["NS", "SNP", "SP"])
    parser.add_argument("--windows", type=int, default=8)
    parser.add_argument("--m", type=int, default=16,
                        help="I/O stream buffer bytes (S1, S4-S6)")
    parser.add_argument("--n", type=int, default=16,
                        help="filter stream buffer bytes (S2, S3)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="synthetic corpus scale when no file given")
    parser.add_argument("--stats", action="store_true",
                        help="print simulation statistics")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON (open in "
                             "chrome://tracing or ui.perfetto.dev)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write a RunReport JSON document")
    parser.add_argument("--seed", type=int, default=1993,
                        help="seed for the fault plan's RNG")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-injection plan, e.g. "
                             "'register@3,store_fail@2' or 'random:4' "
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
                             "cycle-domain profiler) and print a summary")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the repro.metrics-snapshot JSON here "
                             "(implies --metrics)")
    args = parser.parse_args(argv)

    if args.file:
        with open(args.file, "rb") as handle:
            document = handle.read()
        dict_size = DICT_SIZE
    else:
        document = generate_corpus(scale=args.scale)
        dict_size = max(200, int(round(DICT_SIZE * args.scale)))
    dict1, dict2, __ = generate_dictionaries(size=dict_size)

    # --trace records the run's events for the Perfetto exporter, which
    # reads them after the run; --report arms the kernel's quantum
    # observers.  Both keep the batched loop.
    observers = {}
    instrument = None
    if args.trace or args.report:
        from repro.metrics.behavior import BehaviorTracker
        from repro.metrics.events import EventTally
        from repro.metrics.tracing import OccupancyTimeline

        def instrument(kernel):
            if args.trace:
                observers["recorder"] = kernel.enable_tracing()
            if args.report:
                observers.update(tracker=BehaviorTracker(),
                                 timeline=OccupancyTimeline(),
                                 tally=EventTally())
                kernel.tracker = observers["tracker"]
                kernel.timeline = observers["timeline"]
                kernel.tally = observers["tally"]

    telemetry = None
    if args.metrics or args.metrics_out:
        from repro.metrics.telemetry import RunTelemetry

        telemetry = RunTelemetry()
        trace_instrument = instrument

        def instrument(kernel, _inner=trace_instrument):
            if _inner is not None:
                _inner(kernel)
            telemetry.attach(kernel)

    injector = None
    if args.faults:
        from repro.faults import FaultInjector, plan_from_arg

        injector = FaultInjector(plan_from_arg(args.faults,
                                               seed=args.seed))
    crash_config = None
    if args.crash_dir is not None:
        # a file-fed document cannot be regenerated from the bundle, so
        # mark such runs unreplayable instead of replaying the wrong input
        crash_config = {
            "workload": "spellcheck" if not args.file else "spellcheck-file",
            "scheme": args.scheme, "n_windows": args.windows,
            "m": args.m, "n": args.n, "scale": args.scale,
            "verify_registers": injector is not None,
            "audit": args.audit, "watchdog": args.watchdog or 0,
        }
    try:
        result, report = check_document(
            document, dict1, dict2, args.m, args.n, args.scheme,
            args.windows, instrument=instrument, faults=injector,
            audit=args.audit, watchdog=args.watchdog,
            crash_dir=args.crash_dir, crash_config=crash_config)
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
        if injector is not None:
            print(injector.summary(), file=sys.stderr)
        return 1
    if injector is not None:
        print(injector.summary())
    metrics_snapshot = None
    if telemetry is not None:
        telemetry.finalize(result)
        metrics_snapshot = telemetry.snapshot(
            {"workload": "spellcheck", "scheme": args.scheme,
             "n_windows": args.windows, "m": args.m, "n": args.n})
    if args.trace:
        from repro.metrics.perfetto import PerfettoExporter

        exporter = PerfettoExporter()
        exporter.read(observers["recorder"])
        if telemetry is not None:
            exporter.add_telemetry(telemetry)
        exporter.write(args.trace)
        print("wrote Perfetto trace: %s" % args.trace)
    if args.report:
        from repro.metrics.report import build_run_report, write_report

        run_report = build_run_report(
            result,
            config={"scheme": args.scheme, "n_windows": args.windows,
                    "m": args.m, "n": args.n, "workload": "spellcheck"},
            tracker=observers["tracker"],
            timeline=observers["timeline"],
            tally=observers["tally"],
            metrics=metrics_snapshot)
        write_report(run_report, args.report)
        print("wrote RunReport: %s" % args.report)
    if args.metrics_out:
        from repro.metrics.telemetry import write_snapshot

        write_snapshot(metrics_snapshot, args.metrics_out)
        print("wrote metrics snapshot: %s" % args.metrics_out)
    words = [w for w in report.decode("ascii").split("\n") if w]
    print("%d possibly-misspelled words:" % len(words))
    for word in words:
        print("  " + word)
    if args.stats:
        c = result.counters
        print()
        print("scheme=%s windows=%d M=%d N=%d" % (
            args.scheme, args.windows, args.m, args.n))
        print("cycles=%d switches=%d saves=%d traps=%d/%d "
              "avg-switch=%.1f" % (
                  c.total_cycles, c.context_switches, c.saves,
                  c.overflow_traps, c.underflow_traps,
                  c.avg_switch_cycles))
    if args.metrics:
        print()
        print("telemetry (%d instruments, %d profile samples):" % (
            len(telemetry.registry), telemetry.profiler.samples))
        for h in telemetry.registry.instruments():
            if h.kind == "histogram" and h.count:
                print("  %-46s n=%-6d p50=%-6s p99=%-6s max=%s" % (
                    h.name + str(sorted(h.labels.items())),
                    h.count, h.percentile(50), h.percentile(99), h.max))
        ops = telemetry.profiler.op_cycles
        if ops:
            total = sum(ops.values()) or 1
            top = sorted(ops.items(), key=lambda kv: -kv[1])[:6]
            print("  cycles by op: " + ", ".join(
                "%s %.0f%%" % (op, 100.0 * n / total) for op, n in top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
