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

from repro.apps.spellcheck.pipeline import SpellConfig, run_spellchecker
from repro.metrics.trace import CliRun, add_run_flags


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
    add_run_flags(parser)
    args = parser.parse_args(argv)

    # --trace records the run's events for the Perfetto exporter, which
    # reads them after the run; --report arms a RunObserver.  Both keep
    # the batched loop.
    cli = CliRun(args, perfetto=args.trace, observe=bool(args.report))
    corpus = None
    scale = args.scale
    if args.file:
        try:
            with open(args.file, "rb") as handle:
                corpus = handle.read()
        except OSError as exc:
            print("error: cannot read %s: %s"
                  % (args.file, exc.strerror or exc), file=sys.stderr)
            return 2
        scale = 1.0  # a real document is checked against full dictionaries

    done = cli.run(run_spellchecker, args.windows, args.scheme,
                   SpellConfig(m=args.m, n=args.n, scale=scale,
                               seed=args.seed),
                   corpus=corpus, verify_registers=cli.injector is not None,
                   audit=args.audit, watchdog=args.watchdog)
    if done is None:
        return 1
    result, report = done
    cli.finish(result, {"workload": "spellcheck", "scheme": args.scheme,
                        "n_windows": args.windows, "m": args.m,
                        "n": args.n})
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
        telemetry = cli.telemetry
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
