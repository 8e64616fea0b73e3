"""``python -m repro.analysis`` — check programs/workloads, lint source.

Exit codes: 0 when every report is clean, 1 when any finding survives,
2 on usage errors.  CI runs both commands and fails on any finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.analysis.linter import lint_paths
from repro.analysis.report import AnalysisReport, merge_reports
from repro.analysis.topology import analyze_workload_config
from repro.analysis.verifier import ThreadSpec, verify_corpus, verify_program
from repro.core import make_scheme
from repro.windows.cpu import WindowCPU
from repro.windows.errors import WindowGeometryError


def _emit(report: AnalysisReport, as_json: bool) -> int:
    if as_json:
        print(report.to_json(indent=2))
    else:
        for finding in report.findings:
            print(finding.describe())
        print(report.summary())
    return 0 if report.clean else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    report = lint_paths(args.paths, root=args.root)
    return _emit(report, args.json)


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        # the real constructors reject a window count below the
        # scheme's minimum: a usage error, not a finding
        make_scheme(args.scheme, WindowCPU(args.windows))
    except WindowGeometryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    reports: List[AnalysisReport] = []
    if args.corpus or not (args.files or args.workloads):
        reports.append(verify_corpus(
            n_windows=args.windows, scheme=args.scheme,
            predict=not args.no_predict))
    for path in args.files:
        try:
            source = open(path).read()
        except OSError as exc:
            print("error: cannot read %s: %s" % (path, exc),
                  file=sys.stderr)
            return 2
        threads = ([ThreadSpec(entry) for entry in args.entry]
                   if args.entry else [ThreadSpec()])
        reports.append(verify_program(
            source, name=path, threads=threads,
            n_windows=args.windows, scheme=args.scheme,
            predict=not args.no_predict))
    if args.workloads:
        from repro.faults.workloads import WORKLOADS
        for name in sorted(WORKLOADS):
            workload_report = analyze_workload_config(
                {"workload": name}, pedantic=args.pedantic)
            workload_report.meta = {"workload": name,
                                    **workload_report.meta}
            reports.append(workload_report)
    merged = merge_reports("repro.analysis", *reports)
    merged.meta["reports"] = [r.meta for r in reports]
    return _emit(merged, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static analysis for guest programs, stream "
                    "workloads and the simulator's own hot paths")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="verify guest programs / workload topologies")
    check.add_argument("files", nargs="*",
                       help="assembly source files (default: the "
                            "committed program corpus)")
    check.add_argument("--corpus", action="store_true",
                       help="verify the committed program corpus")
    check.add_argument("--workloads", action="store_true",
                       help="analyze every registered stream workload")
    check.add_argument("--scheme", default="SP",
                       choices=("NS", "SNP", "SP"))
    check.add_argument("--windows", type=int, default=8)
    check.add_argument("--entry", action="append", default=[],
                       help="thread entry label (repeatable; one "
                            "thread per flag)")
    check.add_argument("--no-predict", action="store_true",
                       help="skip abstract interpretation (structural "
                            "passes only)")
    check.add_argument("--pedantic", action="store_true",
                       help="report candidate (not just guaranteed) "
                            "workload hazards as findings")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    lint = sub.add_parser(
        "lint", help="hot-path invariant lint over simulator source")
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint")
    lint.add_argument("--root", default=None,
                      help="package root for module classification")
    lint.add_argument("--json", action="store_true")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
