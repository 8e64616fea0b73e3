"""Static verifier for assembled guest programs.

Ties the front-end passes together over one program:

* structural checks from the CFG (control flow falling off the end of
  the program, unreachable instructions);
* window-depth facts from the per-function summaries (restores below
  the thread's base frame, unbalanced return paths, recursion making
  the depth input-dependent);
* stale-value hazards from the def-use pass (reads of registers never
  written in the current window);
* and — when the launch configuration is known — *predictions*: the
  abstract interpreter replays the program on the real window scheme,
  yielding the overflow/underflow trap counts, WIM wraparounds and
  per-thread maximum depth the real machine will observe for that
  window count and scheme.  When the program's control
  flow depends on values the abstract machine cannot know, predictions
  degrade from ``exact`` to ``bounded`` (CFG depth bounds only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.absmachine import (AbstractMachine, ImpreciseError,
                                       ProgramError)
from repro.analysis.cfg import ProgramCFG, build_cfg
from repro.analysis.defuse import analyze_program as defuse_program
from repro.analysis.depth import UNBOUNDED, compute_bounds
from repro.analysis.report import (ERROR, INFO, WARNING, AnalysisReport,
                                   Finding)
from repro.isa.assembler import Program, assemble


@dataclass(frozen=True)
class ThreadSpec:
    """One thread launch: entry label, arguments, display name."""

    entry: str = "start"
    args: Tuple[int, ...] = ()
    name: str = ""


@dataclass(frozen=True)
class ProgramCase:
    """A committed program plus its canonical launch configuration."""

    name: str
    source: str
    threads: Tuple[ThreadSpec, ...] = (ThreadSpec(),)
    pokes: Tuple[Tuple[int, int], ...] = ()
    max_steps: int = 3_000_000


def corpus_cases() -> List[ProgramCase]:
    """Every committed ISA program with its canonical run setup."""
    from repro.isa import programs as p
    return [
        ProgramCase("factorial", p.FACTORIAL),
        ProgramCase("factorial_retadd", p.FACTORIAL_RETADD),
        ProgramCase("fibonacci", p.FIBONACCI),
        ProgramCase("mutual", p.MUTUAL),
        ProgramCase("two_counters", p.TWO_COUNTERS,
                    threads=(ThreadSpec("start", (0, 512), "c1"),
                             ThreadSpec("start", (0, 768), "c2"))),
        ProgramCase("tak", p.TAK),
        ProgramCase("ackermann", p.ACKERMANN),
        ProgramCase("deep_sum", p.DEEP_SUM, pokes=((0, 40),)),
    ]


def _line(program: Program, index: int) -> int:
    if 0 <= index < len(program.instructions):
        return program.instructions[index].line or 0
    return 0


def _structural_findings(cfg: ProgramCFG, name: str) -> List[Finding]:
    program = cfg.program
    findings: List[Finding] = []
    for entry in sorted(cfg.functions):
        fn = cfg.functions[entry]
        for index in sorted(set(fn.falls_off)):
            findings.append(Finding(
                rule="fall-off-end", severity=ERROR,
                message="control flow in %r can run past the end of the "
                        "program" % fn.name,
                file=name, line=_line(program, min(
                    index, len(program.instructions) - 1)),
                hint="end every path with halt, ret/retl/retadd or a "
                     "branch"))
    if cfg.unreachable:
        first = cfg.unreachable[0]
        findings.append(Finding(
            rule="unreachable-code", severity=INFO,
            message="%d instruction(s) unreachable from any entry "
                    "(first at index %d)" % (len(cfg.unreachable), first),
            file=name, line=_line(program, first),
            hint="dead code, or an entry label missing from "
                 "thread_entries"))
    return findings


def _depth_findings(cfg: ProgramCFG, bounds, entries: List[int],
                    name: str) -> List[Finding]:
    program = cfg.program
    findings: List[Finding] = []
    entry_set = set(entries)
    for entry in sorted(cfg.functions):
        summary = bounds.summaries[entry]
        if entry in entry_set and summary.min_local < 0:
            index = next((i for i, net in summary.returns if net < 0),
                         entry)
            findings.append(Finding(
                rule="depth-underflow", severity=ERROR,
                message="thread entry %r can restore below its base "
                        "frame (min relative depth %d)"
                        % (summary.name, summary.min_local),
                file=name, line=_line(program, index),
                hint="a thread's root frame has depth 1; restoring past "
                     "it faults the machine"))
        elif entry not in entry_set and not summary.balanced:
            detail = ("joins at conflicting depths"
                      if summary.conflicts else
                      "net depth %+d on some return path"
                      % min(net for __, net in summary.returns))
            findings.append(Finding(
                rule="unbalanced-return", severity=WARNING,
                message="function %r: %s" % (summary.name, detail),
                file=name, line=_line(program, entry),
                hint="callers resume one window above where they "
                     "called; unbalanced save/restore corrupts the "
                     "caller's frame"))
    for entry in sorted(entry_set):
        if entry in cfg.functions \
                and bounds.thread_bound(entry) is UNBOUNDED:
            findings.append(Finding(
                rule="depth-unbounded", severity=INFO,
                message="thread entry %r reaches recursive or "
                        "unbalanced calls; its window depth is "
                        "input-dependent"
                        % bounds.summaries[entry].name,
                file=name, line=_line(program, entry),
                hint="trap-count predictions need the abstract "
                     "interpreter (exact mode) for this program"))
    return findings


def _predict(program: Program, threads: Sequence[ThreadSpec],
             pokes: Sequence[Tuple[int, int]], n_windows: int,
             scheme: str, max_steps: int) -> Dict[str, Any]:
    machine = AbstractMachine(program, n_windows=n_windows, scheme=scheme)
    for addr, value in pokes:
        machine.poke(addr, value)
    handles = [machine.add_thread(spec.entry, args=spec.args,
                                  name=spec.name)
               for spec in threads]
    exits = machine.run(max_steps=max_steps)
    c = machine.counters
    return {
        "mode": "exact",
        "counters": {
            "saves": c.saves, "restores": c.restores,
            "overflow_traps": c.overflow_traps,
            "underflow_traps": c.underflow_traps,
            "windows_spilled": c.windows_spilled,
            "windows_restored": c.windows_restored,
            "context_switches": c.context_switches,
            # keyed by (saved, restored) tuples; flattened for the JSON
            # report in a deterministic order
            "switch_transfer_hist": {
                "%d,%d" % key: count
                for key, count in sorted(c.switch_transfer_hist.items())},
            "compute_cycles": c.compute_cycles,
            "call_cycles": c.call_cycles,
            "trap_cycles": c.trap_cycles,
            "switch_cycles": c.switch_cycles,
            "total_cycles": c.total_cycles,
        },
        "wraparounds": machine.wraparounds,
        "exit_values": exits,
        # per-thread tallies come from the counters: the run-end fold
        # moved them there and zeroed the ThreadWindows fields
        "threads": [
            {"name": t.name, "max_depth": t.max_depth,
             "saves": c.per_thread_saves.get(t.tid, 0),
             "restores": c.per_thread_restores.get(t.tid, 0)}
            for t in handles],
    }


def verify_program(program: Union[Program, str], name: str = "<program>",
                   threads: Optional[Sequence[ThreadSpec]] = None,
                   thread_entries: Sequence[str] = ("start",),
                   pokes: Sequence[Tuple[int, int]] = (),
                   n_windows: int = 8, scheme: str = "SP",
                   predict: bool = True,
                   max_steps: int = 3_000_000) -> AnalysisReport:
    """Verify one program; returns the full report.

    ``threads`` (launch configuration) enables predictions; without it
    only the structural/depth/def-use passes run over
    ``thread_entries``.
    """
    report = AnalysisReport(tool="repro.analysis.verifier")
    if isinstance(program, str):
        try:
            program = assemble(program)
        except Exception as exc:
            report.add(Finding(
                rule="assembly-error", severity=ERROR,
                message="program does not assemble: %s" % exc, file=name,
                hint="fix the assembly error first"))
            return report
    if threads is not None:
        entries = [spec.entry for spec in threads]
    else:
        entries = list(thread_entries)
    for label in entries:
        if label not in program.labels:
            report.add(Finding(
                rule="missing-entry", severity=ERROR,
                message="thread entry label %r is not defined" % label,
                file=name,
                hint="add_thread(%r) will raise at launch" % label))
    defined = [label for label in dict.fromkeys(entries)
               if label in program.labels]
    cfg = build_cfg(program, thread_entries=defined)
    entry_indices = [program.labels[label] for label in defined]
    report.extend(_structural_findings(cfg, name))
    bounds = compute_bounds(cfg)
    report.extend(_depth_findings(cfg, bounds, entry_indices, name))
    report.extend(defuse_program(cfg, set(entry_indices),
                                 program_name=name))

    report.meta["program"] = name
    report.meta["functions"] = {
        cfg.functions[e].name: {
            "entry": e,
            "max_extra_depth": bounds.bounds.get(e),
            "balanced": bounds.summaries[e].balanced,
        } for e in sorted(cfg.functions)}
    report.meta["thread_depth_bounds"] = {
        label: bounds.thread_bound(program.labels[label])
        for label in defined}

    if predict and threads is not None and report.ok:
        try:
            report.meta["prediction"] = _predict(
                program, threads, pokes, n_windows, scheme, max_steps)
            # recursion was resolved exactly, so the depth note (the
            # predictions-may-degrade caveat) no longer applies
            report.findings = [f for f in report.findings
                               if f.rule != "depth-unbounded"]
        except ImpreciseError as exc:
            report.meta["prediction"] = {
                "mode": "bounded", "reason": str(exc),
                "thread_depth_bounds":
                    report.meta["thread_depth_bounds"]}
        except ProgramError as exc:
            report.add(Finding(
                rule="guest-fault", severity=ERROR,
                message="the program faults when run: %s" % exc,
                file=name,
                hint="the abstract interpreter hit a guaranteed "
                     "machine fault on the canonical launch"))
            report.meta["prediction"] = {"mode": "fault",
                                         "reason": str(exc)}
    report.sort()
    return report


def check_program(program: Union[Program, str], name: str = "<program>",
                  **kwargs) -> AnalysisReport:
    """Verify and raise :class:`AnalysisError` on any error finding."""
    report = verify_program(program, name=name, **kwargs)
    report.raise_if_errors("program %r" % name)
    return report


def verify_corpus(n_windows: int = 8, scheme: str = "SP",
                  predict: bool = True) -> AnalysisReport:
    """Verify every committed program under its canonical launch."""
    from repro.analysis.report import merge_reports
    reports = []
    for case in corpus_cases():
        reports.append(verify_program(
            case.source, name=case.name, threads=case.threads,
            pokes=case.pokes, n_windows=n_windows, scheme=scheme,
            predict=predict, max_steps=case.max_steps))
    merged = merge_reports("repro.analysis.verifier", *reports)
    merged.meta["programs"] = {
        r.meta["program"]: {
            "depth_bounds": r.meta.get("thread_depth_bounds"),
            "prediction_mode":
                (r.meta.get("prediction") or {}).get("mode"),
        } for r in reports}
    return merged
