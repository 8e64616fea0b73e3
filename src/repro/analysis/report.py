"""The ``repro.analysis-report v1`` finding schema.

Every analysis front — the guest-program verifier, the stream-topology
pass and the hot-path linter — reports through the same structured
:class:`Finding`/:class:`AnalysisReport` pair, so the CLI, the CI job,
the fuzzer's pre-validation verdicts and the pre-run gates all consume
one JSON shape: schema name + version, then a list of findings with a
``file:line`` location, a severity, and a fix hint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError

SCHEMA = "repro.analysis-report"
VERSION = 1

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: rank used for sorting (most severe first) and gating
_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}
SEVERITIES = tuple(_SEVERITY_RANK)


class AnalysisError(ReproError):
    """A pre-run gate refused the program/workload/tree.

    Raised by :meth:`AnalysisReport.raise_if_errors` (which
    ``check_program``, a caller's pre-run gate and the fuzzer's
    pre-validation call) when static analysis finds an error-severity
    defect.  Carries the offending report so callers can
    render or serialise the findings.
    """

    def __init__(self, message: str = "",
                 report: Optional["AnalysisReport"] = None, **context: Any):
        super().__init__(message, **context)
        self.report = report


@dataclass
class Finding:
    """One defect: what rule fired, where, how bad, and how to fix it."""

    rule: str
    severity: str
    message: str
    file: str = ""
    line: int = 0
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError("bad severity %r (expected one of %s)"
                             % (self.severity, ", ".join(SEVERITIES)))

    @property
    def location(self) -> str:
        return "%s:%d" % (self.file or "<unknown>", self.line)

    def describe(self) -> str:
        text = "%s: %s: [%s] %s" % (self.location, self.severity,
                                    self.rule, self.message)
        if self.hint:
            text += " (hint: %s)" % self.hint
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.rule, "severity": self.severity,
                "message": self.message, "file": self.file,
                "line": self.line, "hint": self.hint}


@dataclass
class AnalysisReport:
    """A tool run's findings plus machine-readable extras (``meta``)."""

    tool: str
    findings: List[Finding] = field(default_factory=list)
    #: structured tool-specific payload (predictions, graph summary...)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (_SEVERITY_RANK[f.severity],
                                          f.file, f.line, f.rule))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        """No error-severity findings (the gate criterion)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No findings at all (the CI criterion)."""
        return not self.findings

    def count(self, severity: str) -> int:
        return sum(f.severity == severity for f in self.findings)

    def summary(self) -> str:
        return ("%s: %d finding(s) — %d error, %d warning, %d info"
                % (self.tool, len(self.findings), self.count(ERROR),
                   self.count(WARNING), self.count(INFO)))

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": SCHEMA, "version": VERSION, "tool": self.tool,
                "findings": [f.to_dict() for f in self.findings],
                "meta": self.meta}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def raise_if_errors(self, what: str) -> None:
        """The gate: raise :class:`AnalysisError` on any error finding."""
        errors = self.errors
        if errors:
            raise AnalysisError(
                "static analysis rejected %s: %s" % (what,
                                                     errors[0].describe()),
                report=self, findings=len(errors))


def merge_reports(tool: str, *reports: AnalysisReport) -> AnalysisReport:
    """Combine reports (e.g. verifier + topology) into one document."""
    merged = AnalysisReport(tool=tool)
    for report in reports:
        merged.extend(report.findings)
        if report.meta:
            merged.meta[report.tool] = report.meta
    merged.sort()
    return merged
