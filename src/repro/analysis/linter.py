"""Hot-path invariant linter over the simulator's own source.

The simulator keeps its inner loops fast by convention, not by
construction: trace emission must be gated behind a cached ``_tracing``
boolean so the untraced run pays one attribute load, telemetry buffers
and the schemes' record list are ``None`` unless armed, per-step
objects carry
``__slots__``, and the cycle-domain modules never read the wall clock
or the process-global RNG (determinism is what makes every run — and
every crash bundle — replayable).  Each of those conventions is an AST
pattern, so this linter enforces them:

* ``unguarded-emit`` — an ``events.emit(...)`` site not dominated by a
  recognized tracing guard (``if self._tracing:``, a cached
  ``events_on`` local, or an ``events is not None and events.active``
  test);
* ``unguarded-telemetry`` — a ``*_tel_*.append(...)`` or
  ``records.append(...)`` site not dominated by an ``... is not None``
  test naming the buffer;
* ``missing-slots`` — a class in one of the hot per-step modules with
  neither ``__slots__`` nor ``@dataclass(slots=True)`` (error classes
  are exempt: they are built on the cold path);
* ``wallclock-call`` — a ``time.*`` / ``random.*`` / ``datetime`` call
  or import-from in a deterministic module (``runtime/``, ``windows/``,
  ``core/``, ``isa/``); seeded ``random.Random(...)`` instances are
  allowed, the module-global RNG is not.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import ERROR, WARNING, AnalysisReport, Finding

#: modules whose classes are built or touched once per simulated step —
#: attribute storage must be slotted (paths relative to the package root)
HOT_SLOT_MODULES = frozenset({
    "runtime/ops.py",
    "runtime/thread.py",
    "runtime/streams.py",
    "runtime/scheduler.py",
    "windows/window_file.py",
    "windows/thread_windows.py",
    "windows/backing_store.py",
    "windows/occupancy.py",
    "isa/instructions.py",
})

#: top-level package directories that live in the cycle domain: no
#: wall-clock reads, no process-global randomness
DETERMINISTIC_DIRS = frozenset({"runtime", "windows", "core", "isa"})

_TIME_FUNCS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "thread_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
    "sleep",
})
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


def _module_rel(path: Path, root: Optional[Path]) -> Tuple[str, ...]:
    """Path components of ``path`` relative to the package root.

    Strips a leading ``src/`` and everything up to (and including) the
    last ``repro`` component, so both the real tree and booby-trap
    trees laid out as ``<tmp>/runtime/bad.py`` classify the same way.
    """
    parts: Tuple[str, ...]
    if root is not None:
        try:
            parts = path.resolve().relative_to(root.resolve()).parts
        except ValueError:
            parts = path.parts
    else:
        parts = path.parts
    if "repro" in parts:
        parts = parts[len(parts) - parts[::-1].index("repro"):]
    elif parts and parts[0] == "src":
        parts = parts[1:]
    return parts


class _Linter(ast.NodeVisitor):
    """One file's walk.  ``self.guards`` holds the tests of the ``If``
    statements whose *body* encloses the current node — the dominating
    conditions an emit/telemetry site may rely on."""

    def __init__(self, rel: Tuple[str, ...], display: str):
        self.rel = rel
        self.display = display
        self.rel_posix = "/".join(rel)
        self.deterministic = bool(rel) and rel[0] in DETERMINISTIC_DIRS
        self.hot_slots = self.rel_posix in HOT_SLOT_MODULES
        self.guards: List[ast.expr] = []
        self.findings: List[Finding] = []

    def _add(self, rule: str, severity: str, message: str, line: int,
             hint: str) -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, message=message,
            file=self.display, line=line, hint=hint))

    # -- guard tracking ------------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self.guards.append(node.test)
        for child in node.body:
            self.visit(child)
        self.guards.pop()
        for child in node.orelse:
            self.visit(child)

    # -- rule: missing-slots -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_slots and not self._is_exempt_class(node) \
                and not self._has_slots(node):
            self._add(
                "missing-slots", WARNING,
                "class %r in hot module %s has no __slots__"
                % (node.name, self.rel_posix), node.lineno,
                "add __slots__ = (...) or @dataclass(slots=True); "
                "instances are created on the per-step path")
        self.generic_visit(node)

    @staticmethod
    def _is_exempt_class(node: ast.ClassDef) -> bool:
        if node.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else "")
            if name.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: Sequence[ast.expr] = ()
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = (stmt.target,)
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = decorator.func
                label = name.attr if isinstance(name, ast.Attribute) else (
                    name.id if isinstance(name, ast.Name) else "")
                if label == "dataclass":
                    for kw in decorator.keywords:
                        if (kw.arg == "slots"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True):
                            return True
        return False

    # -- rule: wallclock-call ------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.deterministic and node.module in ("time", "random"):
            names = [alias.name for alias in node.names
                     if alias.name not in _RANDOM_ALLOWED]
            if names:
                self._add(
                    "wallclock-call", ERROR,
                    "deterministic module imports %s from %r"
                    % (", ".join(names), node.module), node.lineno,
                    "cycle-domain code must not read the wall clock or "
                    "the process-global RNG; thread timing through the "
                    "CostModel or a seeded random.Random")
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        base = value.id if isinstance(value, ast.Name) else (
            value.attr if isinstance(value, ast.Attribute) else "")
        bad = (
            (base == "time" and func.attr in _TIME_FUNCS)
            or (base == "random" and func.attr not in _RANDOM_ALLOWED)
            or (base == "datetime" and func.attr in _DATETIME_FUNCS))
        if bad:
            self._add(
                "wallclock-call", ERROR,
                "deterministic module calls %s.%s()" % (base, func.attr),
                node.lineno,
                "cycle-domain code must be replay-identical; take cycle "
                "counts from the CostModel and randomness from a seeded "
                "random.Random")

    # -- rules: unguarded-emit / unguarded-telemetry -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic:
            self._check_wallclock(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "emit" and self._is_event_receiver(func.value):
                if not any(self._is_trace_guard(g) for g in self.guards):
                    self._add(
                        "unguarded-emit", ERROR,
                        "events.emit() call not guarded by a tracing "
                        "check", node.lineno,
                        "wrap in `if self._tracing:` (or cache "
                        "`events_on = self._tracing`); the untraced hot "
                        "path must not build TraceEvent kwargs")
            elif func.attr == "append" and self._mentions_sink(func.value):
                if not any(self._is_sink_guard(g) for g in self.guards):
                    self._add(
                        "unguarded-telemetry", ERROR,
                        "telemetry buffer or record list append not "
                        "guarded by an `is not None` check", node.lineno,
                        "both are None unless armed; guard with `if "
                        "self._tel_x is not None:` or `if self.records "
                        "is not None:`")
        self.generic_visit(node)

    @staticmethod
    def _is_event_receiver(value: ast.expr) -> bool:
        """True for ``self.events`` / ``events`` / ``x.events`` — the
        trace recorder attribute spelled the way the codebase spells
        it."""
        if isinstance(value, ast.Attribute):
            return value.attr == "events"
        if isinstance(value, ast.Name):
            return value.id == "events"
        return False

    @staticmethod
    def _is_trace_guard(test: ast.expr) -> bool:
        saw_not_none = False
        saw_events = False
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute):
                if "_tracing" in sub.attr or sub.attr == "active":
                    return True
                if sub.attr == "events":
                    saw_events = True
            elif isinstance(sub, ast.Name):
                if "tracing" in sub.id or sub.id == "events_on":
                    return True
                if sub.id == "events":
                    saw_events = True
            elif isinstance(sub, ast.Compare):
                if any(isinstance(op, ast.IsNot) for op in sub.ops) and any(
                        isinstance(c, ast.Constant) and c.value is None
                        for c in sub.comparators):
                    saw_not_none = True
        return saw_events and saw_not_none

    @staticmethod
    def _mentions_sink(value: ast.expr) -> bool:
        """True when ``value`` names a sink that is None unless armed:
        a telemetry buffer (``*_tel_*``) or the record list
        (``records``)."""
        for sub in ast.walk(value):
            name = (sub.attr if isinstance(sub, ast.Attribute)
                    else sub.id if isinstance(sub, ast.Name) else "")
            if "_tel_" in name or name == "records":
                return True
        return False

    @classmethod
    def _is_sink_guard(cls, test: ast.expr) -> bool:
        if not cls._mentions_sink(test):
            return False
        for sub in ast.walk(test):
            if isinstance(sub, ast.Compare):
                if any(isinstance(op, ast.IsNot) for op in sub.ops) and any(
                        isinstance(c, ast.Constant) and c.value is None
                        for c in sub.comparators):
                    return True
        return False


def lint_source(source: str, rel: Tuple[str, ...],
                display: str) -> List[Finding]:
    """Lint one module's source; ``rel`` classifies it (see rules)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(
            rule="syntax-error", severity=ERROR,
            message="cannot parse: %s" % exc, file=display,
            line=exc.lineno or 0, hint="fix the syntax error first")]
    visitor = _Linter(rel, display)
    visitor.visit(tree)
    return visitor.findings


def lint_paths(paths: Iterable[Union[str, Path]],
               root: Optional[Union[str, Path]] = None) -> AnalysisReport:
    """Lint files and/or directory trees into one report.

    ``root`` anchors module classification (defaults to the first
    directory argument, or the file's own parent) so booby-trap trees
    under a tmp dir classify like the real package.
    """
    report = AnalysisReport(tool="repro.analysis.linter")
    root_path = Path(root) if root is not None else None
    files: List[Tuple[Path, Optional[Path]]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            anchor = root_path if root_path is not None else path
            files.extend((f, anchor) for f in sorted(path.rglob("*.py")))
        else:
            anchor = root_path if root_path is not None else path.parent
            files.append((path, anchor))
    checked = 0
    for path, anchor in files:
        rel = _module_rel(path, anchor)
        display = "/".join(rel) if rel else str(path)
        try:
            source = path.read_text()
        except OSError as exc:
            report.add(Finding(
                rule="unreadable", severity=ERROR,
                message="cannot read: %s" % exc, file=str(path)))
            continue
        checked += 1
        report.extend(lint_source(source, rel, display))
    report.meta["files_checked"] = checked
    report.sort()
    return report
