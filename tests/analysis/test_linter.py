"""Hot-path invariant linter: the booby-trap suite.

Each test plants a deliberate violation in a synthetic tree shaped
like ``src/repro`` and proves the linter catches it — and that the
idiomatic guarded/slotted/deterministic variant passes.  The final
test is the acceptance gate: the real tree must lint clean.
"""

import pathlib

import pytest

from repro.analysis import lint_paths, lint_source

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _lint(tmp_path, rel, source):
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], root=tmp_path / "repro")


UNGUARDED_EMIT = """\
class Dispatcher:
    __slots__ = ("events", "_tracing")

    def step(self):
        self.events.emit("step", cycle=0)
"""

GUARDED_EMIT = """\
class Dispatcher:
    __slots__ = ("events", "_tracing")

    def step(self):
        if self._tracing:
            self.events.emit("step", cycle=0)
"""


class TestEmitGuard:
    def test_unguarded_emit_is_caught(self, tmp_path):
        report = _lint(tmp_path, "runtime/disp.py", UNGUARDED_EMIT)
        assert [f.rule for f in report.errors] == ["unguarded-emit"]

    def test_guarded_emit_passes(self, tmp_path):
        assert _lint(tmp_path, "runtime/disp.py", GUARDED_EMIT).clean

    def test_else_branch_is_not_guarded(self, tmp_path):
        source = GUARDED_EMIT + """\
        else:
            self.events.emit("quiet", cycle=0)
"""
        report = _lint(tmp_path, "runtime/disp.py", source)
        assert [f.rule for f in report.errors] == ["unguarded-emit"]


class TestTelemetryGuard:
    def test_unguarded_buffer_append(self, tmp_path):
        source = """\
class Probe:
    __slots__ = ("_tel_buf",)

    def sample(self, v):
        self._tel_buf.append(v)
"""
        report = _lint(tmp_path, "runtime/probe.py", source)
        assert [f.rule for f in report.errors] == ["unguarded-telemetry"]

    def test_none_guarded_buffer_passes(self, tmp_path):
        source = """\
class Probe:
    __slots__ = ("_tel_buf",)

    def sample(self, v):
        if self._tel_buf is not None:
            self._tel_buf.append(v)
"""
        assert _lint(tmp_path, "runtime/probe.py", source).clean

    def test_unguarded_record_append(self, tmp_path):
        source = """\
class Scheme:
    def trap(self, record):
        self.records.append(record)
"""
        report = _lint(tmp_path, "core/probe.py", source)
        assert [f.rule for f in report.errors] == ["unguarded-telemetry"]

    def test_none_guarded_record_append_passes(self, tmp_path):
        source = """\
class Scheme:
    def trap(self, record):
        if self.records is not None:
            self.records.append(record)
"""
        assert _lint(tmp_path, "core/probe.py", source).clean


class TestSlots:
    def test_missing_slots_in_hot_module(self, tmp_path):
        source = "class ThreadWindows:\n    def __init__(self):\n        self.depth = 0\n"
        report = _lint(tmp_path, "windows/thread_windows.py", source)
        assert [f.rule for f in report.findings] == ["missing-slots"]

    def test_slots_present_passes(self, tmp_path):
        source = ("class ThreadWindows:\n"
                  "    __slots__ = (\"depth\",)\n"
                  "    def __init__(self):\n"
                  "        self.depth = 0\n")
        assert _lint(tmp_path, "windows/thread_windows.py", source).clean

    def test_dataclass_slots_passes(self, tmp_path):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass(slots=True)\n"
                  "class BackingStore:\n"
                  "    depth: int = 0\n")
        assert _lint(tmp_path, "windows/backing_store.py", source).clean

    def test_exceptions_exempt(self, tmp_path):
        source = "class SpillError(Exception):\n    pass\n"
        assert _lint(tmp_path, "windows/thread_windows.py", source).clean

    def test_cold_modules_exempt(self, tmp_path):
        source = "class Report:\n    def __init__(self):\n        self.rows = []\n"
        assert _lint(tmp_path, "metrics/report.py", source).clean


class TestDeterminism:
    @pytest.mark.parametrize("stmt", [
        "import time\n\ndef stamp():\n    return time.time()\n",
        "from time import monotonic\n\ndef stamp():\n    return monotonic()\n",
        "import random\n\ndef pick():\n    return random.randint(0, 7)\n",
        "from random import random\n",
    ])
    def test_wallclock_in_runtime_is_caught(self, tmp_path, stmt):
        report = _lint(tmp_path, "runtime/clock.py", stmt)
        assert "wallclock-call" in [f.rule for f in report.findings]
        assert report.errors

    def test_seeded_random_instance_passes(self, tmp_path):
        source = ("import random\n\n"
                  "def make_rng(seed):\n"
                  "    return random.Random(seed)\n")
        assert _lint(tmp_path, "runtime/rng.py", source).clean

    def test_wallclock_outside_deterministic_dirs_passes(self, tmp_path):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        assert _lint(tmp_path, "metrics/wall.py", source).clean


def test_syntax_error_is_a_finding():
    findings = lint_source("def broken(:\n", "runtime/x.py", "x.py")
    assert [f.rule for f in findings] == ["syntax-error"]


def test_real_tree_is_clean():
    """Acceptance: ``python -m repro.analysis lint src/repro`` exits 0."""
    report = lint_paths([REPO_SRC], root=REPO_SRC)
    assert report.meta["files_checked"] > 40
    assert report.clean, [f.describe() for f in report.findings]
