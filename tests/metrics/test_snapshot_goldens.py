"""The ``repro.metrics-snapshot`` documents pinned byte for byte.

``--metrics-out`` on the spell checker and on the trace CLI writes the
run's telemetry snapshot: the exact counters, the switch/trap/occupancy
histograms the schemes' buffers feed, and the cycle-domain profile.
An ISA ``Machine`` run with telemetry attached adds the per-opcode
profile, and ``python -m repro.metrics.export --prom`` renders one of
the documents as Prometheus text.  Every file is compared whole.

Regenerate (only when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/metrics/test_snapshot_goldens.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.apps.spellcheck.__main__ import main as spellcheck_main
from repro.isa import Machine, assemble
from repro.isa.programs import TWO_COUNTERS
from repro.metrics.export import main as export_main
from repro.metrics.telemetry import RunTelemetry, snapshot_to_json
from repro.metrics.trace import main as trace_main
from tests.support.goldens import assert_golden
from tests.support.profiling import with_interval

GOLDENS = Path(__file__).parent / "goldens" / "snapshots"

#: label -> spell checker CLI arguments
SPELLCHECK_POINTS = {
    "spellcheck-%s-w8" % scheme: ["--scale", "0.02", "--scheme", scheme,
                                  "--windows", "8"]
    for scheme in ("NS", "SNP", "SP")}

#: label -> trace CLI arguments
TRACE_POINTS = {
    "trace-spellcheck-SNP-w5": ["--scale", "0.02", "--concurrency", "high",
                                "--granularity", "fine", "--scheme", "SNP",
                                "--windows", "5"],
    "trace-pingpong": ["--app", "pingpong"],
}


def _snapshot_text(main, argv, path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--metrics-out", str(path)]) == 0
    return path.read_text()


@pytest.mark.parametrize("label", sorted(SPELLCHECK_POINTS))
def test_spellcheck_snapshot_matches_golden(label, tmp_path):
    text = _snapshot_text(spellcheck_main, SPELLCHECK_POINTS[label],
                          tmp_path / "snap.json")
    assert_golden(GOLDENS / ("%s.json" % label), text)


@pytest.mark.parametrize("label", sorted(TRACE_POINTS))
def test_trace_snapshot_matches_golden(label, tmp_path):
    text = _snapshot_text(trace_main, TRACE_POINTS[label],
                          tmp_path / "snap.json")
    assert_golden(GOLDENS / ("%s.json" % label), text)


def test_machine_snapshot_matches_golden():
    """Two yielding ISA threads on four windows: switches, traps and a
    per-opcode profile."""
    machine = Machine(assemble(TWO_COUNTERS), n_windows=4, scheme="SP")
    telemetry = with_interval(RunTelemetry(), 64).attach(machine)
    machine.add_thread("start", args=(0, 512), name="c1")
    machine.add_thread("start", args=(0, 768), name="c2")
    assert machine.run() == {"c1": 8, "c2": 8}
    snap = telemetry.snapshot({"workload": "two-counters", "scheme": "SP",
                               "n_windows": 4})
    assert snap["profile"]["ops"], "no per-opcode attribution"
    assert_golden(GOLDENS / "machine-two-counters-SP-w4.json",
                  snapshot_to_json(snap) + "\n")


def test_prometheus_export_matches_golden(tmp_path):
    path = tmp_path / "snap.json"
    _snapshot_text(spellcheck_main, SPELLCHECK_POINTS["spellcheck-SNP-w8"],
                   path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert export_main([str(path), "--prom"]) == 0
    assert_golden(GOLDENS / "spellcheck-SNP-w8.prom", out.getvalue())
