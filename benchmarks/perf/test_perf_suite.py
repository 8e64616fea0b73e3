"""Smoke coverage for the tracked perf suite.

No throughput thresholds here — wall-clock assertions are flaky under
CI load.  The regression gate is the separate ``bench`` CI job running
``python -m benchmarks.perf --check`` against ``BASELINE_PATH``.
"""

import json

from benchmarks.perf.bench import (
    BASELINE_PATH,
    REPO_ROOT,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    bench_history_paths,
    check_against_baseline,
    latest_pure_baseline,
    load_baseline,
    render_history,
    run_suite,
)

TINY = dict(micro_scale=0.01, sweep_scale=0.01, repeats=1, quiet=True)


def test_run_suite_document_shape(tmp_path):
    doc = run_suite(**TINY)
    assert doc["schema"] == SCHEMA_NAME
    assert doc["version"] == SCHEMA_VERSION
    assert len(doc["micro"]) == 6  # 3 schemes x {8, 32} windows
    for point in doc["micro"]:
        assert point["steps"] > 0
        assert point["steps_per_sec"] > 0
    assert doc["spellcheck_steps_per_sec"] > 0
    assert doc["sweep"]["points"] == 18
    # round-trips through JSON (what --update commits)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert json.loads(path.read_text()) == doc


def test_check_flags_regressions_only():
    doc = run_suite(**TINY)
    assert check_against_baseline(doc, doc, tolerance=0.2) == []

    slower = json.loads(json.dumps(doc))
    slower["spellcheck_steps_per_sec"] = (
        doc["spellcheck_steps_per_sec"] * 0.5)
    failures = check_against_baseline(slower, doc, tolerance=0.2)
    assert any("spellcheck steps/sec" in f for f in failures)

    # a faster tree never fails the check
    faster = json.loads(json.dumps(doc))
    faster["spellcheck_steps_per_sec"] = (
        doc["spellcheck_steps_per_sec"] * 2.0)
    assert check_against_baseline(faster, doc, tolerance=0.2) == []


def test_check_gates_on_the_newest_pure_baseline_only():
    # BENCH_8 was measured on the deleted compiled extension: it stays
    # in the history, but --check gates the pure loop on BENCH_7
    assert BASELINE_PATH == REPO_ROOT / "BENCH_7.json"
    assert latest_pure_baseline() == BASELINE_PATH
    history = bench_history_paths()
    assert (8, REPO_ROOT / "BENCH_8.json") in history
    table = render_history([load_baseline(p) for __, p in history])
    row8 = [line for line in table.splitlines() if "BENCH_8" in line]
    assert len(row8) == 1 and "compiled (history)" in row8[0]


def test_latest_pure_baseline_skips_compiled_documents(tmp_path):
    def write(n, settings):
        doc = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
               "bench_id": "BENCH_%d" % n, "settings": settings}
        (tmp_path / ("BENCH_%d.json" % n)).write_text(json.dumps(doc))

    write(7, {})
    write(8, {"backend": "compiled"})
    assert latest_pure_baseline(tmp_path) == tmp_path / "BENCH_7.json"
    write(9, {})
    assert latest_pure_baseline(tmp_path) == tmp_path / "BENCH_9.json"
