"""The pair gate's decision, on canned suite result lines (no suite
runs): pass, fail past the bound and the spread, unresolved, and a
larger share of failed operations."""

import json
from pathlib import Path

from benchmarks.perf.pairs import decide, render, result_of

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
ONE = dict(BENCH, workloads=[{"name": "w"}])
#: a parent spread of about 4% around each median
SPREAD = [0.96, 0.98, 1.0, 1.02, 1.04, 0.97, 0.99, 1.01, 1.03, 1.0]


def line(op_ms, setup_s=1.0, rss=50.0, failed=0, attempted=100):
    """A suite run's standard output: metric lines, then the result."""
    return "w op_ms %r ms\n%s\n" % (op_ms, json.dumps({
        "correct": not failed, "attempted": attempted, "failed": failed,
        "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}))


def verdicts(parent_lines, change_lines):
    runs = {"parent": {"w": [result_of(s) for s in parent_lines]},
            "change": {"w": [result_of(s) for s in change_lines]}}
    verdict = decide(ONE, runs)
    render(verdict)  # every shape of row renders
    return verdict, {r["metric"]: r["verdict"] for r in verdict["rows"]}


def test_same_tree_passes():
    lines = [line(100 * k) for k in SPREAD]
    verdict, by_metric = verdicts(lines, lines[::-1])
    assert verdict["ok"]
    assert by_metric == {"op_ms": "ok", "setup_s": "ok", "peak_rss_mb": "ok"}


def test_slowdown_past_bound_and_spread_fails():
    verdict, by_metric = verdicts([line(100 * k) for k in SPREAD],
                                  [line(130 * k) for k in SPREAD])
    assert not verdict["ok"]
    assert by_metric["op_ms"] == "fail"
    assert by_metric["setup_s"] == "ok"
    row = verdict["rows"][0]
    assert round(row["worse"], 2) == 0.30 and row["lost"] == 10


def test_slowdown_within_bound_passes():
    verdict, by_metric = verdicts([line(100 * k) for k in SPREAD],
                                  [line(115 * k) for k in SPREAD])
    assert verdict["ok"] and by_metric["op_ms"] == "ok"


def test_spread_wider_than_bound_is_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    verdict, by_metric = verdicts([line(100 * k) for k in wide],
                                  [line(125 * k) for k in wide])
    # worse by 25% > the 20% bound, but not by more than the spread
    assert by_metric["op_ms"] == "unresolved"
    assert verdict["ok"]
    # a change past the spread too still fails
    verdict, by_metric = verdicts([line(100 * k) for k in wide],
                                  [line(200 * k) for k in wide])
    assert by_metric["op_ms"] == "fail" and not verdict["ok"]
    # and one that reads better in every run is resolved
    verdict, by_metric = verdicts([line(100 * k) for k in wide],
                                  [line(50) for k in wide])
    assert by_metric["op_ms"] == "ok"


def test_larger_failed_share_fails():
    lines = [line(100 * k) for k in SPREAD]
    verdict, by_metric = verdicts(lines, lines[:-1] + [line(100, failed=1)])
    assert set(by_metric.values()) == {"ok"}
    assert not verdict["ok"]
    assert verdict["failed_share"]["w"]["change"] == [1, 1000]
    # an equal share is no failure
    verdict, __ = verdicts(lines[:-1] + [line(100, failed=1)],
                           lines[:-1] + [line(100, failed=1)])
    assert verdict["ok"]


def test_a_run_that_printed_no_result_counts_as_failed():
    assert result_of("Traceback ...\n") is None
    assert result_of("") is None
    crashed = {"attempted": 1, "failed": 1, "metrics": {}}
    runs = {"parent": {"w": [result_of(line(100))]},
            "change": {"w": [crashed]}}
    verdict = decide(ONE, runs)
    assert not verdict["ok"]
    assert {r["verdict"] for r in verdict["rows"]} == {"fail"}
    # a crash lines up with its pair: the later pairs still compare
    ok = [result_of(line(100 * k)) for k in SPREAD]
    runs = {"parent": {"w": ok}, "change": {"w": [crashed] + ok[1:]}}
    row = decide(ONE, runs)["rows"][0]
    assert row["pairs"] == 9 and row["lost"] == 0
    # every run crashed on both sides: equal failed shares, no metric
    # to compare, so nothing fails
    runs = {"parent": {"w": [crashed] * 3}, "change": {"w": [crashed] * 3}}
    verdict = decide(ONE, runs)
    assert verdict["ok"]
    assert {r["verdict"] for r in verdict["rows"]} == {"unresolved"}
    render(verdict)
