"""RunReport emission.

Each benchmark session produces one versioned RunReport JSON per
scheme through the sweep engine (serial, uncached, so the benchmark
always measures a fresh run) and writes it atomically into
``benchmarks/results/``, where ``git diff`` shows any drift of the
cycles, traps and switch-cost percentiles.
"""

import json

import pytest

from benchmarks.conftest import bench_scale
from repro.experiments.engine import Engine, PointSpec
from repro.metrics.report import from_json, to_json, write_report

SCHEMES = ("NS", "SNP", "SP")


@pytest.fixture(scope="module", params=SCHEMES)
def scheme_report(request):
    engine = Engine(jobs=1, cache_dir=None)
    [report] = engine.run_reports([PointSpec(
        scheme=request.param, n_windows=8, concurrency="high",
        granularity="coarse", scale=bench_scale())])
    assert engine.last_stats.executed == 1
    return request.param, report


def test_emit_run_reports(benchmark, results_dir, scheme_report):
    scheme, report = scheme_report
    path = results_dir / ("run_report_%s_w8.json" % scheme)
    benchmark.pedantic(lambda: write_report(report, str(path)),
                       rounds=1, iterations=1)
    assert from_json(path.read_text()) == json.loads(path.read_text())
    assert path.read_text() == to_json(report)
    leftovers = list(results_dir.glob(path.name + ".*.tmp"))
    assert not leftovers, "atomic write left temp files: %s" % leftovers


class TestRunReportIntegrity:
    def test_totals_consistent(self, scheme_report):
        __, report = scheme_report
        c = report["counters"]
        assert c["total_cycles"] == (c["compute_cycles"]
                                     + c["call_cycles"] + c["trap_cycles"]
                                     + c["switch_cycles"])
        assert sum(c["per_thread_saves"].values()) == c["saves"]
        assert sum(c["per_thread_restores"].values()) == c["restores"]

    def test_event_stream_matches_counters(self, scheme_report):
        __, report = scheme_report
        by_kind = report["events"]["by_kind"]
        c = report["counters"]
        assert by_kind["save"] == c["saves"]
        assert by_kind["restore"] == c["restores"]
        assert by_kind["switch"] == c["context_switches"]
        assert by_kind.get("overflow", 0) == c["overflow_traps"]
        assert by_kind.get("underflow", 0) == c["underflow_traps"]

    def test_switch_cost_stats_present(self, scheme_report):
        __, report = scheme_report
        stats = report["events"]["switch_cost"]
        assert stats["count"] == report["counters"]["context_switches"]
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
