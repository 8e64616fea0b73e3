"""The exporter (`python -m repro.metrics.export`) and dashboard
(`python -m repro.metrics.top`) CLIs, driven in-process."""

import json

import pytest

from repro.metrics.export import load_snapshot, main as export_main
from repro.metrics.report import to_json as report_to_json
from repro.metrics.telemetry import (
    MetricsRegistry,
    snapshot_to_json,
    write_snapshot,
)
from repro.metrics.top import main as top_main, render, update_history


def _snapshot(with_profile=True):
    reg = MetricsRegistry()
    reg.counter("sim_saves", help="saves").inc(12)
    reg.gauge("sim_steps").set(400)
    h = reg.histogram("sim_switch_cycles_hist", (8, 16, 32),
                      labels={"scheme": "SP"})
    for v in (8, 9, 40):
        h.observe(v)
    profile = None
    if with_profile:
        profile = {"every": 64, "check_steps": 32, "samples": 2,
                   "checks": 4, "ops": {"Tick": 60, "Switch": 40},
                   "stacks": {"T1;main": 70, "T2;main;helper": 30},
                   "occupancy": [[64, 3], [128, 5]]}
    return reg.snapshot(meta={"scheme": "SP", "n_windows": 8},
                        profile=profile)


class TestExportCLI:
    def test_prometheus_default(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        write_snapshot(_snapshot(), path)
        assert export_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert 'repro_sim_saves{n_windows="8",scheme="SP"} 12' in out
        assert 'repro_sim_switch_cycles_hist_bucket' in out

    def test_flamegraph_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        flame = tmp_path / "flame.json"
        write_snapshot(_snapshot(), path)
        assert export_main([str(path), "--flamegraph", str(flame)]) == 0
        tree = json.loads(flame.read_text())
        assert tree["name"] == "all"
        assert tree["value"] == 100
        names = {c["name"] for c in tree["children"]}
        assert names == {"T1", "T2"}

    def test_collapsed_stacks(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        write_snapshot(_snapshot(), path)
        assert export_main([str(path), "--collapsed"]) == 0
        out = capsys.readouterr().out
        assert "T1;main 70" in out
        assert "T2;main;helper 30" in out

    def test_flamegraph_without_profile_fails(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        write_snapshot(_snapshot(with_profile=False), path)
        assert export_main([str(path), "--flamegraph"]) == 1
        assert "no profiler stacks" in capsys.readouterr().err

    def test_reads_snapshot_embedded_in_run_report(self, tmp_path):
        snap = _snapshot()
        report = {"schema": "repro.run-report", "version": 1,
                  "metrics": snap}
        path = tmp_path / "report.json"
        path.write_text(report_to_json(report))
        assert load_snapshot(path) == snap

    def test_report_without_metrics_section_fails(self, tmp_path,
                                                  capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "repro.run-report",
                                    "version": 1}))
        assert export_main([str(path)]) == 1
        assert "no embedded metrics" in capsys.readouterr().err

    def test_unrecognised_schema_fails(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something.else"}))
        assert export_main([str(path)]) == 1


class TestTopCLI:
    def test_once_renders_everything(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        write_snapshot(_snapshot(), path)
        assert top_main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro.metrics-snapshot v1" in out
        assert "scheme=SP" in out
        assert "sim_saves" in out
        assert "sim_switch_cycles_hist" in out
        assert "cycles by op" in out
        assert "Tick 60%" in out

    def test_once_missing_file_fails(self, tmp_path, capsys):
        assert top_main([str(tmp_path / "nope.json"), "--once"]) == 1

    @pytest.mark.parametrize("interval", ["-1", "0", "nan", "inf"])
    def test_interval_must_be_positive(self, tmp_path, capsys, interval):
        """A bad refresh period is a usage error before any read: a
        negative one used to end in a ``time.sleep`` traceback once the
        file was missing, and zero busy-polled."""
        code = top_main([str(tmp_path / "nope.json"),
                         "--interval", interval])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--interval" in lines[0]

    def test_once_invalid_document_fails(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        assert top_main([str(path), "--once"]) == 1

    def test_history_tracks_ratio_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("engine_worker_utilization").set(0.5)
        reg.gauge("engine_cache_hit_ratio").set(0.25)
        snap = reg.snapshot(meta={"kind": "engine"})
        history = {}
        update_history(history, snap, 1)
        reg.gauge("engine_worker_utilization").set(0.75)
        update_history(history, reg.snapshot(meta={"kind": "engine"}), 2)
        assert history["engine_worker_utilization"] == [(1.0, 0.5),
                                                        (2.0, 0.75)]
        text = render(snap, history)
        assert "trend (per snapshot generation)" in text

    def test_render_is_deterministic(self):
        snap = _snapshot()
        assert render(snap) == render(snap)
        assert snapshot_to_json(snap)  # still a valid document
