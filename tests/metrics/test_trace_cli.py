"""The trace CLI (``python -m repro.metrics.trace``)."""

import json

import pytest

from repro.metrics.report import from_json
from repro.metrics.trace import main


class TestTraceCli:
    def test_default_summary(self, capsys):
        assert main(["--app", "pingpong", "--rounds", "30"]) == 0
        out = capsys.readouterr().out
        assert "per-thread cycle attribution" in out
        assert "context-switch cost (cycles)" in out
        assert "events by kind" in out
        assert "p50" in out and "p99" in out

    def test_summary_names_the_loop(self, capsys):
        """A traced run keeps the batched loop, and says so."""
        assert main(["--app", "pingpong", "--rounds", "10",
                     "--summary"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("run: ")
        assert header.endswith(", loop=pure-batched")

    def test_list_with_filters(self, capsys):
        assert main(["--app", "pingpong", "--rounds", "30", "--list",
                     "--kind", "switch,overflow", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if " switch " in ln
                 or " overflow " in ln]
        assert lines and len(lines) <= 6  # 5 events + possible header hit
        assert "dispatch" not in out

    def test_perfetto_and_report_export(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        assert main(["--app", "forkjoin", "--rounds", "10",
                     "--scheme", "NS", "--windows", "6",
                     "--perfetto", str(trace_path),
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote Perfetto trace" in out
        assert "wrote RunReport" in out
        # exporting suppresses the summary unless asked for
        assert "per-thread cycle attribution" not in out

        trace = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

        report = from_json(report_path.read_text())
        assert report["config"]["app"] == "forkjoin"
        assert report["config"]["scheme"] == "NS"
        assert report["events"]["total"] > 0

    def test_spellcheck_app_tiny(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["--scale", "0.02", "--report", str(report_path),
                     "--summary"]) == 0
        out = capsys.readouterr().out
        assert "per-thread cycle attribution" in out
        report = from_json(report_path.read_text())
        assert len(report["threads"]) == 7  # the paper's 7-thread pipeline
        assert report["config"]["app"] == "spellcheck"


class TestTraceCliFaults:
    def test_fault_events_visible_in_list(self, capsys):
        assert main(["--scale", "0.02", "--faults",
                     "sched@2,store_delay@1", "--list",
                     "--kind", "fault"]) == 0
        out = capsys.readouterr().out
        assert "faults fired: " in out
        assert "fault=sched" in out
        assert "fault=store_delay" in out

    def test_detected_fault_exits_nonzero_with_bundle(self, capsys,
                                                      tmp_path):
        code = main(["--scale", "0.05", "--windows", "6",
                     "--faults", "retval@5", "--audit",
                     "--crash-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "simulator fault: WindowIntegrityError" in err
        assert "python -m repro.faults replay" in err
        assert list(tmp_path.glob("crash-*.json"))


#: --app -> (a detected fault's arguments, the registry workload)
DETECTED = {
    "spellcheck": (["--scale", "0.02", "--windows", "6",
                    "--faults", "retval@5", "--audit"], "spellcheck"),
    "pingpong": (["--rounds", "20", "--scheme", "NS", "--windows", "4",
                  "--faults", "store_fail@1"], "synthetic-ping-pong"),
    "forkjoin": (["--scheme", "NS", "--windows", "4",
                  "--faults", "wim@1", "--audit"], "synthetic-fork-join"),
}


@pytest.mark.parametrize("app", sorted(DETECTED))
def test_every_app_bundle_replays_bit_for_bit(app, capsys, tmp_path):
    """The bundle records the registry config the run was built from,
    so the printed replay command reproduces it for every ``--app``."""
    from repro.faults import load_bundle, replay_bundle

    argv, workload = DETECTED[app]
    crash_dir = tmp_path / "crashes"
    assert main(["--app", app, "--crash-dir", str(crash_dir)]
                + argv) == 1
    assert "replay with: python -m repro.faults replay" in (
        capsys.readouterr().err)
    (bundle,) = crash_dir.glob("crash-*.json")
    config = load_bundle(bundle)["config"]
    assert config["workload"] == workload
    assert config["watchdog"] == 0
    matched, __, detail = replay_bundle(bundle, workdir=tmp_path / "rp")
    assert matched, detail
