"""The ``python -m repro.experiments`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.__main__ import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI sweeps out of the user-level result cache; also
    exercises the REPRO_CACHE_DIR knob the engine documents."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_table2_target(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "145 - 149" in out
    assert "engine: 3 points" in out


def test_figure_target_with_tiny_sweep(capsys):
    assert main(["fig13", "--scale", "0.02", "--windows", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 13" in out
    assert "computed in" in out


def test_table1_target(capsys):
    assert main(["table1", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "T6.dict1" in out
    assert "paper" in out


def test_repeated_figure_run_is_pure_cache_hits(capsys):
    args = ["fig12", "--scale", "0.02", "--windows", "4,6",
            "--jobs", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "18 executed" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "18 cached (100%), 0 executed" in second
    # the cached run renders the identical figure (everything up to
    # the wall-clock line)
    assert (first.split("(fig12 computed")[0]
            == second.split("(fig12 computed")[0])


def test_no_cache_forces_execution(capsys):
    args = ["fig13", "--scale", "0.02", "--windows", "4", "--no-cache"]
    assert main(args) == 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 cached (0%), 9 executed" in out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_keep_going_quarantines_and_names_the_manifest(capsys):
    assert main(["fig13", "--scale", "0.02", "--windows", "6",
                 "--jobs", "2", "--faults", "retval@5",
                 "--keep-going", "--retries", "1"]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert "failure manifest: " in out


def test_injected_fault_without_keep_going_fails_loudly(capsys):
    from repro.experiments.engine import EngineError

    with pytest.raises(EngineError) as info:
        main(["fig13", "--scale", "0.02", "--windows", "6",
              "--faults", "retval@5", "--retries", "1"])
    assert "WindowIntegrityError" in str(info.value)


def test_malformed_plan_is_a_usage_error(capsys, tmp_path):
    """Checked once, before any point runs: no retries, no
    ``EngineError``, nothing cached."""
    with pytest.raises(SystemExit) as info:
        main(["fig13", "--scale", "0.02", "--windows", "6",
              "--faults", "stream@1", "--retries", "3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --faults stream@1: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args,message", [
    (["fig11", "--windows", "abc"],
     "error: --windows abc: not a comma-separated list of integers\n"),
    (["fig11", "--windows", "8,x"],
     "error: --windows 8,x: not a comma-separated list of integers\n"),
    (["fig11", "--windows", "2"],
     "error: --windows 2: NS needs at least 3 windows\n"),
    (["fig13", "--windows", "8,3"],
     "error: --windows 8,3: SP needs at least 4 windows\n"),
    (["report", "--scheme", "SP", "--windows", "3"],
     "error: --windows 3: SP needs at least 4 windows\n"),
    (["report", "--scheme", "SNP", "--windows", "2"],
     "error: --windows 2: SNP needs at least 3 windows\n"),
    (["fig11", "--scale", "0"],
     "error: --scale 0.0: not a positive number\n"),
    (["fig11", "--scale", "-1"],
     "error: --scale -1.0: not a positive number\n"),
])
def test_bad_windows_or_scale_is_a_usage_error(args, message, capsys,
                                               tmp_path):
    """One ``error:`` line and exit 2 before any point runs; a window
    count is bad when a scheme of the target cannot run it."""
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("env,args,message", [
    ({"REPRO_WINDOWS": "abc"}, ["fig13"],
     "error: REPRO_WINDOWS=abc: not a comma-separated list of integers\n"),
    ({"REPRO_WINDOWS": "2"}, ["fig13", "--scale", "0.02"],
     "error: REPRO_WINDOWS=2: NS needs at least 3 windows\n"),
    ({"REPRO_WINDOWS": "8,3"}, ["all", "--scale", "0.02"],
     "error: REPRO_WINDOWS=8,3: SP needs at least 4 windows\n"),
    ({"REPRO_SCALE": "abc"}, ["fig11"],
     "error: REPRO_SCALE=abc: not a positive number\n"),
    ({"REPRO_SCALE": "-1"}, ["fig11", "--windows", "4"],
     "error: REPRO_SCALE=-1: not a positive number\n"),
    ({"REPRO_SCALE": "0"}, ["report"],
     "error: REPRO_SCALE=0: not a positive number\n"),
])
def test_bad_environment_windows_or_scale_is_a_usage_error(
        env, args, message, capsys, tmp_path, monkeypatch):
    """``REPRO_WINDOWS`` and ``REPRO_SCALE`` stand in for ``--windows``
    and ``--scale`` and get the same checks: one ``error:`` line and
    exit 2 before any point runs."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "cache").exists()


def test_flags_override_bad_environment_values(capsys, monkeypatch):
    """A flag replaces its environment value, so only the flag is
    checked; ``report`` reads ``--windows`` alone."""
    monkeypatch.setenv("REPRO_WINDOWS", "abc")
    monkeypatch.setenv("REPRO_SCALE", "abc")
    assert main(["fig13", "--windows", "4", "--scale", "0.02"]) == 0
    assert main(["report", "--scheme", "NS", "--scale", "0.02"]) == 0
    assert '"n_windows": 8' in capsys.readouterr().out


def test_environment_values_parse_as_the_targets_read_them(monkeypatch):
    """The checks read the environment as the targets do: a trailing
    comma in ``REPRO_WINDOWS`` is no error, and ``table2``, which runs
    its own scale, does not read ``REPRO_SCALE``."""
    monkeypatch.setenv("REPRO_WINDOWS", "4,")
    assert main(["fig13", "--scale", "0.02"]) == 0
    monkeypatch.setenv("REPRO_SCALE", "abc")
    assert main(["table2"]) == 0


def test_smallest_window_count_of_each_target_runs(capsys):
    """NS and SNP run on 3 windows, so an NS report there is legal."""
    assert main(["report", "--scheme", "NS", "--windows", "3",
                 "--scale", "0.02"]) == 0
    assert '"n_windows": 3' in capsys.readouterr().out


#: modules that only executing a point needs
SIMULATOR_MODULES = (
    "repro.runtime.kernel", "repro.windows.cpu", "repro.core.ns",
    "repro.core.snp", "repro.core.sp", "repro.apps.spellcheck.pipeline",
    "repro.metrics.telemetry",
)


def _run_cli_in_fresh_process(args, tmp_path):
    """Run ``python -X importtime -m repro.experiments`` and return its
    stdout and the names of the modules it imported."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.experiments"]
        + args, env=env, cwd=str(tmp_path), capture_output=True,
        text=True, timeout=300, check=True)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    return proc.stdout, imported


def test_warm_rerun_does_not_load_the_simulator(tmp_path):
    args = ["fig12", "--windows", "4,6", "--scale", "0.02", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    first, imported = _run_cli_in_fresh_process(args, tmp_path)
    assert "18 executed" in first
    assert "repro.runtime.kernel" in imported
    second, imported = _run_cli_in_fresh_process(args, tmp_path)
    assert "100%), 0 executed" in second
    assert sorted(imported.intersection(SIMULATOR_MODULES)) == []
    assert (first.split("(fig12 computed")[0]
            == second.split("(fig12 computed")[0])
