"""The spell-checker command-line interface."""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.apps.spellcheck.__main__ import main


def test_cli_builtin_corpus(capsys):
    assert main(["--scale", "0.02", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "possibly-misspelled words" in out
    assert "avg-switch" in out


def test_cli_checks_a_real_file(tmp_path, capsys):
    tex = tmp_path / "doc.tex"
    tex.write_bytes(
        b"\\section{Windows} the window regsterq is \\emph{fast} and "
        b"the thread schedule is good\n")
    assert main([str(tex), "--scheme", "SNP", "--windows", "6"]) == 0
    out = capsys.readouterr().out
    assert "regsterq" in out
    assert "window" not in out.splitlines()[1:]  # known words accepted


def test_cli_survivable_fault_reports_summary(capsys):
    assert main(["--scale", "0.02", "--faults", "sched@2"]) == 0
    out = capsys.readouterr().out
    assert "faults fired: sched@2/enqueue" in out
    assert "possibly-misspelled words" in out


def test_cli_malformed_plan_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--scale", "0.02", "--faults", "stream@1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --faults stream@1: unknown fault kind "
                            "'stream' (want one of register, retval, wim, "
                            "cwp, trap_drop, trap_dup, store_corrupt, "
                            "store_fail, store_delay, sched)\n")


def test_cli_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.tex"
    assert main([str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot read %s: No such file or "
                            "directory\n" % missing)


def test_cli_seed_seeds_the_workload(tmp_path, capsys):
    """``--seed`` seeds the corpus and dictionaries, as in the trace
    CLI, and a crash bundle records it."""
    assert main(["--scale", "0.02"]) == 0
    default = capsys.readouterr().out
    assert main(["--scale", "0.02", "--seed", "1993"]) == 0
    assert capsys.readouterr().out == default
    assert main(["--scale", "0.02", "--seed", "7"]) == 0
    assert capsys.readouterr().out != default

    from repro.faults import load_bundle, replay_bundle

    crash_dir = tmp_path / "crashes"
    assert main(["--scale", "0.05", "--windows", "6", "--seed", "7",
                 "--faults", "retval@5", "--audit",
                 "--crash-dir", str(crash_dir)]) == 1
    (bundle,) = crash_dir.glob("crash-*.json")
    assert load_bundle(bundle)["config"]["seed"] == 7
    matched, __, detail = replay_bundle(bundle, workdir=tmp_path / "rp")
    assert matched, detail


def test_cli_detected_fault_writes_bundle(tmp_path, capsys):
    code = main(["--scale", "0.05", "--windows", "6",
                 "--faults", "retval@5", "--audit",
                 "--crash-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "simulator fault: WindowIntegrityError" in err
    assert "crash bundle: " in err
    assert "python -m repro.faults replay" in err
    bundles = list(tmp_path.glob("crash-*.json"))
    assert len(bundles) == 1

    from repro.faults import replay_bundle

    matched, __, detail = replay_bundle(bundles[0],
                                        workdir=tmp_path / "replay")
    assert matched, detail


def test_cli_file_bundle_is_marked_unreplayable(tmp_path, capsys):
    """A file-fed run's bundle cannot carry the document, so it names
    the ``spellcheck-file`` workload, which replay refuses."""
    from repro.faults import load_bundle, replay_bundle
    from repro.faults.workloads import WorkloadError

    tex = tmp_path / "doc.tex"
    tex.write_bytes(b"the window regsterq is \\emph{fast}\n")
    crash_dir = tmp_path / "crashes"
    assert main([str(tex), "--windows", "6", "--faults", "retval@1",
                 "--audit", "--crash-dir", str(crash_dir)]) == 1
    assert "crash bundle: " in capsys.readouterr().err
    (bundle,) = crash_dir.glob("crash-*.json")
    assert load_bundle(bundle)["config"]["workload"] == "spellcheck-file"
    with pytest.raises(WorkloadError):
        replay_bundle(bundle, workdir=tmp_path / "rp")


def test_corpus_run_scheme_independent():
    """A given document (``corpus=``) checks the same under every
    scheme; scale 0.03 gives 1,500-byte dictionaries."""
    document = (b"the window thread xqzzk processor \\cite{foo} "
                b"schedule fast\n" * 5)
    reports = set()
    for scheme in ("NS", "SNP", "SP"):
        __, report = run_spellchecker(6, scheme,
                                      SpellConfig(m=4, n=4, scale=0.03),
                                      corpus=document)
        reports.add(report)
    assert len(reports) == 1
    assert b"xqzzk" in reports.pop()


def _bus_report(scale, scheme, n_windows):
    """The ``--report`` document as the trace-fed observers build
    it."""
    from tests.support.bus_oracle import BusObservers

    bus = BusObservers()
    result, __ = run_spellchecker(n_windows, scheme,
                                  SpellConfig(m=16, n=16, scale=scale),
                                  instrument=bus.attach)
    return bus.report(result, {"scheme": scheme, "n_windows": n_windows,
                               "m": 16, "n": 16, "workload": "spellcheck"})


def test_cli_report_is_unchanged_and_keeps_the_batched_loop(
        tmp_path, monkeypatch):
    import repro.apps.spellcheck.__main__ as cli
    from repro.metrics.report import to_json

    expected = to_json(_bus_report(0.02, "SNP", 6))
    args = ["--scale", "0.02", "--scheme", "SNP", "--windows", "6"]
    loops = []

    def spy(*args, **kwargs):
        result, report = run_spellchecker(*args, **kwargs)
        loops.append(result.loop)
        return result, report

    monkeypatch.setattr(cli, "run_spellchecker", spy)
    assert main(args + ["--report", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").read_text() == expected
    # --trace records the events for the Perfetto exporter; same report
    assert main(args + ["--report", str(tmp_path / "rt.json"),
                        "--trace", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "rt.json").read_text() == expected
    assert (tmp_path / "t.json").is_file()
    assert loops == ["pure-batched", "pure-batched"]
