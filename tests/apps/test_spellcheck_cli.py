"""The spell-checker command-line interface."""

import pytest

from repro.apps.spellcheck.__main__ import check_document, main
from repro.apps.spellcheck.corpus import generate_dictionaries


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


def test_check_document_scheme_independent():
    dict1, dict2, __ = generate_dictionaries(size=1500)
    document = (b"the window thread xqzzk processor \\cite{foo} "
                b"schedule fast\n" * 5)
    reports = set()
    for scheme in ("NS", "SNP", "SP"):
        __, report = check_document(document, dict1, dict2,
                                    m=4, n=4, scheme=scheme,
                                    n_windows=6)
        reports.add(report)
    assert len(reports) == 1
    assert b"xqzzk" in reports.pop()


def _bus_report(scale, scheme, n_windows):
    """The ``--report`` document as the bus-fed observers build it."""
    from repro.apps.spellcheck.corpus import DICT_SIZE, generate_corpus
    from tests.support.bus_oracle import BusObservers

    document = generate_corpus(scale=scale)
    dict1, dict2, __ = generate_dictionaries(
        size=max(200, int(round(DICT_SIZE * scale))))
    bus = BusObservers()
    result, __ = check_document(document, dict1, dict2, m=16, n=16,
                                scheme=scheme, n_windows=n_windows,
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
        result, report = check_document(*args, **kwargs)
        loops.append(result.loop)
        return result, report

    monkeypatch.setattr(cli, "check_document", spy)
    assert main(args + ["--report", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").read_text() == expected
    # --trace puts the Perfetto exporter on the bus; same report
    assert main(args + ["--report", str(tmp_path / "rt.json"),
                        "--trace", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "rt.json").read_text() == expected
    assert (tmp_path / "t.json").is_file()
    assert loops == ["pure-batched", "pure-batched"]
