"""``python -m repro.analysis check`` exit codes: a window count the
scheme cannot run on is a usage error (exit 2, one stderr line), never
a traceback and never exit 1, which means "findings"."""

import pytest

from repro.analysis.cli import main


@pytest.mark.parametrize("scheme,windows", [
    ("NS", 2),
    ("SNP", 0),
    ("SP", 3),
])
def test_windows_below_scheme_minimum_is_a_usage_error(capsys, scheme,
                                                       windows):
    code = main(["check", "--corpus", "--scheme", scheme,
                 "--windows", str(windows)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "windows" in lines[0]


def test_unreadable_program_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "nonexistent.s"
    assert main(["check", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cannot read %s" % missing in lines[0]


def test_smallest_legal_geometry_checks_clean(capsys):
    assert main(["check", "--corpus", "--scheme", "SP",
                 "--windows", "4"]) == 0
    capsys.readouterr()
