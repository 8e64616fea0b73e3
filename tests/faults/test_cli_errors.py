"""CLI error paths: bad bundle files exit non-zero with a structured
``ReproError`` line on stderr — never a raw traceback."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults import BundleError, load_bundle
from repro.faults.__main__ import main

CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture(params=["show", "replay", "minimize"])
def command(request):
    return request.param


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBundleErrorType:
    def test_bundle_error_is_repro_and_value_error(self):
        assert issubclass(BundleError, ReproError)
        assert issubclass(BundleError, ValueError)

    def test_missing_path_raises_bundle_error(self, tmp_path):
        with pytest.raises(BundleError, match="cannot read"):
            load_bundle(tmp_path / "nope.json")

    def test_corrupt_json_raises_bundle_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{half a docu")
        with pytest.raises(BundleError, match="not valid JSON"):
            load_bundle(bad)

    def test_directory_raises_bundle_error(self, tmp_path):
        with pytest.raises(BundleError, match="cannot read"):
            load_bundle(tmp_path)

    def test_error_carries_the_path_as_context(self, tmp_path):
        with pytest.raises(BundleError) as info:
            load_bundle(tmp_path / "nope.json")
        assert info.value.context["path"].endswith("nope.json")


class TestCliExitCodes:
    def test_missing_bundle_exits_2_without_traceback(self, capsys,
                                                      tmp_path,
                                                      command):
        code, out, err = run_cli(capsys, command,
                                 str(tmp_path / "nope.json"))
        assert code == 2
        assert "error: BundleError: cannot read crash bundle" in err
        assert "Traceback" not in err and "Traceback" not in out

    def test_corrupt_bundle_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {{{")
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2
        assert "error: BundleError:" in err
        assert "not valid JSON" in err

    def test_foreign_schema_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "foreign.json"
        bad.write_text(json.dumps({"schema": "other.tool", "data": 1}))
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2
        assert "error: BundleError:" in err
        assert "schema" in err

    def test_future_version_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps(
            {"schema": "repro.crash-bundle", "version": 99}))
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2
        assert "version" in err

    def test_unknown_workload_exits_2_on_replay(self, capsys, tmp_path):
        """A structurally valid bundle naming a workload this build
        cannot rerun is a WorkloadError, not a silent replay miss."""
        from tests.faults.test_bundle import crash

        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        doc["config"]["workload"] = "not-a-workload"
        bad = tmp_path / "renamed.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(bad))
        assert code == 2
        assert "error: WorkloadError:" in err
        assert "not-a-workload" in err


class TestFuzzUsageErrors:
    """Fuzz flags that name no runnable campaign are usage errors: one
    ``error:`` line and exit 2 before any trial runs."""

    @pytest.mark.parametrize("flags, message", [
        (["--workloads", "nosuch"], "unknown workload 'nosuch'"),
        (["--workloads", "spellcheck,"], "unknown workload ''"),
        (["--schemes", "XX"], "unknown scheme 'XX'"),
        (["--schemes", "NS,SNP,Sp,"], "unknown scheme ''"),
        (["--trials", "0"], "at least one trial"),
        (["--trials", "-1"], "at least one trial"),
        (["--trials", "2", "--trial-budget", "-5"],
         "--trial-budget -5: a step count must be at least 1"),
        (["--trials", "2", "--trial-budget", "0"],
         "--trial-budget 0: a step count must be at least 1"),
    ], ids=["unknown-workload", "empty-workload", "unknown-scheme",
            "empty-scheme", "zero-trials", "negative-trials",
            "negative-budget", "zero-budget"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, flags,
                                         message):
        out_dir = tmp_path / "fuzz"
        code, out, err = run_cli(capsys, "fuzz", "--out", str(out_dir),
                                 *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert not out_dir.exists()


def test_minimize_with_a_negative_budget_is_a_usage_error(capsys,
                                                          tmp_path):
    """A budget below one step would cut every candidate at once, and
    the minimizer would blame the bundle for not reproducing."""
    bundle = sorted(CORPUS.glob("crash-*.json"))[0]
    out_dir = tmp_path / "min"
    code, out, err = run_cli(capsys, "minimize", str(bundle), "--out",
                             str(out_dir), "--trial-budget", "-5")
    assert code == 2
    assert out == ""
    assert err == ("error: --trial-budget -5: a step count must be at "
                   "least 1\n")
    assert not out_dir.exists()
