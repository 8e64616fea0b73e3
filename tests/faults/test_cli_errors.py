"""CLI error paths: bad bundle files exit non-zero with a structured
``ReproError`` line on stderr — never a raw traceback."""

import json

import pytest

from repro.errors import ReproError
from repro.faults import BundleError, load_bundle
from repro.faults.__main__ import main

pytestmark = pytest.mark.usefixtures("execution_backend")


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
