"""Crash bundles: deterministic capture, validation, bit-for-bit replay."""

import json
import pathlib
from dataclasses import asdict

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.errors import ReproError
from repro.faults import (
    BUNDLE_SCHEMA,
    BUNDLE_VERSION,
    FaultInjector,
    FaultPlan,
    load_bundle,
    replay_bundle,
)
from repro.metrics.counters import SwitchRecord
from repro.runtime import Call, DeadlockError, Read, Tick, YieldCPU
from repro.runtime.kernel import FLIGHT_CAPACITY, Kernel
from repro.windows.errors import WindowIntegrityError
from tests.support.trampoline import force_trampoline

N_WINDOWS = 6
SCHEME = "SP"
CONFIG = SpellConfig.named("high", "coarse", scale=0.05)
PLAN_TEXT = "retval@5"
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


def crash(tmp_path, plan_text=PLAN_TEXT):
    """Run the faulted workload; returns the raised error (with its
    ``bundle_path`` attached by the kernel)."""
    injector = FaultInjector(FaultPlan.parse(plan_text))
    with pytest.raises(ReproError) as info:
        run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                         verify_registers=True, faults=injector,
                         audit=True, crash_dir=tmp_path)
    return info.value


class TestCapture:
    def test_bundle_written_and_valid(self, tmp_path):
        exc = crash(tmp_path)
        assert isinstance(exc, WindowIntegrityError)
        assert exc.bundle_path is not None
        bundle = load_bundle(exc.bundle_path)
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["version"] == BUNDLE_VERSION

    def test_bundle_names_the_error_and_context(self, tmp_path):
        exc = crash(tmp_path)
        bundle = load_bundle(exc.bundle_path)
        assert bundle["error"]["type"] == "WindowIntegrityError"
        assert bundle["error"]["message"] == exc.message
        assert bundle["error"]["context"]["thread"] == \
            exc.context["thread"]
        assert bundle["error"]["context"]["faults_fired"] == 1

    def test_bundle_embeds_the_fault_plan(self, tmp_path):
        exc = crash(tmp_path)
        bundle = load_bundle(exc.bundle_path)
        plan = FaultPlan.from_payload(bundle["fault_plan"])
        assert plan == FaultPlan.parse(PLAN_TEXT)

    def test_bundle_embeds_machine_and_threads(self, tmp_path):
        exc = crash(tmp_path)
        bundle = load_bundle(exc.bundle_path)
        machine = bundle["machine"]
        assert machine["scheme"] == SCHEME
        assert machine["n_windows"] == N_WINDOWS
        assert 0 <= machine["cwp"] < N_WINDOWS
        assert len(machine["occupancy"]) == N_WINDOWS
        names = {t["name"] for t in bundle["threads"]}
        assert "T5.output" in names
        for t in bundle["threads"]:
            assert {"cwp", "bottom", "resident", "depth",
                    "stored"} <= set(t["windows"])

    def test_bundle_has_flight_recorder_tail(self, tmp_path):
        exc = crash(tmp_path)
        bundle = load_bundle(exc.bundle_path)
        assert bundle["flight"], "flight recorder captured nothing"
        assert {e["kind"] for e in bundle["flight"]} <= {
            "switch", "overflow", "underflow"}
        assert "events" not in bundle

    def test_bundle_lists_the_faults_that_fired(self, tmp_path):
        exc = crash(tmp_path)
        bundle = load_bundle(exc.bundle_path)
        assert [(f["kind"], f["at"], f["site"])
                for f in bundle["faults_fired"]] == [
                    ("retval", 5, "restore")]

    def test_filename_is_content_addressed(self, tmp_path):
        exc1 = crash(tmp_path / "a")
        exc2 = crash(tmp_path / "b")
        assert exc1.bundle_path.name == exc2.bundle_path.name
        assert exc1.bundle_path.name.startswith(
            "crash-windowintegrityerror-")
        assert (exc1.bundle_path.read_text()
                == exc2.bundle_path.read_text())

    def test_bundle_is_deterministic_json(self, tmp_path):
        exc = crash(tmp_path)
        text = exc.bundle_path.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) == text

    def test_no_crash_dir_no_bundle(self):
        injector = FaultInjector(FaultPlan.parse(PLAN_TEXT))
        with pytest.raises(ReproError) as info:
            run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                             verify_registers=True, faults=injector)
        assert getattr(info.value, "bundle_path", None) is None


class TestDeadlockBundle:
    def test_deadlock_bundle_names_blocked_threads(self, tmp_path):
        def reader(stream):
            yield Read(stream, 1)

        kernel = Kernel(n_windows=4, scheme="SP", crash_dir=tmp_path)
        s = kernel.stream(1, "lonely")
        kernel.spawn(reader, s, name="r")
        with pytest.raises(DeadlockError) as info:
            kernel.run()
        exc = info.value
        assert exc.blocked and exc.blocked[0]["thread"] == "r"
        assert exc.blocked[0]["on"] == "lonely"
        assert "empty" in exc.blocked[0]["detail"]
        bundle = load_bundle(exc.bundle_path)
        assert bundle["error"]["blocked"][0]["thread"] == "r"


def nest(depth):
    if depth:
        yield Call(nest, depth - 1)
    yield Tick(1)
    return depth


def churn(rounds):
    for __ in range(rounds):
        yield Call(nest, 3)
        yield YieldCPU()


def build_churn_deadlock(kernel):
    """Two threads trade the CPU ~300 times, trapping on the way, then
    a reader of a never-written stream deadlocks the run."""
    def reader(stream):
        yield Read(stream, 1)

    kernel.spawn(reader, kernel.stream(1, "lonely"), name="r")
    kernel.spawn(churn, 150, name="a")
    kernel.spawn(churn, 150, name="b")


def churn_bundle(kernel):
    build_churn_deadlock(kernel)
    with pytest.raises(DeadlockError) as info:
        kernel.run()
    return load_bundle(info.value.bundle_path)


class TestFlightRecorder:
    def test_ring_is_shared_and_bounded(self, tmp_path):
        """Switch and trap sites append to one bounded ring."""
        kernel = Kernel(n_windows=4, scheme="SP", crash_dir=tmp_path)
        assert kernel.scheme.records.maxlen == FLIGHT_CAPACITY
        bundle = churn_bundle(kernel)
        assert kernel.counters.context_switches > FLIGHT_CAPACITY
        assert len(bundle["flight"]) == FLIGHT_CAPACITY
        kinds = {e["kind"] for e in bundle["flight"]}
        assert kinds == {"switch", "overflow", "underflow"}
        assert bundle["faults_fired"] == []

    def test_caller_armed_record_list_is_kept(self, tmp_path):
        """A list armed in place of the ring keeps every record; the
        bundle still holds the last FLIGHT_CAPACITY, in run order, as
        the ring would."""
        kernel = Kernel(n_windows=4, scheme="SP", crash_dir=tmp_path)
        records = kernel.scheme.records = []
        bundle = churn_bundle(kernel)
        assert kernel.scheme.records is records
        assert len(records) > FLIGHT_CAPACITY
        assert bundle["flight"] == [
            dict(kind="switch", **asdict(r))
            if isinstance(r, SwitchRecord) else asdict(r)
            for r in records[-FLIGHT_CAPACITY:]]
        ring = churn_bundle(Kernel(n_windows=4, scheme="SP",
                                   crash_dir=tmp_path / "ring"))
        assert bundle["flight"] == ring["flight"]

    def test_same_bundle_on_every_loop(self, tmp_path):
        """The record sites sit in the schemes, which every loop calls,
        so the batched loop and the reference loop write the same
        bundle."""
        batched = churn_bundle(Kernel(n_windows=4, scheme="SP",
                                      crash_dir=tmp_path / "batched"))
        step = churn_bundle(force_trampoline(Kernel(
            n_windows=4, scheme="SP", crash_dir=tmp_path / "step")))
        assert batched["flight"]
        assert step == batched


class TestShowCli:
    def test_show_prints_flight_and_fired_faults(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        exc = crash(tmp_path)
        assert main(["show", str(exc.bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "v%d" % BUNDLE_VERSION in out
        assert "faults fired (1):" in out
        assert "retval@5/restore" in out
        assert "flight records:" in out
        assert "switch " in out and "last" in out

    def test_show_prints_a_v2_bundles_events(self, capsys):
        from repro.faults.__main__ import main

        path = sorted(CORPUS_DIR.glob("crash-*.json"))[0]
        assert load_bundle(path)["version"] == 2
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "v2" in out
        assert "events:" in out and "dispatch" in out
        assert "flight records:" not in out


class TestValidation:
    def test_rejects_wrong_schema(self, tmp_path):
        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        doc["schema"] = "something.else"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_bundle(bad)

    def test_rejects_future_version(self, tmp_path):
        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        doc["version"] = BUNDLE_VERSION + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_bundle(bad)

    def test_rejects_missing_section(self, tmp_path):
        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        del doc["machine"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="machine"):
            load_bundle(bad)


class TestCoreRecording:
    """Bundles no longer record an execution core; the versions that
    predate or carry the legacy ``config["core"]`` still load."""

    def test_v1_bundle_without_core_still_loads(self, tmp_path):
        """Version-1 bundles predate the core field and must keep
        loading."""
        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        assert "core" not in doc["config"]
        doc["version"] = 1
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        bundle = load_bundle(old)
        assert bundle["version"] == 1
        assert "core" not in bundle["config"]


class TestReplay:
    @pytest.mark.parametrize("kind", [
        "register", "retval", "wim", "cwp", "trap_drop", "trap_dup",
        "store_corrupt", "store_fail", "store_delay", "sched"])
    def test_every_fault_class_survives_or_replays(self, tmp_path, kind):
        """The acceptance contract, per fault class: a crash always
        comes with a bundle whose seed + plan reproduce the identical
        failure bit-for-bit; anything else must leave results equal to
        the unfaulted reference."""
        from tests.faults.test_injection import (
            SPEC_OF,
            reference_output,
        )

        injector = FaultInjector(FaultPlan.parse(SPEC_OF[kind]))
        try:
            __, output = run_spellchecker(
                N_WINDOWS, SCHEME, CONFIG, verify_registers=True,
                faults=injector, audit=True, crash_dir=tmp_path / "orig")
        except ReproError as exc:
            assert exc.bundle_path is not None
            matched, __, detail = replay_bundle(
                exc.bundle_path, workdir=tmp_path / "replay")
            assert matched, "%s did not replay: %s" % (kind, detail)
        else:
            assert output == reference_output()

    def test_replay_reproduces_bit_for_bit(self, tmp_path):
        exc = crash(tmp_path / "orig")
        matched, new_path, detail = replay_bundle(
            exc.bundle_path, workdir=tmp_path / "replay")
        assert matched, detail
        assert new_path.name == exc.bundle_path.name
        assert new_path.read_text() == exc.bundle_path.read_text()

    def test_v2_bundle_replays_on_everything_but_events(self, tmp_path):
        """A v2 bundle's bus-event tail cannot be rebuilt, so its replay
        compares every other section; a difference there still fails."""
        exc = crash(tmp_path / "orig")
        doc = json.loads(exc.bundle_path.read_text())
        doc["version"] = 2
        doc["events"] = [{"kind": "dispatch", "cycle": 0, "tid": 0}]
        del doc["flight"], doc["faults_fired"]
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(doc))
        matched, __, detail = replay_bundle(old, workdir=tmp_path / "a")
        assert matched, detail
        doc["steps"] += 1
        old.write_text(json.dumps(doc))
        matched, __, detail = replay_bundle(old, workdir=tmp_path / "b")
        assert not matched, detail

    def test_replay_cli_exit_codes(self, tmp_path):
        from repro.faults.__main__ import main

        exc = crash(tmp_path / "orig")
        assert main(["replay", str(exc.bundle_path),
                     "--workdir", str(tmp_path / "replay")]) == 0
        assert main(["show", str(exc.bundle_path)]) == 0

    def test_replay_refuses_non_spellcheck_workloads(self, tmp_path):
        exc = crash(tmp_path)
        doc = json.loads(exc.bundle_path.read_text())
        doc["config"]["workload"] = "spellcheck-file"
        bad = tmp_path / "filebased.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="spellcheck"):
            replay_bundle(bad)
