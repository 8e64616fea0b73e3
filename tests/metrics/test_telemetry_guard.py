"""The telemetry zero-overhead and determinism contracts.

Mirrors ``test_tracing_guard.py`` for the aggregate layer: with no
``RunTelemetry`` attached every instrumented site must hold ``None``
(one ``is None`` branch, no registry mutation, no emit), and with one
attached two identical runs must produce byte-identical
``repro.metrics-snapshot`` documents.
"""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.isa import Machine, assemble
from repro.metrics import telemetry as telemetry_mod
from repro.metrics.events import TraceRecorder
from repro.metrics.telemetry import (
    Counter,
    Gauge,
    Histogram,
    RunTelemetry,
    snapshot_to_json,
    validate_snapshot,
)
from repro.runtime.kernel import Kernel
from tests.support.profiling import with_interval

CONFIG = SpellConfig.named("high", "coarse", scale=0.03)


def _run(instrument=None):
    return run_spellchecker(8, "SNP", CONFIG, instrument=instrument)


class TestDisabledPathIsInert:
    def test_sites_stay_detached_without_telemetry(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        assert kernel._profiler is None
        assert kernel.scheme._tel_switch is None
        assert kernel.scheme._tel_trap is None

    def test_uninstrumented_run_never_touches_registry_or_bus(
            self, monkeypatch):
        """The strong form of the zero-overhead guard: every mutation
        entry point of the metrics layer (and the trace recorder) is
        booby-trapped; an uninstrumented run must not trip any of
        them."""
        def boom(*args, **kwargs):
            raise AssertionError("hot path touched telemetry while off")

        monkeypatch.setattr(Counter, "inc", boom)
        monkeypatch.setattr(Gauge, "set", boom)
        monkeypatch.setattr(Histogram, "observe", boom)
        monkeypatch.setattr(Histogram, "observe_bulk", boom)
        monkeypatch.setattr(TraceRecorder, "emit", boom)
        result, __ = _run()
        assert result.counters.context_switches > 0

    def test_machine_sites_stay_detached_without_telemetry(self):
        machine = Machine(assemble("start:\n    halt\n"))
        assert machine._profiler is None
        assert machine.scheme._tel_switch is None


class TestEnabledPathIsTransparent:
    def test_instrumented_run_changes_no_behavior(self):
        bare, bare_out = _run()
        telemetry = with_interval(RunTelemetry(), 1024)
        metered, metered_out = _run(telemetry.attach)
        assert metered.steps == bare.steps
        assert metered.counters.snapshot() == bare.counters.snapshot()
        assert metered_out == bare_out

    def test_histogram_counts_match_exact_counters(self):
        telemetry = with_interval(RunTelemetry(), 1024)
        result, __ = _run(telemetry.attach)
        telemetry.finalize(result)
        snap = result.counters.snapshot()
        # one SNP run: each instrument name is registered once
        reg = {i.name: i for i in telemetry.registry.instruments()}
        switch = reg["sim_switch_cycles_hist"]
        trap = reg["sim_trap_cycles_hist"]
        assert switch.labels == trap.labels == {"scheme": "SNP"}
        assert switch.count == snap["context_switches"]
        assert trap.count == (snap["overflow_traps"]
                              + snap["underflow_traps"])
        assert switch.sum == snap["switch_cycles"]
        assert reg["sim_saves"].value == snap["saves"]
        assert reg["sim_total_cycles"].value == snap["total_cycles"]

    def test_fold_is_idempotent(self):
        telemetry = with_interval(RunTelemetry(), 1024)
        result, __ = _run(telemetry.attach)
        telemetry.finalize(result)
        meta = {"scheme": "SNP", "n_windows": 8}
        first = telemetry.snapshot(meta)
        second = telemetry.snapshot(meta)
        assert snapshot_to_json(first) == snapshot_to_json(second)

    def test_occupancy_sampled_on_cycle_grid(self):
        telemetry = with_interval(RunTelemetry(), 512)
        result, __ = _run(telemetry.attach)
        prof = telemetry.profiler
        assert prof.samples > 0
        assert prof.samples == len(prof.occupancy)
        cycles = [c for c, __ in prof.occupancy]
        assert cycles == sorted(cycles)
        assert all(0 <= occ <= 8 for __, occ in prof.occupancy)
        assert prof.occupancy[-1][0] <= result.counters.total_cycles


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
    def test_identical_runs_produce_byte_identical_snapshots(
            self, scheme):
        texts = []
        for __ in range(2):
            telemetry = with_interval(RunTelemetry(), 2048)
            result, __out = run_spellchecker(8, scheme, CONFIG,
                                             instrument=telemetry.attach)
            telemetry.finalize(result)
            snap = telemetry.snapshot({"scheme": scheme, "n_windows": 8,
                                       "workload": "spellcheck"})
            texts.append(snapshot_to_json(validate_snapshot(snap)))
        assert texts[0] == texts[1]

    def test_snapshot_body_contains_no_wall_clock(self):
        """Every value in a simulator snapshot is cycle- or count-
        domain; nothing floats (wall-clock would)."""
        telemetry = with_interval(RunTelemetry(), 2048)
        result, __ = _run(telemetry.attach)
        telemetry.finalize(result)
        snap = telemetry.snapshot({"scheme": "SNP"})

        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float in simulator snapshot: %r"
                                     % node)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(snap)


class TestMachineTelemetry:
    SOURCE = """
    start:
        mov  0, %l0
        mov  2000, %l1
    loop:
        add  %l0, 1, %l0
        cmp  %l0, %l1
        bl   loop
        mov  %l0, %o0
        halt
    """

    def test_isa_profiler_attributes_opcodes(self):
        machine = Machine(assemble(self.SOURCE), n_windows=8, scheme="SP")
        telemetry = with_interval(RunTelemetry(), 64)
        telemetry.attach(machine)
        machine.add_thread("start", name="t")
        machine.run()
        prof = telemetry.profiler
        assert prof.samples > 0
        assert prof.op_cycles, "no per-opcode attribution"
        assert set(prof.op_cycles) <= {"mov", "add", "cmp", "bl", "halt"}
        snap = validate_snapshot(telemetry.registry.snapshot(
            profile=prof.profile_section()))
        assert snap["profile"]["ops"] == prof.op_cycles

    def test_isa_run_identical_with_and_without_telemetry(self):
        def run(attach):
            machine = Machine(assemble(self.SOURCE), n_windows=8,
                              scheme="SP")
            if attach:
                with_interval(RunTelemetry(), 64).attach(machine)
            thread = machine.add_thread("start", name="t")
            machine.run()
            return thread.exit_value, machine.counters.snapshot()

        assert run(False) == run(True)
