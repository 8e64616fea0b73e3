"""The pre-run gates: a caller that wants one runs the analyzer before
``run()`` — ``check_program`` before building a ``Machine``,
``analyze_kernel(...).raise_if_errors`` on a spawned ``Kernel`` — and
the fuzzer statically pre-validates every drawn plan."""

import pytest

from repro.analysis import AnalysisError, analyze_kernel, check_program
from repro.faults.fuzz import run_fuzz
from repro.faults.workloads import (
    WORKLOADS,
    WorkloadDef,
    register_workload,
)
from repro.isa import Machine, assemble
from repro.runtime.kernel import Kernel
from repro.runtime.ops import Read, Write

FACTORIAL_LIKE = """
start:
    call fn
    nop
    halt
fn:
    save
    mov  %i0, %i0
    ret
"""

FALLS_OFF = """
start:
    nop
"""


class TestMachineGate:
    def test_rejects_bad_program_before_running(self):
        with pytest.raises(AnalysisError) as info:
            check_program(assemble(FALLS_OFF), predict=False)
        assert "fall-off-end" in [f.rule for f in info.value.report.errors]

    def test_passes_clean_program(self):
        program = assemble(FACTORIAL_LIKE)
        check_program(program, predict=False)
        machine = Machine(program)
        machine.add_thread("start")
        assert list(machine.run().values()) == [0]

    def test_off_by_default(self):
        Machine(assemble(FALLS_OFF))  # the Machine itself never gates


def _lonely_reader(stream):
    data = yield Read(stream, 8)
    assert data  # pragma: no cover


def _writer(stream):
    yield Write(stream, b"ok")


def _reader(stream):
    yield Read(stream, 2)


class TestKernelGate:
    def test_rejects_guaranteed_deadlock(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        stream = kernel.stream(16, name="orphan")
        kernel.spawn(_lonely_reader, stream, name="r")
        with pytest.raises(AnalysisError) as info:
            analyze_kernel(kernel).raise_if_errors("workload topology")
        assert [f.rule for f in info.value.report.errors] == [
            "stream-never-written"]
        assert kernel.counters.total_cycles == 0  # nothing ran

    def test_passes_clean_topology(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        stream = kernel.stream(8, name="pipe")
        kernel.spawn(_writer, stream, name="w")
        kernel.spawn(_reader, stream, name="r")
        analyze_kernel(kernel).raise_if_errors("workload topology")
        kernel.run()  # completes


def _build_doomed(kernel, config):
    stream = kernel.stream(int(config.get("capacity", 16)), name="void")
    kernel.spawn(_lonely_reader, stream, name="r")


@pytest.fixture
def doomed_workload():
    register_workload(WorkloadDef(name="test-doomed", build=_build_doomed))
    yield "test-doomed"
    del WORKLOADS["test-doomed"]


class TestFuzzPrevalidation:
    def test_known_bad_plan_is_rejected(self, tmp_path, doomed_workload):
        report = run_fuzz(trials=2, seed=7, out_dir=tmp_path,
                          workloads=[doomed_workload], minimize=False)
        assert report.rejected == 2
        for trial in report.trials:
            assert trial.outcome == "rejected"
            assert trial.config["static_verdict"] == "rejected"
            assert "stream-never-written" in trial.detail

    def test_clean_plan_records_verdict(self, tmp_path):
        report = run_fuzz(trials=1, seed=7, out_dir=tmp_path,
                          workloads=["synthetic-ping-pong"],
                          minimize=False)
        trial = report.trials[0]
        assert trial.outcome != "rejected"
        assert trial.config["static_verdict"] == "clean"
