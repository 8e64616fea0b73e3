"""Execution provenance: ``RunResult.loop`` names the dispatch loop a
run took.  Production has one loop, and every hook keeps it — crash
bundles, fault injection, the audit, the watchdog, a step budget and
tracing (the trace recorder) all report the pure batched loop."""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.faults import FaultInjector, FaultPlan
from tests.support.trampoline import force_trampoline

CONFIG = SpellConfig.named("high", "coarse", scale=0.05)


def test_crash_dir_run_takes_the_pure_batched_loop(tmp_path):
    result, __ = run_spellchecker(8, "SP", CONFIG, crash_dir=tmp_path)
    assert result.loop == "pure-batched"
    assert not list(tmp_path.iterdir())  # no crash, no bundle


def test_crash_dir_run_never_enters_the_step_loop(tmp_path):
    bare, bare_out = run_spellchecker(8, "NS", CONFIG)
    recorded, recorded_out = run_spellchecker(8, "NS", CONFIG,
                                              crash_dir=tmp_path)
    assert recorded.loop == "pure-batched"
    assert recorded_out == bare_out
    assert recorded.steps == bare.steps
    assert recorded.counters.snapshot() == bare.counters.snapshot()


def test_faulted_run_takes_the_pure_batched_loop():
    injector = FaultInjector(FaultPlan.parse("store_delay@1"))
    result, __ = run_spellchecker(8, "SP", CONFIG, faults=injector,
                                  verify_registers=True)
    assert injector.fired
    assert result.loop == "pure-batched"


@pytest.mark.parametrize("kwargs", [
    {"audit": True},
    {"watchdog": 10_000},
    {"max_steps": 10_000_000},
], ids=["audit", "watchdog", "max_steps"])
def test_step_hooks_keep_the_batched_loop(kwargs):
    result, __ = run_spellchecker(8, "SP", CONFIG, **kwargs)
    assert result.loop == "pure-batched"


def test_reference_run_reports_core():
    """The test-only reference core reports the step-granular loop."""
    result, __ = run_spellchecker(8, "SP", CONFIG,
                                  instrument=force_trampoline)
    assert result.loop == "step"


def test_traced_run_keeps_the_batched_loop():
    result, __ = run_spellchecker(
        8, "SP", CONFIG, instrument=lambda kernel: kernel.enable_tracing())
    assert result.loop == "pure-batched"
