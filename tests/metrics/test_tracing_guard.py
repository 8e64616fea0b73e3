"""The zero-cost tracing guard: every hot publisher guards its emit
sites with a ``_tracing`` flag of its own, which ``enable_tracing()``
sets before the run and nothing changes during it, so an untraced run
never builds event kwargs.  These tests pin the contract the emit call
sites rely on."""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.metrics.events import TraceRecorder
from repro.runtime.errors import RuntimeFault
from repro.runtime.kernel import Kernel
from repro.runtime.ops import Tick


def _publishers(kernel: Kernel):
    return (kernel, kernel.ready, kernel.cpu, kernel.scheme)


def test_enable_tracing_sets_every_publisher_flag():
    kernel = Kernel(n_windows=8, scheme="SP")
    for pub in _publishers(kernel):
        assert pub._tracing is False
    assert kernel.events.active is False
    recorder = kernel.enable_tracing()
    assert recorder is kernel.events
    assert recorder.active is True
    for pub in _publishers(kernel):
        assert pub._tracing is True


def test_enable_tracing_after_run_started_raises():
    """Tracing is fixed for the whole run, as the set of spawned
    threads is."""
    kernel = Kernel(n_windows=8, scheme="SP")
    seen = []

    def thread():
        try:
            kernel.enable_tracing()
        except RuntimeFault as exc:
            seen.append(exc)
        yield Tick(1)

    kernel.spawn(thread, name="t")
    kernel.run()
    assert len(seen) == 1 and "after run() started" in str(seen[0])
    assert kernel.events.active is False and not kernel.events.events
    with pytest.raises(RuntimeFault):
        kernel.enable_tracing()


def test_untraced_run_never_calls_emit(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("untraced run called emit")

    monkeypatch.setattr(TraceRecorder, "emit", boom)
    config = SpellConfig.named("high", "fine", scale=0.02)
    for scheme in ("NS", "SNP", "SP"):
        result, __ = run_spellchecker(5, scheme, config)
        assert result.counters.context_switches > 0


def test_crash_dir_leaves_tracing_off(tmp_path):
    """The crash-bundle flight recorder writes at the schemes' record
    sites, not as trace events, so bundles on never arm a tracing
    guard."""
    kernel = Kernel(n_windows=8, scheme="SP", crash_dir=tmp_path)
    assert kernel.events.active is False
    for pub in _publishers(kernel):
        assert pub._tracing is False


def test_guarded_run_produces_identical_counters():
    """A traced run and a bare run agree on every counter — the guard
    changes cost, never behavior."""
    config = SpellConfig.named("high", "coarse", scale=0.05)
    bare, bare_out = run_spellchecker(8, "SNP", config)
    recorders = []
    traced, traced_out = run_spellchecker(
        8, "SNP", config,
        instrument=lambda kernel: recorders.append(
            kernel.enable_tracing()))
    assert traced.steps == bare.steps
    assert traced.counters.snapshot() == bare.counters.snapshot()
    assert traced_out == bare_out
    assert len(recorders[0])  # tracing really was on
