"""Synthetic workloads: correctness under every scheme, plus the
behaviours they were designed to isolate."""

import pytest

from repro import Kernel
from repro.apps.synthetic import (
    expected_fork_join_total,
    spawn_call_depth_workers,
    spawn_fork_join,
    spawn_ping_pong,
)
from repro.metrics.observer import RunObserver

SCHEMES = ("NS", "SNP", "SP")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_call_depth_workers_complete(scheme):
    kernel = Kernel(n_windows=8, scheme=scheme)
    spawn_call_depth_workers(kernel, n_workers=2, iterations=10, depth=3)
    result = kernel.run(max_steps=500_000)
    assert result.result_of("worker0") == 10 * 4
    assert result.result_of("worker1") == 10 * 4


def test_call_depth_controls_window_activity():
    """Window activity per thread is depth + 1 by construction (§5)."""
    for depth in (1, 3, 5):
        kernel = Kernel(n_windows=32, scheme="SP")
        observer = RunObserver().attach(kernel)
        spawn_call_depth_workers(kernel, n_workers=1, iterations=8,
                                 depth=depth)
        kernel.run(max_steps=500_000)
        activity = observer.behavior().window_activity_per_thread()
        worker_activity = activity[1]  # tid 1 is the worker
        assert worker_activity >= depth + 1 - 0.5


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ping_pong_completes(scheme):
    kernel = Kernel(n_windows=5, scheme=scheme)
    spawn_ping_pong(kernel, rounds=30)
    result = kernel.run(max_steps=500_000)
    assert result.result_of("ponger") == 30


def test_ping_pong_snp_allocation_pathology():
    """§4.2: with the simple policy and a windowless partner, SNP can
    spill and re-restore repeatedly; SP's PRWs avoid the worst of it.
    We only assert the pathology exists (SNP moves at least as many
    windows as SP at equal size)."""
    moved = {}
    for scheme in ("SNP", "SP"):
        kernel = Kernel(n_windows=6, scheme=scheme)
        spawn_ping_pong(kernel, rounds=50)
        result = kernel.run(max_steps=500_000)
        c = result.counters
        moved[scheme] = c.windows_spilled + c.windows_restored
    assert moved["SNP"] >= moved["SP"]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("flush", [False, True])
def test_fork_join_correct(scheme, flush):
    kernel = Kernel(n_windows=10, scheme=scheme)
    spawn_fork_join(kernel, n_children=3, items=60, flush_hint=flush)
    result = kernel.run(max_steps=1_000_000)
    assert result.result_of("parent") == expected_fork_join_total(60)


def test_flush_hint_reduces_trap_count_for_long_sleepers():
    """§4.4: flushing a long sleeper's windows at switch time replaces
    later overflow traps."""
    results = {}
    for flush in (False, True):
        kernel = Kernel(n_windows=6, scheme="SP")
        spawn_fork_join(kernel, n_children=3, items=40, flush_hint=flush)
        run = kernel.run(max_steps=1_000_000)
        results[flush] = run.counters.overflow_traps
    assert results[True] <= results[False]
