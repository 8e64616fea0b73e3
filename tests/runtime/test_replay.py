"""Window traces: a recorded run replayed through another scheme and
window count gives the RunReport executing that point gives."""

import pickle

import pytest

from repro.apps.synthetic import (
    spawn_call_depth_workers,
    spawn_fork_join,
    spawn_ping_pong,
    spawn_yield_storm,
)
from repro.core.working_set import WorkingSetPolicy
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.observer import RunObserver
from repro.metrics.report import build_run_report, to_json
from repro.runtime.errors import RuntimeFault
from repro.runtime.kernel import (
    TRACE_FLUSH,
    TRACE_RESTORE,
    TRACE_SAVE,
    Kernel,
)
from repro.runtime.ops import Call, Join, Spawn, Tick, YieldCPU
from repro.runtime.replay import WindowTrace


def _leaf(n):
    yield Tick(n)
    return n


def _worker(calls):
    total = 0
    for i in range(calls):
        total += yield Call(_leaf, i)
        yield YieldCPU()
    return total


def _spawner(children):
    """Spawns threads mid-run and joins them."""
    handles = []
    for i in range(children):
        handles.append((yield Spawn(_worker, 3 + i, name="kid%d" % i)))
        yield Call(_leaf, 1)
    total = 0
    for handle in handles:
        total += yield Join(handle)
    return total


WORKLOADS = {
    "call-depth": lambda k: spawn_call_depth_workers(k, 3, 6, 5),
    "ping-pong": lambda k: spawn_ping_pong(k, 12),
    "fork-join-flush": lambda k: spawn_fork_join(k, 3, 12,
                                                 flush_hint=True),
    "yield-storm": lambda k: spawn_yield_storm(k, 3, 4),
    "spawn-join": lambda k: k.spawn(_spawner, 3, name="parent"),
}

POINTS = [("NS", 3), ("SNP", 3), ("SP", 4), ("NS", 5), ("SNP", 6),
          ("SP", 8), ("SNP", 16)]


def _kernel(scheme, n_windows, **kwargs):
    kwargs.setdefault("verify_registers", False)
    kernel = Kernel(n_windows=n_windows, scheme=scheme, **kwargs)
    observer = RunObserver().attach(kernel)
    return kernel, observer


def _executed(workload, scheme, n_windows, trace=None):
    kernel, observer = _kernel(scheme, n_windows)
    if trace is not None:
        trace.attach(kernel)
    WORKLOADS[workload](kernel)
    result = kernel.run()
    return to_json(build_run_report(result, observer=observer))


def _replayed(trace, scheme, n_windows):
    kernel, observer = _kernel(scheme, n_windows)
    result = trace.replay(kernel)
    assert result.loop == "replay"
    return to_json(build_run_report(result, observer=observer))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("head", [("SP", 4), ("NS", 3)])
def test_replay_equals_execution(workload, head):
    trace = WindowTrace()
    recorded = _executed(workload, *head, trace=trace)
    assert recorded == _executed(workload, *head)  # recording is inert
    for scheme, n_windows in POINTS:
        assert (_replayed(trace, scheme, n_windows)
                == _executed(workload, scheme, n_windows)), (scheme,
                                                            n_windows)


def test_trace_codes_every_window_instruction_and_flush_hint():
    trace = WindowTrace()
    kernel, __ = _kernel("SNP", 4)
    trace.attach(kernel)
    spawn_fork_join(kernel, 2, 6, flush_hint=True)
    result = kernel.run()
    counters = result.counters
    assert trace.ops.count(TRACE_SAVE) == counters.saves
    assert trace.ops.count(TRACE_RESTORE) == counters.restores
    assert trace.ops.count(TRACE_FLUSH) == 1
    assert len(trace.quanta) == 7 * len(kernel._observer.log)
    assert trace.steps == result.steps
    assert [(t.tid, t.name, t.state, t.result) for t in trace.threads] \
        == [(t.tid, t.name, t.state, t.result) for t in result.threads]


def test_a_pickled_trace_replays_the_same():
    """A trace replays in another process (the sweep engine's pool)."""
    trace = WindowTrace()
    _executed("spawn-join", "SP", 4, trace=trace)
    copy = pickle.loads(pickle.dumps(trace))
    for scheme, n_windows in POINTS:
        assert (_replayed(copy, scheme, n_windows)
                == _replayed(trace, scheme, n_windows))


class TestRefusals:
    @pytest.mark.parametrize("kwargs", [
        {"queue_policy": WorkingSetPolicy()},
        {"faults": FaultInjector(FaultPlan.parse("store_delay@1"))},
        {"audit": True},
        {"watchdog": 1000},
        {"verify_registers": True},
    ], ids=["working-set", "faults", "audit", "watchdog", "verify"])
    def test_a_run_the_proof_does_not_cover_does_not_record(self, kwargs):
        kernel, __ = _kernel("SP", 8, **kwargs)
        with pytest.raises(RuntimeFault, match="records only"):
            WindowTrace().attach(kernel)
        assert kernel._trace is None

    def test_an_unobserved_run_does_not_record(self):
        kernel = Kernel(n_windows=8, scheme="SP", verify_registers=False)
        with pytest.raises(RuntimeFault, match="records only"):
            WindowTrace().attach(kernel)

    def test_an_unfinished_recording_does_not_replay(self):
        trace = WindowTrace()
        kernel, __ = _kernel("SP", 8)
        trace.attach(kernel)
        spawn_ping_pong(kernel, 4)
        with pytest.raises(RuntimeFault, match="completed"):
            trace.replay(_kernel("SP", 8)[0])

    def test_a_cut_recording_does_not_replay(self):
        trace = WindowTrace()
        kernel, __ = _kernel("SP", 8)
        trace.attach(kernel)
        spawn_ping_pong(kernel, 6)
        with pytest.raises(RuntimeFault, match="step budget"):
            kernel.run(max_steps=7)
        kernel.run()
        with pytest.raises(RuntimeFault, match="uncut"):
            trace.replay(_kernel("SP", 8)[0])
