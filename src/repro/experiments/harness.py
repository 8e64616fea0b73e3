"""Shared experiment machinery: run one (scheme, windows, workload)
point and collect the measures the figures plot.  Sweeps go through
:meth:`repro.experiments.engine.Engine.run_points`.

Importing this module loads the simulator.  The point model
(:class:`ExperimentPoint`, the grid's axes, the default sweep) lives
in :mod:`repro.experiments.points`, which does not.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.core.working_set import FIFOPolicy, WorkingSetPolicy
from repro.experiments.points import ExperimentPoint, env_scale
from repro.metrics.observer import RunObserver
from repro.metrics.report import build_run_report


def run_point(scheme: str, n_windows: int, concurrency: str,
              granularity: str, scale: Optional[float] = None,
              working_set: bool = False, seed: int = 1993) -> ExperimentPoint:
    """Run the spell checker once and summarise the counters, with no
    observer attached.

    Every figure, table and example runs its points through the engine
    (:func:`run_report_point`, then
    :func:`~repro.experiments.engine.point_from_report`).  This bare
    run is what the workload benchmark's report-tax probe
    (``benchmarks/workloads/jobs.py``) times as its untaxed baseline,
    and what ``tests/experiments/test_differential.py`` compares the
    engine's points against.
    """
    if scale is None:
        scale = env_scale()
    config = SpellConfig.named(concurrency, granularity,
                               scale=scale, seed=seed)
    policy = WorkingSetPolicy() if working_set else FIFOPolicy()
    result, output = run_spellchecker(
        n_windows, scheme, config, queue_policy=policy)
    c = result.counters
    names = {t.tid: t.name for t in result.threads}
    return ExperimentPoint(
        scheme=scheme,
        n_windows=n_windows,
        concurrency=concurrency,
        granularity=granularity,
        policy=policy.name,
        total_cycles=c.total_cycles,
        switch_cycles=c.switch_cycles,
        trap_cycles=c.trap_cycles,
        compute_cycles=c.compute_cycles,
        context_switches=c.context_switches,
        avg_switch_cycles=c.avg_switch_cycles,
        saves=c.saves,
        restores=c.restores,
        overflow_traps=c.overflow_traps,
        underflow_traps=c.underflow_traps,
        trap_probability=c.trap_probability,
        per_thread_switches={
            names[tid]: n for tid, n in c.per_thread_switches.items()},
        per_thread_saves={
            names[tid]: n for tid, n in c.per_thread_saves.items()},
        output_bytes=len(output),
    )


def run_report_point(scheme: str, n_windows: int, concurrency: str,
                     granularity: str, scale: Optional[float] = None,
                     working_set: bool = False, seed: int = 1993,
                     faults: str = "", fault_seed: int = 1993,
                     audit: bool = False, watchdog: int = 0,
                     trace=None) -> Dict:
    """Run one spell-checker point with a
    :class:`~repro.metrics.observer.RunObserver` attached and return its
    versioned RunReport dict: what the engine executes and caches for
    every point.

    The observer is fed by the kernel, not by tracing: the kernel
    appends one record per quantum to its log, from which the report's
    ``behavior`` and ``events`` sections are computed, and snapshots
    the window map into its timeline at each dispatch; every point,
    with or without faults, audit or watchdog, runs on the batched
    loop.

    ``faults`` (a :meth:`FaultPlan.parse` spec), ``audit`` and
    ``watchdog`` turn on the robustness machinery; register
    verification is forced on under injection so corruptions are
    detected rather than silently wrong.  The extra config keys are
    only added when a knob is non-default, keeping vanilla reports
    byte-identical to previous versions.

    ``trace``, a :class:`~repro.runtime.replay.WindowTrace`, records the
    run for :func:`replay_report_point` (a FIFO point without faults,
    audit or watchdog only).
    """
    if scale is None:
        scale = env_scale()
    config = SpellConfig.named(concurrency, granularity,
                               scale=scale, seed=seed)
    policy = WorkingSetPolicy() if working_set else FIFOPolicy()
    observer = RunObserver()

    def instrument(kernel):
        observer.attach(kernel)
        if trace is not None:
            trace.attach(kernel)

    injector = None
    if faults:
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.parse(faults, seed=fault_seed))
    result, output = run_spellchecker(
        n_windows, scheme, config, queue_policy=policy,
        instrument=instrument,
        verify_registers=bool(faults), faults=injector,
        audit=audit, watchdog=watchdog or None)
    report_config = {"scheme": scheme, "n_windows": n_windows,
                     "concurrency": concurrency,
                     "granularity": granularity,
                     "policy": policy.name, "scale": scale, "seed": seed,
                     "workload": "spellcheck",
                     "output_bytes": len(output)}
    if faults:
        report_config["faults"] = faults
        report_config["fault_seed"] = fault_seed
    if audit:
        report_config["audit"] = True
    if watchdog:
        report_config["watchdog"] = watchdog
    return build_run_report(result, config=report_config,
                            observer=observer)


def replay_report_point(trace, config: Dict, scheme: str,
                        n_windows: int) -> Dict:
    """The RunReport of the point ``(scheme, n_windows)`` of the run
    ``trace`` recorded, whose report config was ``config``: the recorded
    window trace is replayed through that scheme and window count
    (:meth:`~repro.runtime.replay.WindowTrace.replay`), and the report
    is byte-identical to :func:`run_report_point`'s for the point."""
    from repro.runtime.kernel import Kernel

    kernel = Kernel(n_windows=n_windows, scheme=scheme,
                    verify_registers=False)
    observer = RunObserver().attach(kernel)
    result = trace.replay(kernel)
    return build_run_report(
        result, config=dict(config, scheme=scheme, n_windows=n_windows),
        observer=observer)
