"""Shared experiment machinery: run one (scheme, windows, workload)
point, sweep window counts, and collect the measures the figures plot.

Importing this module loads the simulator.  The point model it
re-exports (:class:`ExperimentPoint`, the grid's axes, the default
sweep) lives in :mod:`repro.experiments.points`, which does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.core.working_set import FIFOPolicy, WorkingSetPolicy
from repro.experiments.points import (
    SCHEMES,
    ExperimentPoint,
    env_scale,
    env_windows,
)
from repro.metrics.observer import RunObserver
from repro.metrics.report import build_run_report


def run_point(scheme: str, n_windows: int, concurrency: str,
              granularity: str, scale: Optional[float] = None,
              working_set: bool = False, seed: int = 1993) -> ExperimentPoint:
    """Run the spell checker once and summarise the counters."""
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
                     audit: bool = False, watchdog: int = 0) -> Dict:
    """Run one spell-checker point with a
    :class:`~repro.metrics.observer.RunObserver` attached and return its
    versioned RunReport dict (the document ``benchmarks/`` emits for
    cross-PR perf trajectories).

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
    """
    if scale is None:
        scale = env_scale()
    config = SpellConfig.named(concurrency, granularity,
                               scale=scale, seed=seed)
    policy = WorkingSetPolicy() if working_set else FIFOPolicy()
    observer = RunObserver()
    injector = None
    if faults:
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.parse(faults, seed=fault_seed))
    result, output = run_spellchecker(
        n_windows, scheme, config, queue_policy=policy,
        instrument=observer.attach,
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


def sweep_windows(concurrency: str, granularity: str,
                  windows: Optional[Sequence[int]] = None,
                  schemes: Sequence[str] = SCHEMES,
                  scale: Optional[float] = None,
                  working_set: bool = False,
                  engine=None) -> Dict[str, List[ExperimentPoint]]:
    """Run every scheme over a window-count sweep.

    With an :class:`~repro.experiments.engine.Engine` the grid fans out
    over its worker pool and result cache; without one each point runs
    serially in-process (the reference path the differential tests
    compare the engine against).
    """
    if windows is None:
        windows = env_windows()
    if scale is None:
        scale = env_scale()
    if engine is not None:
        from repro.experiments.engine import sweep_specs

        specs = sweep_specs(concurrency, granularity, windows, schemes,
                            scale, working_set=working_set)
        points = engine.run_points(specs)
        out: Dict[str, List[ExperimentPoint]] = {s: [] for s in schemes}
        for spec, point in zip(specs, points):
            if point is None:
                continue  # quarantined by a keep_going engine
            out[spec.scheme].append(point)
        return out
    out = {}
    for scheme in schemes:
        pts = []
        for n in windows:
            if scheme == "SP" and n < 4:
                continue
            pts.append(run_point(scheme, n, concurrency, granularity,
                                 scale=scale, working_set=working_set))
        out[scheme] = pts
    return out
