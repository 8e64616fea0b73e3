"""Spans around each layer's public functions, and the per-layer
metrics computed from them.

Everything here is installed from benchmark code, for the traced pass
only: the untraced pass that produces the end-to-end metrics runs the
program unmodified.  Installation replaces public functions and
methods with recording wrappers:

* ``repro.runtime``: ``Kernel.run``.  On entry it also wraps the
  kernel's scheme instance (``context_switch``, ``handle_overflow``,
  ``handle_underflow``) and its event bus (``emit``).  Both execution
  loops look those up on the instance after ``run`` starts, so the
  wrappers see every call;
* ``repro.faults`` / ``repro.analysis``: ``run_workload`` as bound in
  the fuzzer (a trial) and in the minimizer and bundle replay (a
  replay), ``minimize_bundle``, ``write_crash_bundle`` and
  ``analyze_workload_config``;
* ``repro.experiments``: the table and figure targets of the CLI,
  ``Engine.run_reports`` (which also yields its ``EngineStats``),
  ``cache_key`` and ``source_digest``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

SCHEMES = ("NS", "SNP", "SP")
TARGETS = ("table1", "table2", "fig11", "fig12", "fig13", "fig14",
           "fig15")
SIM_KEYS = ("steps", "context_switches", "window_traps",
            "windows_spilled", "total_cycles")

#: name -> unit, in print order.  Values are per benchmark operation
#: unless the name says otherwise (ratios, per-call and percentile
#: values).  A layer the workload never enters reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.switch_s": "s",
    "core.switch_calls": "count",
    "core.switch_ns_per_call": "ns",
    **{"core.switch_ns_per_call." + s: "ns" for s in SCHEMES},
    "core.overflow_s": "s",
    "core.overflow_calls": "count",
    "core.underflow_s": "s",
    "core.underflow_calls": "count",
    "runtime.loop_self_s": "s",
    "runtime.loop_self_s.recorded": "s",
    "runtime.loop_ns_per_step": "ns",
    "metrics.emit_s": "s",
    "metrics.events": "count",
    "metrics.build_report_s": "s",
    "apps.build_s": "s",
    **{"experiments.%s_s" % t: "s" for t in TARGETS},
    "experiments.points_executed": "count",
    "experiments.points_cached": "count",
    "experiments.point_busy_s": "s",
    "experiments.point_p50_ms": "ms",
    "experiments.point_p95_ms": "ms",
    "experiments.pool_idle_s": "s",
    "experiments.cache_key_s": "s",
    "experiments.source_digest_s": "s",
    "experiments.cache_hit_ms_p50": "ms",
    "experiments.report_tax_ratio": "ratio",
    "faults.trial_s": "s",
    "faults.trials": "count",
    "faults.replay_s": "s",
    "faults.replays": "count",
    "faults.minimize_self_s": "s",
    "faults.bundle_write_s": "s",
    "faults.bundles": "count",
    "analysis.prevalidate_s": "s",
    "faults.survived": "count",
    "faults.detected": "count",
    "faults.unexpected": "count",
    **{"sim." + k: "count" for k in SIM_KEYS},
    "residual_s": "s",
    "trace_overhead_ratio": "ratio",
}


def sim_totals(counters: dict, steps: int) -> Dict[str, int]:
    """The ``sim.*`` counts of one run from its ``Counters.snapshot()``
    (or a RunReport's ``counters`` section)."""
    return {
        "steps": int(steps),
        "context_switches": counters["context_switches"],
        "window_traps": (counters["overflow_traps"]
                         + counters["underflow_traps"]),
        "windows_spilled": counters["windows_spilled"],
        "total_cycles": counters["total_cycles"],
    }


def add_sim(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key in SIM_KEYS:
        total[key] = total.get(key, 0) + more[key]


# ---------------------------------------------------------------------------
# installation


def _wrap_kernel(rec, kernel) -> None:
    scheme = kernel.scheme
    tag = type(scheme).__name__[:-len("Scheme")]
    for attr, label in (("context_switch", "switch"),
                        ("handle_overflow", "overflow"),
                        ("handle_underflow", "underflow")):
        setattr(scheme, attr, rec.wrap(getattr(scheme, attr),
                                       "core.%s.%s" % (label, tag),
                                       keep=False))
    bus = kernel.events
    bus.emit = rec.wrap(bus.emit, "metrics.emit", keep=False)


def install_runtime(rec, sim: Dict[str, int]) -> None:
    """Span every ``Kernel.run`` (and, inside it, the scheme and event
    bus); each finished run's counters are added to ``sim``."""
    from repro.errors import ReproError
    from repro.runtime.kernel import Kernel

    original = Kernel.run

    def run(self, *args, **kwargs):
        _wrap_kernel(rec, self)
        recorded = self.crash_dir is not None
        rec.begin("runtime.Kernel.run.recorded" if recorded
                  else "runtime.Kernel.run")
        steps = 0
        try:
            result = original(self, *args, **kwargs)
            steps = result.steps
            return result
        except ReproError as exc:
            steps = exc.context.get("step", 0)
            raise
        finally:
            rec.end()
            add_sim(sim, sim_totals(self.counters.snapshot(), steps))

    Kernel.run = run


def install_faults(rec) -> None:
    import repro.analysis.topology as topology
    import repro.faults.bundle as bundle
    import repro.faults.fuzz as fuzz
    import repro.faults.minimize as minimize
    import repro.faults.workloads as workloads

    fuzz.run_workload = rec.wrap(fuzz.run_workload, "faults.trial")
    minimize.run_workload = rec.wrap(minimize.run_workload, "faults.replay")
    # bundle replay imports run_workload from its module at call time
    workloads.run_workload = rec.wrap(workloads.run_workload,
                                      "faults.replay")
    wrapped = rec.wrap(minimize.minimize_bundle, "faults.minimize")
    fuzz.minimize_bundle = minimize.minimize_bundle = wrapped
    bundle.write_crash_bundle = rec.wrap(bundle.write_crash_bundle,
                                         "faults.bundle_write")
    topology.analyze_workload_config = rec.wrap(
        topology.analyze_workload_config, "analysis.prevalidate",
        keep=False)


def install_experiments(rec, engine_stats: List[dict]) -> None:
    """Span the CLI targets and the engine; every ``run_reports`` call
    appends its ``EngineStats`` to ``engine_stats``."""
    import repro.experiments.__main__ as cli
    import repro.experiments.engine as engine

    cli.run_table1 = rec.wrap(cli.run_table1, "experiments.table1")
    cli.run_table2 = rec.wrap(cli.run_table2, "experiments.table2")
    for name in list(cli.FIGURES):
        cli.FIGURES[name] = rec.wrap(cli.FIGURES[name],
                                     "experiments." + name)
    engine.cache_key = rec.wrap(engine.cache_key,
                                "experiments.cache_key", keep=False)
    engine.source_digest = rec.wrap(engine.source_digest,
                                    "experiments.source_digest",
                                    keep=False)
    original = engine.Engine.run_reports

    def run_reports(self, specs):
        start = time.perf_counter()
        rec.begin("experiments.run_reports")
        try:
            return original(self, specs)
        finally:
            rec.end()
            stats = self.last_stats
            engine_stats.append({
                "jobs": self.jobs,
                "wall_s": time.perf_counter() - start,
                "executed": stats.executed, "hits": stats.hits,
                "failures": len(stats.failures),
                "point_wall_ms": list(stats.point_wall_ms),
                "hit_latency_ms": list(stats.hit_latency_ms)})

    engine.Engine.run_reports = run_reports


# ---------------------------------------------------------------------------
# metrics


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(totals: Dict[str, Dict[str, float]], n_ops: int,
                  sim: Dict[str, int],
                  engine_stats: List[dict],
                  outcomes: Dict[str, int],
                  probe: Optional[Dict[str, float]],
                  trace_overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric (see :data:`PER_LAYER_UNITS`) from the
    span totals of ``n_ops`` traced operations."""
    per = 1.0 / max(1, n_ops)

    def get(name: str, field: str = "total_s") -> float:
        return totals.get(name, {}).get(field, 0.0)

    out: Dict[str, float] = {}
    for label in ("switch", "overflow", "underflow"):
        self_s = sum(get("core.%s.%s" % (label, s), "self_s")
                     for s in SCHEMES)
        calls = sum(get("core.%s.%s" % (label, s), "count")
                    for s in SCHEMES)
        out["core.%s_s" % label] = self_s * per
        out["core.%s_calls" % label] = calls * per
        if label == "switch":
            out["core.switch_ns_per_call"] = (1e9 * self_s / calls
                                              if calls else 0.0)
            for s in SCHEMES:
                n = get("core.switch." + s, "count")
                out["core.switch_ns_per_call." + s] = (
                    1e9 * get("core.switch." + s, "self_s") / n
                    if n else 0.0)
    loop = get("runtime.Kernel.run", "self_s")
    recorded = get("runtime.Kernel.run.recorded", "self_s")
    out["runtime.loop_self_s"] = loop * per
    out["runtime.loop_self_s.recorded"] = recorded * per
    out["runtime.loop_ns_per_step"] = (1e9 * (loop + recorded)
                                       / sim["steps"]
                                       if sim.get("steps") else 0.0)
    out["metrics.emit_s"] = get("metrics.emit", "self_s") * per
    out["metrics.events"] = get("metrics.emit", "count") * per
    out["metrics.build_report_s"] = (probe or {}).get("build_report_s",
                                                      0.0)
    out["apps.build_s"] = get("apps.run_spellchecker", "self_s") * per

    for target in TARGETS:
        out["experiments.%s_s" % target] = get("experiments." + target) * per
    busy = [ms for s in engine_stats for ms in s["point_wall_ms"]]
    hits = [ms for s in engine_stats for ms in s["hit_latency_ms"]]
    out["experiments.points_executed"] = sum(
        s["executed"] for s in engine_stats) * per
    out["experiments.points_cached"] = sum(
        s["hits"] for s in engine_stats) * per
    out["experiments.point_busy_s"] = sum(busy) / 1000.0 * per
    out["experiments.point_p50_ms"] = _percentile(busy, 50)
    out["experiments.point_p95_ms"] = _percentile(busy, 95)
    out["experiments.pool_idle_s"] = sum(
        s["jobs"] * s["wall_s"] - sum(s["point_wall_ms"]) / 1000.0
        for s in engine_stats if s["executed"]) * per
    out["experiments.cache_key_s"] = get("experiments.cache_key") * per
    out["experiments.source_digest_s"] = get(
        "experiments.source_digest") * per
    out["experiments.cache_hit_ms_p50"] = _percentile(hits, 50)
    out["experiments.report_tax_ratio"] = (probe or {}).get(
        "report_tax_ratio", 0.0)

    out["faults.trial_s"] = get("faults.trial") * per
    out["faults.trials"] = get("faults.trial", "count") * per
    out["faults.replay_s"] = get("faults.replay") * per
    out["faults.replays"] = get("faults.replay", "count") * per
    out["faults.minimize_self_s"] = get("faults.minimize", "self_s") * per
    out["faults.bundle_write_s"] = get("faults.bundle_write") * per
    out["faults.bundles"] = get("faults.bundle_write", "count") * per
    out["analysis.prevalidate_s"] = get("analysis.prevalidate") * per
    for key in ("survived", "detected", "unexpected"):
        out["faults." + key] = outcomes.get(key, 0) * per

    for key in SIM_KEYS:
        out["sim." + key] = sim.get(key, 0) * per
    out["residual_s"] = get("bench.op", "self_s") * per
    out["trace_overhead_ratio"] = trace_overhead_ratio
    return out
