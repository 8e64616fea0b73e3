"""The replayable-workload registry: every workload a crash bundle can
embed, keyed by the ``workload`` field of its config.

A bundle's ``config`` dict is the *complete* description of the run
that crashed — workload name, workload parameters, and the kernel
knobs (scheme, windows, verification, audit, watchdog, step budget).
:func:`run_workload` turns such a config back into a live run, which
is what replay, delta-debugging minimization
(:mod:`repro.faults.minimize`), the fuzzer (:mod:`repro.faults.fuzz`)
and the trace CLI (:mod:`repro.metrics.trace`) all build on; the
spell-checker CLI builds through
:func:`repro.apps.spellcheck.pipeline.run_spellchecker`, the one
writer of a spell-check config.  Either way the config a bundle
records is the input the run was built from.

Each :class:`WorkloadDef` also declares its *shrinkable* parameters —
the workload-schedule axis of minimization (thread counts, stream
sizes and iteration budgets, each with a floor) — and a ``fuzz_draw``
hook that samples adversarial parameter sets from a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError


class WorkloadError(ReproError, ValueError):
    """A bundle config names a workload this build cannot rerun.

    Subclasses ``ValueError`` too so pre-registry callers that caught
    ``ValueError`` from replay keep working.
    """


@dataclass(frozen=True)
class Shrink:
    """One workload-axis reduction: halve ``key`` toward ``floor``."""

    key: str
    floor: Any
    kind: str = "int"  # "int" | "float" | "flag"


#: shrinks every workload shares (kernel knobs, not workload params);
#: ``watchdog`` shrinks time-to-detect for livelock bundles
COMMON_SHRINKS: Tuple[Shrink, ...] = (Shrink("watchdog", 1),)


@dataclass(frozen=True)
class WorkloadDef:
    """One replayable workload: builder + minimization/fuzzing hooks."""

    name: str
    build: Callable[[Any, Dict[str, Any]], None]
    shrinks: Tuple[Shrink, ...] = ()
    fuzz_draw: Optional[Callable[[random.Random], Dict[str, Any]]] = None

    def shrinkable(self) -> Tuple[Shrink, ...]:
        return self.shrinks + COMMON_SHRINKS


# ---------------------------------------------------------------------------
# builders


def _build_spellcheck(kernel, config: Dict[str, Any]) -> None:
    from repro.apps.spellcheck.pipeline import (
        SpellConfig,
        build_spellchecker,
    )

    scale = float(config.get("scale", 1.0))
    seed = int(config.get("seed", 1993))
    if "m" in config and "n" in config:
        spell = SpellConfig(m=int(config["m"]), n=int(config["n"]),
                            scale=scale, seed=seed)
    else:
        spell = SpellConfig.named(config.get("concurrency", "high"),
                                  config.get("granularity", "coarse"),
                                  scale=scale, seed=seed)
    build_spellchecker(kernel, spell)


def _build_call_depth(kernel, config: Dict[str, Any]) -> None:
    from repro.apps.synthetic import spawn_call_depth_workers

    spawn_call_depth_workers(kernel,
                             n_workers=int(config.get("n_workers", 3)),
                             iterations=int(config.get("iterations", 4)),
                             depth=int(config.get("depth", 3)),
                             work=int(config.get("work", 5)))


def _build_ping_pong(kernel, config: Dict[str, Any]) -> None:
    from repro.apps.synthetic import spawn_ping_pong

    spawn_ping_pong(kernel, rounds=int(config.get("rounds", 8)))


def _build_fork_join(kernel, config: Dict[str, Any]) -> None:
    from repro.apps.synthetic import spawn_fork_join

    spawn_fork_join(kernel,
                    n_children=int(config.get("n_children", 3)),
                    items=int(config.get("items", 12)),
                    flush_hint=bool(config.get("flush_hint", False)))


def _build_yield_storm(kernel, config: Dict[str, Any]) -> None:
    from repro.apps.synthetic import spawn_yield_storm

    spawn_yield_storm(kernel,
                      n_spinners=int(config.get("n_spinners", 2)),
                      spins=int(config.get("spins", 400)))


# ---------------------------------------------------------------------------
# fuzz parameter draws (small on purpose: the fuzzer runs with the
# full detection battery on, which is O(windows x threads) per step)


def _fuzz_spellcheck(rng: random.Random) -> Dict[str, Any]:
    return {"scale": rng.choice((0.02, 0.03, 0.05)),
            "m": rng.choice((1, 4, 16)),
            "n": rng.choice((1, 4, 16)),
            "seed": 1993}


def _fuzz_call_depth(rng: random.Random) -> Dict[str, Any]:
    return {"n_workers": rng.randint(1, 3),
            "iterations": rng.randint(1, 5),
            "depth": rng.randint(0, 4),
            "work": rng.randint(1, 8)}


def _fuzz_ping_pong(rng: random.Random) -> Dict[str, Any]:
    return {"rounds": rng.randint(2, 30)}


def _fuzz_fork_join(rng: random.Random) -> Dict[str, Any]:
    return {"n_children": rng.randint(1, 3),
            "items": rng.randint(4, 24),
            "flush_hint": rng.random() < 0.5}


def _fuzz_yield_storm(rng: random.Random) -> Dict[str, Any]:
    # A tight watchdog makes roughly half of these storms livelock
    # (detected) and the rest drain (survived).
    return {"n_spinners": rng.randint(1, 3),
            "spins": rng.randint(50, 400),
            "watchdog": rng.randint(100, 600)}


# ---------------------------------------------------------------------------
# the registry

WORKLOADS: Dict[str, WorkloadDef] = {}


def register_workload(workload: WorkloadDef) -> WorkloadDef:
    WORKLOADS[workload.name] = workload
    return workload


register_workload(WorkloadDef(
    "spellcheck", _build_spellcheck,
    shrinks=(Shrink("scale", 0.01, "float"),
             Shrink("m", 1), Shrink("n", 1)),
    fuzz_draw=_fuzz_spellcheck))

register_workload(WorkloadDef(
    "synthetic-call-depth", _build_call_depth,
    shrinks=(Shrink("n_workers", 1), Shrink("iterations", 1),
             Shrink("depth", 0), Shrink("work", 1)),
    fuzz_draw=_fuzz_call_depth))

register_workload(WorkloadDef(
    "synthetic-ping-pong", _build_ping_pong,
    shrinks=(Shrink("rounds", 1),),
    fuzz_draw=_fuzz_ping_pong))

register_workload(WorkloadDef(
    "synthetic-fork-join", _build_fork_join,
    shrinks=(Shrink("n_children", 1), Shrink("items", 1),
             Shrink("flush_hint", False, "flag")),
    fuzz_draw=_fuzz_fork_join))

register_workload(WorkloadDef(
    "synthetic-yield-storm", _build_yield_storm,
    shrinks=(Shrink("n_spinners", 1), Shrink("spins", 1)),
    fuzz_draw=_fuzz_yield_storm))


def get_workload(name: str) -> WorkloadDef:
    workload = WORKLOADS.get(name)
    if workload is None:
        raise WorkloadError(
            "cannot replay workload %r; known workloads: %s"
            % (name, ", ".join(sorted(WORKLOADS))), workload=name)
    return workload


# ---------------------------------------------------------------------------
# execution


def run_workload(config: Dict[str, Any], faults=None, crash_dir=None,
                 trial_budget: Optional[int] = None, instrument=None):
    """Run the workload a bundle config describes; returns RunResult.

    ``config`` supplies both the workload parameters and the kernel
    knobs; ``faults`` is an armed :class:`FaultInjector` (or None).
    A ``core`` key, which bundles recorded before the step-granular
    loop was retired carry, is ignored: there is one dispatch loop,
    and it carries every hook those runs armed (faults, audit,
    watchdog, step budget) bit-identically; the recorded name stays in
    the replayed bundle's config.

    ``trial_budget`` caps steps *without* entering the config (the
    minimizer's runaway guard for candidate runs); a ``max_steps`` in
    the config itself is part of the replayed run and is recorded.
    ``instrument``, when given, is called with the kernel before the
    workload spawns (the hook the trace CLI arms its observers with).
    Raises whatever the run raises.
    """
    from repro.runtime.kernel import Kernel

    workload = get_workload(str(config.get("workload")))
    max_steps = int(config.get("max_steps", 0)) or None
    if trial_budget is not None:
        max_steps = (trial_budget if max_steps is None
                     else min(max_steps, trial_budget))
    kernel = Kernel(
        n_windows=int(config.get("n_windows", 8)),
        scheme=str(config.get("scheme", "SP")),
        verify_registers=bool(config.get("verify_registers", True)),
        faults=faults,
        audit=bool(config.get("audit", False)),
        watchdog=int(config.get("watchdog", 0)) or None,
        crash_dir=crash_dir,
        crash_config=config)
    if instrument is not None:
        instrument(kernel)
    workload.build(kernel, config)
    return kernel.run(max_steps=max_steps)
