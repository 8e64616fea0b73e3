"""Delta-debugging crash-bundle minimization: shrink a failing bundle
to its essence.

A replayable crash bundle (PR 3) embeds the *entire* fault plan and
workload that produced a failure — far more than the failure needs.
Following the binary trace-simplification idea of El-Zawawy & Alanazi
(see PAPERS.md), :func:`minimize_bundle` reduces a bundle along two
axes, verifying by deterministic replay every candidate that could
reproduce:

1. **The fault plan.**  Classic ddmin (binary reduction with
   complement testing) over the ``FaultSpec`` list finds a minimal
   subset that still reproduces; each surviving spec's firing step
   (``at``) is then binary-shrunk toward 1 and its payload (``arg``)
   simplified.
2. **The workload schedule.**  Each workload's registered shrinkable
   parameters (thread counts, stream sizes, iteration budgets — see
   :mod:`repro.faults.workloads`) are binary-shrunk toward their
   floors, plus the watchdog stall budget when one is armed.

A candidate *reproduces* when its run raises the same error class
with the same context shape (same context keys, same failing thread)
as the original — exact step/cycle values necessarily move as the
schedule shrinks.  A fault-free candidate cannot reproduce a crash
whose context records fired faults (``faults_fired``), so it is
counted but not run.  Every candidate run is capped by a step budget
so a shrink that un-crashes a livelock cannot spin forever.

The result is written as a crash-bundle v2 whose ``minimization``
section carries provenance: the original bundle's hash, the reduction
log, and candidate/replay counts.  The minimized bundle is itself a
first-class bundle: ``python -m repro.faults replay`` verifies it
bit-for-bit (the provenance section is excluded from replay identity).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.faults.bundle import (
    bundle_to_json,
    load_bundle,
    replay_bundle,
    strip_provenance,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.workloads import Shrink, get_workload, run_workload
from repro.ioutil import atomic_write_text

#: step-budget multiplier for candidate runs (vs the original crash)
TRIAL_BUDGET_SLACK = 4
#: floor for the candidate step budget, so tiny bundles still leave
#: room for a shrunk-but-slower schedule to reach the failure
MIN_TRIAL_BUDGET = 50_000
#: halvings a float workload knob is shrunk by
FLOAT_SHRINK_STEPS = 8


class MinimizeError(ReproError):
    """The bundle cannot be minimized (typically: it does not
    reproduce its own failure to begin with)."""


Signature = Tuple[str, Tuple[str, ...], Optional[str]]


def failure_signature(error_type: str,
                      context: Dict[str, Any]) -> Signature:
    """The identity a candidate must match to count as reproducing:
    error class + context *shape* + the failing thread.

    Values like ``step``/``cycle`` shift as the schedule shrinks, so
    only the key set is compared — except ``thread``, whose value is
    part of the diagnosis ("which thread's frame got corrupted")."""
    return (error_type, tuple(sorted(context)),
            context.get("thread"))


# ---------------------------------------------------------------------------
# generic reducers


def ddmin(items: Sequence, test: Callable[[List], bool]) -> List:
    """Zeller's ddmin: a minimal failing subset of ``items``.

    ``test(subset)`` returns True when the subset still fails.  The
    input is assumed failing; the result is 1-minimal with respect to
    chunk removal."""
    items = list(items)
    n = 2
    while len(items) >= 2:
        size = (len(items) + n - 1) // n
        chunks = [items[i:i + size] for i in range(0, len(items), size)]
        reduced = False
        for i, chunk in enumerate(chunks):
            if test(chunk):
                items, n, reduced = chunk, 2, True
                break
        if not reduced:
            for i in range(len(chunks)):
                complement = [x for j, c in enumerate(chunks)
                              if j != i for x in c]
                if complement and test(complement):
                    items = complement
                    n = max(n - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    if len(items) == 1 and test([]):
        return []
    return items


def shrink_int(value: int, floor: int,
               test: Callable[[int], bool]) -> int:
    """Binary-shrink an integer toward ``floor`` (monotone heuristic:
    the smallest reproducing value in [floor, value])."""
    if value <= floor:
        return value
    lo, hi = floor, value  # hi is known to reproduce
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def shrink_float(value: float, floor: float,
                 test: Callable[[float], bool]) -> float:
    """Binary-shrink a float toward ``floor`` in at most
    ``FLOAT_SHRINK_STEPS`` halvings (rounded to 4 places so the
    minimized config stays readable)."""
    if value <= floor:
        return value
    if test(round(floor, 4)):
        return round(floor, 4)
    lo, hi = floor, value
    for __ in range(FLOAT_SHRINK_STEPS):
        mid = round((lo + hi) / 2, 4)
        if mid <= lo or mid >= hi:
            break
        if test(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# the engine


@dataclass
class MinimizeResult:
    """Outcome of one minimization: the artifact plus its provenance."""

    path: Path
    bundle: Dict[str, Any]
    original_specs: int
    final_specs: int
    original_steps: int
    final_steps: int
    candidates: int
    reproductions: int
    verified: bool
    log: List[str] = field(default_factory=list)

    @property
    def error_type(self) -> str:
        return self.bundle["error"]["type"]

    def summary(self) -> str:
        return ("%s: %d -> %d spec(s), %d -> %d steps "
                "(%d candidates, %d reproduced)"
                % (self.error_type, self.original_specs,
                   self.final_specs, self.original_steps,
                   self.final_steps, self.candidates,
                   self.reproductions))


class _Minimizer:
    def __init__(self, config: Dict[str, Any], plan: FaultPlan,
                 target: Signature, trial_budget: int):
        self.config = config
        self.plan = plan
        self.target = target
        self.trial_budget = trial_budget
        self.candidates = 0
        self.reproductions = 0
        self.log: List[str] = []

    # -- one candidate run --------------------------------------------------

    def attempt(self, config: Dict[str, Any],
                specs: Tuple[FaultSpec, ...]) -> bool:
        """Run a candidate; True when the original failure reproduces.

        A fault-free candidate of a target whose context carries
        ``faults_fired`` is decided without running it: with no
        injector attached, no crash context gets that key, so the run
        cannot match (DESIGN §8).  It still counts as a candidate."""
        self.candidates += 1
        if not specs and "faults_fired" in self.target[1]:
            return False
        plan = FaultPlan(seed=self.plan.seed, specs=tuple(specs))
        injector = FaultInjector(plan) if plan.specs else None
        try:
            run_workload(config, faults=injector,
                         trial_budget=self.trial_budget)
        except ReproError as exc:
            if failure_signature(type(exc).__name__,
                                 exc.context) == self.target:
                self.reproductions += 1
                return True
            return False
        return False

    # -- axis 1: the fault plan ---------------------------------------------

    def reduce_plan(self) -> None:
        specs = list(self.plan.specs)
        if specs:
            before = len(specs)
            kept = ddmin(specs,
                         lambda subset: self.attempt(self.config,
                                                     tuple(subset)))
            if len(kept) != before:
                self.log.append("plan: %d -> %d spec(s) via ddmin"
                                % (before, len(kept)))
            specs = kept
        for i, spec in enumerate(specs):
            specs[i] = self._shrink_spec(specs, i, spec)
        self.plan = FaultPlan(seed=self.plan.seed, specs=tuple(specs))

    def _shrink_spec(self, specs: List[FaultSpec], i: int,
                     spec: FaultSpec) -> FaultSpec:
        def with_spec(candidate: FaultSpec) -> bool:
            trial = list(specs)
            trial[i] = candidate
            return self.attempt(self.config, tuple(trial))

        # firing step: binary-shrink `at` toward the first site visit
        best_at = shrink_int(spec.at, 1,
                             lambda at: with_spec(
                                 FaultSpec(spec.kind, at, spec.arg)))
        if best_at != spec.at:
            self.log.append("spec %s: at %d -> %d"
                            % (spec.kind, spec.at, best_at))
            spec = FaultSpec(spec.kind, best_at, spec.arg)
        # payload: an RNG-drawn arg (None) is the simplest description,
        # then 0
        for arg in (None, 0):
            if spec.arg == arg:
                break
            candidate = FaultSpec(spec.kind, spec.at, arg)
            if with_spec(candidate):
                self.log.append("spec %s: arg %r -> %r"
                                % (spec.kind, spec.arg, arg))
                spec = candidate
                break
        specs[i] = spec
        return spec

    # -- axis 2: the workload schedule --------------------------------------

    def reduce_workload(self) -> None:
        workload = get_workload(str(self.config.get("workload")))
        for shrink in workload.shrinkable():
            self._shrink_param(shrink)

    def _shrink_param(self, shrink: Shrink) -> None:
        key = shrink.key
        if key not in self.config:
            return
        value = self.config[key]

        def with_value(candidate) -> bool:
            trial = dict(self.config)
            trial[key] = candidate
            return self.attempt(trial, self.plan.specs)

        if shrink.kind == "flag":
            if value != shrink.floor and with_value(shrink.floor):
                best = shrink.floor
            else:
                best = value
        elif shrink.kind == "float":
            best = shrink_float(float(value), float(shrink.floor),
                                with_value)
        else:
            current = int(value)
            if current <= 0:  # disarmed knob (e.g. watchdog=0)
                return
            best = shrink_int(current, int(shrink.floor), with_value)
        if best != value:
            self.log.append("workload: %s %s -> %s" % (key, value, best))
            self.config[key] = best


def minimize_bundle(path, out_dir=None,
                    trial_budget: Optional[int] = None) -> MinimizeResult:
    """Delta-debug a failing bundle; returns the minimized artifact.

    The minimized bundle lands in ``out_dir`` (default: alongside the
    original) as ``crash-<type>-<digest>.min.json``, where the digest
    covers the replay-identity content — so ``replay`` of the minimized
    bundle writes the matching ``crash-<type>-<digest>.json``.

    Raises :class:`MinimizeError` when the original bundle does not
    reproduce its recorded failure (nothing to minimize), and
    propagates any non-``ReproError`` a candidate run raises (a
    candidate exposing a *new* bug must not be silently eaten).  The
    fault-free candidate of a crash whose context carries
    ``faults_fired`` is not run (see :meth:`_Minimizer.attempt`), so a
    non-``ReproError`` that run would raise is not seen here;
    ``tests/faults/test_minimize.py`` runs those configs fault-free.
    """
    path = Path(path)
    bundle = load_bundle(path)
    original_text = path.read_text()
    original_digest = hashlib.sha256(
        original_text.encode("utf-8")).hexdigest()
    config = dict(bundle["config"])
    plan = (FaultPlan.from_payload(bundle["fault_plan"])
            if bundle.get("fault_plan") else FaultPlan())
    target = failure_signature(bundle["error"]["type"],
                               bundle["error"].get("context", {}))
    original_steps = int(bundle.get("steps", 0))
    if trial_budget is None:
        trial_budget = max(MIN_TRIAL_BUDGET,
                           TRIAL_BUDGET_SLACK * original_steps)

    engine = _Minimizer(config, plan, target, trial_budget)
    if not engine.attempt(config, plan.specs):
        raise MinimizeError(
            "bundle does not reproduce its recorded failure; nothing "
            "to minimize", bundle=path.name,
            error=bundle["error"]["type"])

    engine.reduce_plan()
    engine.reduce_workload()

    # Produce the final bundle by actually crashing the reduced run.
    out_dir = Path(out_dir) if out_dir is not None else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    injector = (FaultInjector(engine.plan)
                if engine.plan.specs else None)
    try:
        run_workload(engine.config, faults=injector, crash_dir=out_dir)
    except ReproError as exc:
        final_path = getattr(exc, "bundle_path", None)
        if final_path is None:
            raise MinimizeError(
                "minimized run crashed but wrote no bundle",
                error=type(exc).__name__)
    else:
        raise MinimizeError(
            "minimized configuration no longer crashes (reduction "
            "verified against a stale signature?)", bundle=path.name)

    final = load_bundle(final_path)
    Path(final_path).unlink()  # superseded by the .min.json artifact
    final["minimization"] = {
        "original": {
            "file": path.name,
            "sha256": original_digest,
            "specs": len(plan.specs),
            "steps": original_steps,
        },
        "candidates": engine.candidates,
        "reproductions": engine.reproductions,
        "log": list(engine.log),
    }
    core_text = bundle_to_json(strip_provenance(final))
    digest = hashlib.sha256(core_text.encode("utf-8")).hexdigest()[:12]
    min_path = out_dir / ("crash-%s-%s.min.json"
                          % (final["error"]["type"].lower(), digest))
    atomic_write_text(min_path, bundle_to_json(final))

    matched, replay_path, detail = replay_bundle(min_path, workdir=out_dir)
    if not matched:
        raise MinimizeError(
            "minimized bundle failed bit-for-bit replay: %s" % detail,
            bundle=min_path.name)
    if replay_path is not None and replay_path != min_path:
        Path(replay_path).unlink()

    return MinimizeResult(
        path=min_path, bundle=final,
        original_specs=len(plan.specs),
        final_specs=len(engine.plan.specs),
        original_steps=original_steps,
        final_steps=int(final.get("steps", 0)),
        candidates=engine.candidates,
        reproductions=engine.reproductions,
        verified=True, log=list(engine.log))
