"""Parallel sweep engine with an on-disk content-addressed result cache.

Every figure and table of the paper's evaluation is a sweep over
(scheme x windows x granularity x concurrency).  The engine fans those
points out over a ``multiprocessing`` worker pool and memoises each
point's full RunReport (the ``repro.run-report`` v1 document) in a
content-addressed store, so:

* a sweep uses every core (``jobs=N``, default ``os.cpu_count()``);
* an interrupted sweep resumes from the completed points — each
  finished point is written (atomically) the moment it arrives, and a
  later run executes only the missing keys;
* a repeated sweep is pure cache hits and executes zero points;
* cached sweeps double as regression artifacts: the payload is the
  versioned RunReport JSON, diffable across PRs.

Cache key = SHA-256 over the point parameters (scheme, windows,
granularity, concurrency, scale, seed, policy) *plus* the calibrated
cost-model constants, ``repro.__version__``, the RunReport schema
version and a digest of the whole ``repro`` source tree — so editing
any code that could move a result invalidates every stale entry by
construction, with no mtime games.

Determinism contract: the same :class:`PointSpec` produces a
bit-identical RunReport regardless of worker count, execution order or
cache state (the differential test layer enforces this).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.costs import CostModel
from repro.errors import ReproError, TransientError
from repro.experiments.points import ExperimentPoint
from repro.ioutil import atomic_write_text  # noqa: F401  (re-export)
from repro.metrics.report import SCHEMA_VERSION, from_json, to_json

CACHE_SCHEMA = "repro.sweep-cache"
CACHE_VERSION = 1

MANIFEST_SCHEMA = "repro.failure-manifest"
MANIFEST_VERSION = 1

#: environment knobs understood by :func:`default_jobs` / :func:`default_cache_dir`
ENV_JOBS = "REPRO_JOBS"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_jobs() -> int:
    """Worker-pool width: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    raw = os.environ.get(ENV_JOBS)
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-experiments``."""
    raw = os.environ.get(ENV_CACHE_DIR)
    if raw:
        return Path(raw)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-experiments"


# ---------------------------------------------------------------------------
# point specifications


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: everything that determines a run's results.

    The robustness fields (``faults``, ``fault_seed``, ``audit``,
    ``watchdog``) default to "off" and are deliberately kept out of
    :attr:`label`, which stays the stable human key the goldens and
    figures use.
    """

    scheme: str
    n_windows: int
    concurrency: str
    granularity: str
    scale: float
    seed: int = 1993
    working_set: bool = False
    faults: str = ""
    fault_seed: int = 1993
    audit: bool = False
    watchdog: int = 0

    @property
    def label(self) -> str:
        policy = "ws" if self.working_set else "fifo"
        return "%s/w%d/%s/%s/%s" % (self.scheme, self.n_windows,
                                    self.concurrency, self.granularity,
                                    policy)

    def to_payload(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "PointSpec":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def cost_model_fingerprint() -> Dict[str, int]:
    """The calibrated constants that feed every cycle count."""
    return asdict(CostModel())


_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    The version string alone can't be trusted for invalidation in a
    development checkout — any edit to the simulator changes results
    without touching ``__version__`` — so the digest makes *every*
    code change re-key the cache.  Computed once per process.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def cache_fingerprint() -> Dict[str, object]:
    """Everything *besides* the point parameters that can change results."""
    return {
        "schema": CACHE_SCHEMA,
        "cache_version": CACHE_VERSION,
        "repro_version": __version__,
        "report_version": SCHEMA_VERSION,
        "source_digest": source_digest(),
        "cost_model": cost_model_fingerprint(),
    }


def cache_key(spec: PointSpec,
              fingerprint: Optional[Dict[str, object]] = None) -> str:
    """Content address of one point's RunReport."""
    doc = {"fingerprint": fingerprint or cache_fingerprint(),
           "point": spec.to_payload()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_specs(concurrency: str, granularity: str,
                windows: Sequence[int],
                schemes: Sequence[str],
                scale: float,
                working_set: bool = False) -> List[PointSpec]:
    """The (scheme x windows) grid for one figure series, skipping the
    SP points below its 4-window minimum (same rule as the serial
    :func:`~repro.experiments.harness.sweep_windows`)."""
    specs = []
    for scheme in schemes:
        for n in windows:
            if scheme == "SP" and n < 4:
                continue
            specs.append(PointSpec(scheme=scheme, n_windows=n,
                                   concurrency=concurrency,
                                   granularity=granularity, scale=scale,
                                   working_set=working_set))
    return specs


# ---------------------------------------------------------------------------
# the on-disk store


class ResultCache:
    """Content-addressed RunReport store: ``objects/<k[:2]>/<k>.json``
    plus a ``manifest.json`` describing the entries for humans.

    The *objects* are the source of truth — checkpoint/resume works off
    their presence alone, so a sweep killed between manifest updates
    loses nothing.  All writes are temp-file-plus-rename atomic.
    """

    def __init__(self, root) -> None:
        self.root = Path(root).expanduser()
        self.objects = self.root / "objects"

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / (key + ".json")

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            return from_json(path.read_text())
        except (ValueError, OSError):
            return None  # corrupt entry: treat as a miss, re-execute

    def put(self, key: str, report: Dict[str, object]) -> None:
        atomic_write_text(self._path(key), to_json(report))

    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> Dict[str, object]:
        path = self.manifest_path()
        if not path.is_file():
            return {"schema": CACHE_SCHEMA, "version": CACHE_VERSION,
                    "entries": {}}
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, OSError):
            return {"schema": CACHE_SCHEMA, "version": CACHE_VERSION,
                    "entries": {}}
        if (manifest.get("schema") != CACHE_SCHEMA
                or manifest.get("version") != CACHE_VERSION):
            # layout change: the objects use a different addressing
            # scheme, so forget them (keys no longer resolve anyway)
            return {"schema": CACHE_SCHEMA, "version": CACHE_VERSION,
                    "entries": {}}
        manifest.setdefault("entries", {})
        return manifest

    def update_manifest(self, new_entries: Dict[str, Dict[str, object]],
                        fingerprint: Dict[str, object]) -> None:
        manifest = self.read_manifest()
        manifest["fingerprint"] = fingerprint
        manifest["entries"].update(new_entries)
        atomic_write_text(self.manifest_path(),
                          json.dumps(manifest, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# execution


class PointTimeoutError(TransientError):
    """A sweep point exceeded its per-point wall-clock budget."""


def _alarm_handler(signum, frame):
    raise PointTimeoutError("point exceeded its time budget")


def _failure_payload(exc: BaseException) -> Dict[str, object]:
    """The structured error document a worker sends over the pipe.

    ``transient`` drives the retry policy: a :class:`ReproError` that
    is not a :class:`TransientError` is a *deterministic* simulator
    failure — retrying cannot cure it, so it goes straight to
    quarantine.  Unclassified exceptions (OS hiccups, pickling, ...)
    stay retryable, matching the engine's historical behaviour.
    """
    return {
        "type": type(exc).__name__,
        "transient": (not isinstance(exc, ReproError)
                      or isinstance(exc, TransientError)),
        "traceback": traceback.format_exc(),
    }


def _unpack(result):
    """Validate a runner result as ``(index, report, err, wall_ms)``.

    Every runner — built-in or custom — reports its wall time as the
    fourth element.  Any other shape is rejected outright rather than
    sliced into shape, so a runner protocol change (e.g. a report
    growing a separate metrics member, or a runner still speaking the
    long-removed 3-tuple dialect) can never be silently dropped.
    """
    if len(result) == 4:
        return result
    raise TypeError(
        "runner returned a %d-tuple; expected (index, report, err, "
        "wall_ms)" % len(result))


def _execute_payload(task: Tuple[int, Dict[str, object]]):
    """Worker-side entry point: run one point, return its report.

    Module-level so it pickles under every multiprocessing start
    method.  The simulator is imported here, on the first executed
    point, so a sweep of cache hits never loads it.  Returns
    ``(index, report, None, wall_ms)`` or ``(index, None, error_dict,
    wall_ms)`` — exceptions never cross the pipe raw.  A
    ``"_timeout"`` key in the payload (seconds) arms a SIGALRM budget
    around the point where the platform supports it.
    """
    from repro.experiments.harness import run_report_point

    index, payload = task
    timeout = payload.get("_timeout")
    armed = False
    start = time.perf_counter()
    try:
        if timeout and hasattr(signal, "SIGALRM"):
            signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
        spec = PointSpec.from_payload(payload)
        report = run_report_point(
            spec.scheme, spec.n_windows, spec.concurrency,
            spec.granularity, scale=spec.scale,
            working_set=spec.working_set, seed=spec.seed,
            faults=spec.faults, fault_seed=spec.fault_seed,
            audit=spec.audit, watchdog=spec.watchdog)
        wall_ms = (time.perf_counter() - start) * 1000.0
        return index, report, None, wall_ms
    except Exception as exc:
        wall_ms = (time.perf_counter() - start) * 1000.0
        return index, None, _failure_payload(exc), wall_ms
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class PointFailure:
    """One point that kept failing after every retry (or was fatal)."""

    spec: PointSpec
    attempts: int
    traceback: str
    error_type: str = ""
    transient: bool = True

    def to_payload(self) -> Dict[str, object]:
        return {
            "label": self.spec.label,
            "spec": self.spec.to_payload(),
            "error_type": self.error_type,
            "transient": self.transient,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }


@dataclass
class EngineStats:
    """What one :meth:`Engine.run_reports` call did.

    The telemetry fields (wall times, hit latencies, utilization) are
    *wall-clock* measurements and therefore excluded from every
    byte-determinism contract; they feed the engine's metrics snapshot
    and the extended stats line only.
    """

    total: int = 0
    hits: int = 0
    executed: int = 0
    retried: int = 0
    failures: List[PointFailure] = field(default_factory=list)
    quarantined: bool = False
    #: per executed point: worker-side wall time (ms)
    point_wall_ms: List[float] = field(default_factory=list)
    #: per cache hit: time to read + parse the cached report (ms)
    hit_latency_ms: List[float] = field(default_factory=list)
    #: fraction of the pool's wall-time capacity spent inside points
    utilization: float = 0.0
    #: where the metrics snapshot was written (None: not requested)
    metrics_path: Optional[str] = None

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def p50_ms(self) -> float:
        from repro.metrics.events import percentile

        return percentile(self.point_wall_ms, 50)

    @property
    def p99_ms(self) -> float:
        from repro.metrics.events import percentile

        return percentile(self.point_wall_ms, 99)

    def summary(self, jobs: int) -> str:
        line = ("engine: %d points — %d cached (%d%%), %d executed, "
                "%d failed [jobs=%d]"
                % (self.total, self.hits, round(100 * self.hit_ratio),
                   self.executed, len(self.failures), jobs))
        if self.point_wall_ms:
            line += (" — util %d%%, p50 %.0fms, p99 %.0fms"
                     % (round(100 * self.utilization),
                        self.p50_ms, self.p99_ms))
        if self.metrics_path:
            line += " — metrics=%s" % self.metrics_path
        if self.quarantined and self.failures:
            line += " — %d point(s) quarantined" % len(self.failures)
        return line


class EngineError(RuntimeError):
    """Raised when points still fail after per-point retries."""

    def __init__(self, failures: List[PointFailure]) -> None:
        self.failures = failures
        lines = ["%d sweep point(s) failed:" % len(failures)]
        for failure in failures:
            text = failure.traceback.strip()
            last = (text.splitlines()[-1] if text
                    else failure.error_type or "unknown error")
            lines.append("  %s (after %d attempt(s)): %s"
                         % (failure.spec.label, failure.attempts, last))
        super().__init__("\n".join(lines))


class Engine:
    """Fan sweep points over a worker pool, memoising RunReports.

    ``jobs``         pool width; 1 runs in-process (no pool, no fork).
    ``cache_dir``    result-store root; ``None`` disables caching.
    ``retries``      extra serial attempts per *transient* failure
                     before the point is declared failed.  Fatal
                     failures (a non-transient :class:`ReproError`)
                     are never retried.
    ``timeout``      per-point wall-clock budget in seconds (worker-
                     side SIGALRM; times out as a transient failure).
    ``backoff``      base seconds slept before retry k (k * backoff).
    ``keep_going``   graceful degradation: failing points are
                     quarantined into the failure manifest and their
                     slots returned as ``None`` instead of raising
                     :class:`EngineError`.
    ``spec_defaults``  field overrides (``faults``, ``audit``, ...)
                     applied to every spec via ``dataclasses.replace``.
    ``metrics_out``  path for the engine's ``repro.metrics-snapshot``
                     document; rewritten (atomically) after every
                     completed point so a live dashboard
                     (``python -m repro.metrics.top``) can tail it.
    """

    def __init__(self, jobs: Optional[int] = None, cache_dir=None,
                 retries: int = 1,
                 timeout: Optional[float] = None,
                 backoff: float = 0.0,
                 keep_going: bool = False,
                 spec_defaults: Optional[Dict[str, Any]] = None,
                 metrics_out=None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.retries = max(0, retries)
        #: runs one ``(index, payload)`` task in a worker; tests that
        #: fake the simulation replace it on the instance
        self._runner = _execute_payload
        self.timeout = timeout
        self.backoff = max(0.0, backoff)
        self.keep_going = keep_going
        self.spec_defaults = dict(spec_defaults or {})
        self.metrics_out = Path(metrics_out) if metrics_out else None
        self.last_stats = EngineStats()

    @classmethod
    def from_env(cls, jobs: Optional[int] = None, cache: bool = True,
                 cache_dir=None, **kwargs) -> "Engine":
        """CLI-flavoured constructor: env-default jobs and cache dir."""
        if cache and cache_dir is None:
            cache_dir = default_cache_dir()
        return cls(jobs=jobs, cache_dir=cache_dir if cache else None,
                   **kwargs)

    # -- core ---------------------------------------------------------------

    def run_reports(self, specs: Sequence[PointSpec]) -> List[Optional[Dict]]:
        """Run every spec (cache, then pool) and return the RunReports
        in spec order.  Statistics land on :attr:`last_stats`.

        Without ``keep_going`` a persistent failure raises
        :class:`EngineError`; with it the failing slots hold ``None``,
        the failures are written to the failure manifest, and every
        healthy point still comes back complete.
        """
        specs = list(specs)
        if self.spec_defaults:
            specs = [replace(spec, **self.spec_defaults)
                     for spec in specs]
        stats = EngineStats(total=len(specs), quarantined=self.keep_going)
        self.last_stats = stats
        fingerprint = cache_fingerprint()
        keys = [cache_key(spec, fingerprint) for spec in specs]
        reports: List[Optional[Dict]] = [None] * len(specs)

        pending: List[int] = []
        for i, key in enumerate(keys):
            if self.cache:
                lookup_start = time.perf_counter()
                cached = self.cache.get(key)
                lookup_ms = (time.perf_counter() - lookup_start) * 1000.0
            else:
                cached = None
            if cached is not None:
                reports[i] = cached
                stats.hits += 1
                stats.hit_latency_ms.append(lookup_ms)
            else:
                pending.append(i)

        new_entries: Dict[str, Dict[str, object]] = {}
        queue_depth = [len(pending)]
        exec_start = time.perf_counter()

        def note_wall(wall_ms: float) -> None:
            stats.point_wall_ms.append(wall_ms)
            elapsed_ms = (time.perf_counter() - exec_start) * 1000.0
            if elapsed_ms > 0:
                stats.utilization = min(
                    1.0, sum(stats.point_wall_ms)
                    / (self.jobs * elapsed_ms))

        def commit(i: int, report: Dict) -> None:
            reports[i] = report
            stats.executed += 1
            queue_depth[0] -= 1
            if self.cache:
                # written the moment the point lands, so an interrupted
                # sweep resumes from here instead of from scratch
                self.cache.put(keys[i], report)
                new_entries[keys[i]] = specs[i].to_payload()
            self._write_metrics(stats, queue_depth[0])

        def payload_of(i: int) -> Dict[str, object]:
            payload = specs[i].to_payload()
            if self.timeout:
                payload["_timeout"] = self.timeout
            return payload

        failed: List[Tuple[int, Dict[str, object]]] = []
        if pending:
            tasks = [(i, payload_of(i)) for i in pending]
            if self.jobs > 1 and len(tasks) > 1:
                import multiprocessing

                # load the simulator once, before the fork, rather
                # than once in every worker
                import repro.experiments.harness  # noqa: F401

                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn")
                with ctx.Pool(min(self.jobs, len(tasks))) as pool:
                    for result in pool.imap_unordered(self._runner, tasks):
                        i, report, err, wall_ms = _unpack(result)
                        note_wall(wall_ms)
                        if err is None:
                            commit(i, report)
                        else:
                            failed.append((i, err))
            else:
                for task in tasks:
                    i, report, err, wall_ms = _unpack(self._runner(task))
                    note_wall(wall_ms)
                    if err is None:
                        commit(i, report)
                    else:
                        failed.append((i, err))

        failures: List[PointFailure] = []
        for i, err in failed:
            attempts = 1
            report = None
            while (report is None and err["transient"]
                   and attempts <= self.retries):
                stats.retried += 1
                if self.backoff:
                    time.sleep(self.backoff * attempts)
                attempts += 1
                __, report, err, wall_ms = _unpack(
                    self._runner((i, payload_of(i))))
                note_wall(wall_ms)
            if report is not None:
                commit(i, report)
            else:
                queue_depth[0] -= 1
                failures.append(PointFailure(
                    specs[i], attempts, err["traceback"],
                    error_type=err["type"], transient=err["transient"]))

        if self.cache and new_entries:
            self.cache.update_manifest(new_entries, fingerprint)
        stats.failures = failures
        self._write_metrics(stats, queue_depth[0], final=True)
        if failures:
            self._write_failure_manifest(failures, fingerprint)
            if not self.keep_going:
                raise EngineError(failures)
        return reports

    def run_points(self,
                   specs: Sequence[PointSpec]
                   ) -> List[Optional[ExperimentPoint]]:
        """Like :meth:`run_reports` but summarised to the
        :class:`ExperimentPoint` the figures/tables plot.  Quarantined
        slots (``keep_going``) stay ``None``."""
        return [point_from_report(r) if r is not None else None
                for r in self.run_reports(specs)]

    # -- helpers ------------------------------------------------------------

    def _write_metrics(self, stats: EngineStats, queue_depth: int,
                       final: bool = False) -> None:
        """Rewrite the live metrics snapshot (no-op without
        ``metrics_out``).  Called after every committed point and once
        at the end, so a dashboard tailing the file always sees a
        complete, schema-valid document."""
        if self.metrics_out is None:
            return
        from repro.metrics.telemetry import write_snapshot

        snapshot = engine_metrics_snapshot(stats, self.jobs,
                                           queue_depth=queue_depth,
                                           final=final)
        stats.metrics_path = write_snapshot(snapshot, self.metrics_out)

    def failure_manifest_path(self) -> Optional[Path]:
        """Where quarantined failures are recorded: the cache root's
        ``failures.json`` (None without a cache)."""
        if self.cache is not None:
            return self.cache.root / "failures.json"
        return None

    def _write_failure_manifest(self, failures: List[PointFailure],
                                fingerprint: Dict[str, object]) -> None:
        path = self.failure_manifest_path()
        if path is None:
            return
        doc = {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "failures": [f.to_payload() for f in failures],
        }
        atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def engine_metrics_snapshot(stats: EngineStats, jobs: int,
                            queue_depth: int = 0,
                            final: bool = False) -> Dict[str, object]:
    """The engine's ``repro.metrics-snapshot`` document.

    Rebuilt from :class:`EngineStats` on every write — the stats object
    is the single source of truth, so incremental and final snapshots
    can never disagree.  Wall-clock values are expected here (unlike
    the simulator snapshot, which is cycle-domain only).
    """
    from repro.metrics.telemetry import (
        FAST_MS_BUCKETS,
        MS_BUCKETS,
        MetricsRegistry,
    )

    registry = MetricsRegistry()
    registry.counter(
        "engine_points_total", help="points in this sweep").inc(stats.total)
    registry.counter(
        "engine_cache_hits", help="points served from cache").inc(stats.hits)
    registry.counter(
        "engine_points_executed", help="points executed").inc(stats.executed)
    registry.counter(
        "engine_retries", help="retry attempts").inc(stats.retried)
    registry.counter(
        "engine_failures",
        help="points failed after retries").inc(len(stats.failures))
    registry.counter(
        "engine_quarantined",
        help="failed points quarantined instead of raising").inc(
        len(stats.failures) if stats.quarantined else 0)
    registry.gauge(
        "engine_queue_depth",
        help="points still waiting to complete").set(queue_depth)
    registry.gauge(
        "engine_jobs", help="worker-pool width").set(jobs)
    registry.gauge(
        "engine_cache_hit_ratio",
        help="cached / total").set(round(stats.hit_ratio, 4))
    registry.gauge(
        "engine_worker_utilization",
        help="point wall time / pool wall-time capacity").set(
        round(stats.utilization, 4))
    wall = registry.histogram(
        "engine_point_wall_ms", MS_BUCKETS,
        help="worker-side wall time per executed point (ms)")
    for ms in stats.point_wall_ms:
        wall.observe(ms)
    hit = registry.histogram(
        "engine_cache_hit_ms", FAST_MS_BUCKETS,
        help="time to read and parse a cached report (ms)")
    for ms in stats.hit_latency_ms:
        hit.observe(ms)
    return registry.snapshot(meta={"kind": "engine", "jobs": jobs,
                                   "complete": final})


def point_from_report(report: Dict) -> ExperimentPoint:
    """Project a RunReport back onto an :class:`ExperimentPoint`.

    Field-for-field identical to what :func:`~repro.experiments.
    harness.run_point` computes from the live counters — the
    differential tests assert the equality for the whole grid.
    """
    config = report["config"]
    c = report["counters"]
    names = {str(t["tid"]): t["name"] for t in report["threads"]}
    executed = c["saves"] + c["restores"]
    traps = c["overflow_traps"] + c["underflow_traps"]
    switches = c["context_switches"]
    return ExperimentPoint(
        scheme=config["scheme"],
        n_windows=config["n_windows"],
        concurrency=config["concurrency"],
        granularity=config["granularity"],
        policy=config["policy"],
        total_cycles=c["total_cycles"],
        switch_cycles=c["switch_cycles"],
        trap_cycles=c["trap_cycles"],
        compute_cycles=c["compute_cycles"],
        context_switches=switches,
        avg_switch_cycles=(c["switch_cycles"] / switches
                           if switches else 0.0),
        saves=c["saves"],
        restores=c["restores"],
        overflow_traps=c["overflow_traps"],
        underflow_traps=c["underflow_traps"],
        trap_probability=traps / executed if executed else 0.0,
        per_thread_switches={
            names[tid]: n
            for tid, n in c["per_thread_switches"].items()},
        per_thread_saves={
            names[tid]: n for tid, n in c["per_thread_saves"].items()},
        output_bytes=config["output_bytes"],
    )


def transfer_histogram_from_report(report: Dict) -> Dict[Tuple[int, int], int]:
    """Parse ``counters.switch_transfer_hist`` back to tuple keys."""
    out: Dict[Tuple[int, int], int] = {}
    for key, count in report["counters"]["switch_transfer_hist"].items():
        saves, restores = key.split(",")
        out[(int(saves), int(restores))] = count
    return out
