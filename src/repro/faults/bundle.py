"""Crash bundles: versioned JSON dumps of everything needed to diagnose
and *exactly replay* a failed run.

Schema (``repro.crash-bundle`` version 3)::

    {
      "schema": "repro.crash-bundle",
      "version": 3,
      "error":     {"type", "message", "context"},
      "config":    {...the kernel's crash_config: workload + knobs...},
      "fault_plan": FaultPlan payload | null,
      "machine":   {"scheme", "n_windows", "cwp", "wim", "occupancy",
                    "windows": [{"ins", "locals"}, ...]},
      "threads":   [{"tid", "name", "state", "blocked_on", "calls",
                     "returns", "blocks",
                     "windows": {"cwp", "bottom", "resident", "depth",
                                 "prw", "stored"}}],
      "counters":  Counters.snapshot() (string keys),
      "steps":     kernel steps at the crash,
      "flight":    the flight recorder's switch/trap records, oldest
                   first: {"kind": "switch", "out_tid", "in_tid",
                   "saves", "restores", "cycles"} or {"kind":
                   "overflow"|"underflow", "tid", "spilled",
                   "restored", "cycles"} | [],
      "faults_fired": the injector's firing records | [],
      "minimization": delta-debugging provenance | absent
                      (see repro.faults.minimize; not part of the
                      replay-identity of the bundle)
    }

Bundles written while the simulator still had a choice of execution
loops record it as ``config["core"]`` (``"batched"`` or the retired
``"generator"``).  That key is legacy: replay ignores it, since the one
batched loop carries every hook and is bit-identical with the loop
that was retired, and new bundles do not write it.  Version 1 bundles,
which predate it, still load and replay.

Version 3 replaces v2's ``events`` (the tail of an event-bus
subscriber, which forced the step-granular loop) with ``flight``: the
last :data:`~repro.runtime.kernel.FLIGHT_CAPACITY` switch and trap
records, written by the schemes' own record sites into one ring, so a
run with bundles on keeps the batched loop.  Fault firings, which
reached v2 bundles only as bus events, are kept whole in
``faults_fired``.  A v1/v2 bundle replays as matched when every
section but ``version`` and ``events`` equals the rerun's v3 bundle
(minus ``flight`` and ``faults_fired``).

Bundles contain no timestamps or host state, so a deterministic
workload + the embedded seed/plan reproduce the identical bundle
bit-for-bit — which is exactly what :func:`replay_bundle` asserts.
The filename embeds a digest of the content, so replays land on the
same name and repeated crashes of the same failure do not pile up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.ioutil import atomic_write_text
from repro.metrics.counters import SwitchRecord
from repro.runtime.kernel import FLIGHT_CAPACITY

BUNDLE_SCHEMA = "repro.crash-bundle"
BUNDLE_VERSION = 3

#: bundle sections that are provenance/metadata, not failure identity:
#: stripped before the bit-for-bit replay comparison
PROVENANCE_KEYS = ("minimization",)


class BundleError(ReproError, ValueError):
    """A crash-bundle file is missing, unreadable or malformed.

    Derives from :class:`ReproError` (structured context, uniform CLI
    rendering) *and* ``ValueError`` so callers of the original
    ``load_bundle`` contract keep working.
    """


def _jsonable(value: Any) -> Any:
    """Recursively coerce register contents (tuples, bytes, ...) to JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def build_crash_bundle(error: BaseException, kernel,
                       config: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Assemble the bundle dict for ``error`` raised out of ``kernel``."""
    wf = kernel.cpu.wf
    wmap = kernel.cpu.map
    n = wf.n_windows

    plan = None
    fired = []
    if kernel.faults is not None:
        plan = kernel.faults.plan.to_payload()
        fired = _jsonable(kernel.faults.fired)

    error_doc = {
        "type": type(error).__name__,
        "message": (error.message if isinstance(error, ReproError)
                    else str(error)),
        "context": _jsonable(getattr(error, "context", {}) or {}),
    }
    if isinstance(error, ReproError) and getattr(error, "blocked", None):
        error_doc["blocked"] = _jsonable(error.blocked)

    machine = {
        "scheme": kernel.scheme.kind,
        "n_windows": n,
        "cwp": wf.cwp,
        "wim": sorted(wf.wim),
        "occupancy": [{"window": w, "kind": wmap.kind(w),
                       "tid": wmap.tid(w)} for w in range(n)],
        "windows": [{"ins": _jsonable(list(wf.ins_of(w))),
                     "locals": _jsonable(list(wf.locals_of(w)))}
                    for w in range(n)],
    }

    threads = [{
        "tid": t.tid,
        "name": t.name,
        "state": t.state,
        "blocked_on": t.blocked_on,
        "calls": t.calls,
        "returns": t.returns,
        "blocks": t.blocks,
        "windows": {
            "cwp": t.windows.cwp,
            "bottom": t.windows.bottom,
            "resident": t.windows.resident,
            "depth": t.windows.depth,
            "prw": t.windows.prw,
            "stored": len(t.windows.store),
        },
    } for t in kernel.threads]

    snap = kernel.counters.snapshot()
    snap["per_thread_saves"] = _jsonable(snap["per_thread_saves"])
    snap["per_thread_restores"] = _jsonable(snap["per_thread_restores"])

    config_doc = dict(config if config is not None
                      else kernel.crash_config)

    return {
        "schema": BUNDLE_SCHEMA,
        "version": BUNDLE_VERSION,
        "error": error_doc,
        "config": _jsonable(config_doc),
        "fault_plan": plan,
        "machine": machine,
        "threads": threads,
        "counters": _jsonable(snap),
        "steps": kernel._steps,
        "flight": _flight_records(kernel.scheme.records),
        "faults_fired": fired,
    }


def _flight_records(records) -> List[Dict[str, Any]]:
    """The last :data:`FLIGHT_CAPACITY` of the scheme's switch and trap
    records (the kernel's flight ring, or a list a caller armed), as
    bundle dicts in run order."""
    out = []
    for rec in list(records or ())[-FLIGHT_CAPACITY:]:
        doc = asdict(rec)
        if isinstance(rec, SwitchRecord):
            doc = {"kind": "switch", **doc}
        out.append(doc)
    return out


def bundle_to_json(bundle: Dict[str, Any]) -> str:
    return json.dumps(bundle, indent=2, sort_keys=True)


def write_crash_bundle(directory, error: BaseException, kernel,
                       config: Optional[Dict[str, Any]] = None) -> Path:
    """Build and atomically write a bundle; returns its path.

    The filename is ``crash-<errortype>-<content digest>.json`` so the
    same failure always lands on the same file.
    """
    bundle = build_crash_bundle(error, kernel, config=config)
    text = bundle_to_json(bundle)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    name = "crash-%s-%s.json" % (bundle["error"]["type"].lower(), digest)
    path = Path(directory) / name
    atomic_write_text(path, text)
    return path


def load_bundle(path) -> Dict[str, Any]:
    """Read and validate a crash bundle.

    Raises :class:`BundleError` (a ``ReproError`` *and* a
    ``ValueError``) on a missing/unreadable path, invalid JSON, a
    foreign schema, a future version, or a missing section — never a
    raw ``FileNotFoundError``/``JSONDecodeError`` traceback.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise BundleError("cannot read crash bundle: %s" % exc,
                          path=str(path)) from exc
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError("crash bundle is not valid JSON: %s" % exc,
                          path=str(path)) from exc
    if not isinstance(bundle, dict) \
            or bundle.get("schema") != BUNDLE_SCHEMA:
        raise BundleError("not a %s document: schema=%r"
                          % (BUNDLE_SCHEMA,
                             bundle.get("schema")
                             if isinstance(bundle, dict) else None),
                          path=str(path))
    version = bundle.get("version")
    if not isinstance(version, int) or version > BUNDLE_VERSION:
        raise BundleError("unsupported crash-bundle version: %r"
                          % (version,), path=str(path))
    for section in ("error", "config", "machine", "threads"):
        if section not in bundle:
            raise BundleError("crash bundle missing %r section"
                              % section, path=str(path))
    return bundle


def strip_provenance(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """The replay-identity core of a bundle: provenance sections (the
    minimization log) describe how the file was *produced*, not what
    the failure *is*, so a fresh crash of the same run omits them."""
    return {k: v for k, v in bundle.items()
            if k not in PROVENANCE_KEYS}


def _legacy_identity(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """What a pre-v3 bundle shares with its v3 rerun: every section
    but the version, v2's ``events`` and v3's ``flight`` and
    ``faults_fired``."""
    skip = ("version", "events", "flight", "faults_fired")
    return {k: v for k, v in bundle.items() if k not in skip}


# ---------------------------------------------------------------------------
# replay


def rerun_bundle_workload(config: Dict[str, Any],
                          plan: Optional[FaultPlan],
                          crash_dir) -> None:
    """Re-execute the workload a bundle describes — same config, same
    plan; any crash lands a bundle in
    ``crash_dir``.  Raises whatever the run raises."""
    from repro.faults.inject import FaultInjector
    from repro.faults.workloads import run_workload

    injector = FaultInjector(plan) if plan else None
    run_workload(config, faults=injector, crash_dir=crash_dir)


def replay_bundle(path, workdir=None) -> Tuple[bool, Optional[Path], str]:
    """Replay a bundle; returns ``(matched, new_path, detail)``.

    ``matched`` is True when the rerun crashed and produced a
    bit-for-bit identical bundle (same content digest, same file
    name), comparing against the bundle minus its provenance sections.
    A pre-v3 bundle cannot match its v3 rerun byte for byte; it matches
    when every section but ``version`` and ``events`` is identical.
    ``workdir`` is where the replay bundle is written (default: the
    original bundle's directory).
    """
    path = Path(path)
    bundle = load_bundle(path)
    plan = (FaultPlan.from_payload(bundle["fault_plan"])
            if bundle.get("fault_plan") else None)
    crash_dir = Path(workdir) if workdir is not None else path.parent
    from repro.faults.workloads import WorkloadError
    try:
        rerun_bundle_workload(bundle["config"], plan, crash_dir)
    except WorkloadError:
        # an unknown workload is a problem with the *bundle*, not a
        # reproduced crash — surface it, don't report "did not match"
        raise
    except ReproError as exc:
        new_path = getattr(exc, "bundle_path", None)
        if new_path is None:
            return False, None, ("rerun crashed (%s) but wrote no bundle"
                                 % type(exc).__name__)
        new_path = Path(new_path)
        expected = strip_provenance(bundle)
        if bundle["version"] < 3:
            if _legacy_identity(expected) == _legacy_identity(
                    json.loads(new_path.read_text())):
                return True, new_path, (
                    "reproduced (v%d bundle; every section but version "
                    "and events identical): %s"
                    % (bundle["version"], new_path.name))
        elif new_path.read_text() == bundle_to_json(expected):
            return True, new_path, ("reproduced bit-for-bit: %s"
                                    % new_path.name)
        return False, new_path, (
            "rerun crashed with %s but the bundle differs (%s)"
            % (type(exc).__name__, new_path.name))
    return False, None, "rerun completed without crashing"
