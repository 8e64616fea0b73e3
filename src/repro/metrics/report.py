"""Versioned JSON run reports: one document per simulation run.

A *RunReport* merges everything the instrumentation layer knows about a
run — the :class:`~repro.metrics.counters.Counters` snapshot, the §5
behaviour measures from :class:`~repro.metrics.behavior.BehaviorTracker`,
occupancy-timeline statistics, and event-stream statistics from the
kernel-fed :class:`~repro.metrics.events.EventTally` — into a single
dict with a stable, versioned schema.  The experiment harness and the
benchmark suite emit these so per-PR performance trajectories can be
diffed mechanically.

Schema (``repro.run-report`` version 1)::

    {
      "schema": "repro.run-report",
      "version": 1,
      "config":   {...caller-supplied run parameters...},
      "counters": {...Counters.snapshot(), per-thread keys as strings,
                   plus "switch_transfer_hist": {"saves,restores": n}},
      "threads":  [{"tid", "name", "state", "calls", "returns",
                    "blocks", "result_bytes"}],
      "steps":    <kernel steps>,
      "slackness": {"samples": n, "mean": x} | null,
      "behavior": {...BehaviorTracker measures...} | null,
      "timeline": {"samples", "dropped", "occupancy_ratio", "churn"}
                  | null,
      "events":   {"total", "by_kind", "switch_cost",
                   "per_thread_cycles"} | null,
      "metrics":  {...repro.metrics-snapshot v1 document...}
                  (present only when telemetry ran)
    }

All mapping keys are strings so a report survives a JSON round-trip
unchanged (``from_json(to_json(r)) == r``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

SCHEMA_NAME = "repro.run-report"
SCHEMA_VERSION = 1


def _str_keys(mapping: Dict[Any, Any]) -> Dict[str, Any]:
    return {str(k): v for k, v in mapping.items()}


def build_run_report(result, config: Optional[Dict[str, Any]] = None,
                     tracker=None, timeline=None,
                     tally=None, metrics=None) -> Dict[str, Any]:
    """Assemble the report dict for one finished run.

    ``result`` is the :class:`repro.runtime.kernel.RunResult`; the
    optional observers contribute their sections when given.  The
    ``counters`` section reproduces ``Counters.snapshot()`` exactly
    (with per-thread keys stringified for JSON).

    ``metrics`` is an optional ``repro.metrics-snapshot`` document (see
    :mod:`repro.metrics.telemetry`); it is embedded under a ``metrics``
    key *only when given*, so reports from uninstrumented runs stay
    byte-identical to earlier schema-v1 reports (the golden files and
    the content-addressed cache depend on that).
    """
    counters = result.counters
    snap = dict(counters.snapshot())
    snap["per_thread_saves"] = _str_keys(snap["per_thread_saves"])
    snap["per_thread_restores"] = _str_keys(snap["per_thread_restores"])
    snap["per_thread_switches"] = _str_keys(counters.per_thread_switches)
    snap["switch_transfer_hist"] = {
        "%d,%d" % key: count
        for key, count in sorted(counters.transfer_histogram().items())}

    threads = [{
        "tid": t.tid,
        "name": t.name,
        "state": t.state,
        "calls": t.calls,
        "returns": t.returns,
        "blocks": t.blocks,
        "result_bytes": (len(t.result)
                         if isinstance(t.result, (bytes, str)) else None),
    } for t in result.threads]

    slackness = None
    if result.slackness_samples:
        samples = result.slackness_samples
        slackness = {"samples": len(samples),
                     "mean": sum(samples) / len(samples)}

    behavior = None
    if tracker is not None and tracker.quanta:
        behavior = {
            "quanta": len(tracker.quanta),
            "mean_window_activity": tracker.mean_window_activity(),
            "mean_total_window_activity":
                tracker.mean_total_window_activity(),
            "mean_concurrency": tracker.mean_concurrency(),
            "granularity": tracker.granularity(),
            "window_activity_per_thread":
                _str_keys(tracker.window_activity_per_thread()),
        }

    timeline_stats = None
    if timeline is not None and timeline.samples:
        timeline_stats = {
            "samples": len(timeline.samples),
            "dropped": timeline.dropped,
            "occupancy_ratio": timeline.occupancy_ratio(),
            "churn": timeline.churn(),
        }

    events = tally.summary(result) if tally is not None else None

    report = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": dict(config or {}),
        "counters": snap,
        "threads": threads,
        "steps": result.steps,
        "slackness": slackness,
        "behavior": behavior,
        "timeline": timeline_stats,
        "events": events,
    }
    if metrics is not None:
        report["metrics"] = metrics
    return report


def to_json(report: Dict[str, Any], indent: Optional[int] = 2) -> str:
    """Serialize a report (stable key order for diffability)."""
    return json.dumps(report, indent=indent, sort_keys=True)


def from_json(text: str) -> Dict[str, Any]:
    """Parse and validate a serialized RunReport."""
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("RunReport must be a JSON object")
    if report.get("schema") != SCHEMA_NAME:
        raise ValueError("not a %s document: schema=%r"
                         % (SCHEMA_NAME, report.get("schema")))
    version = report.get("version")
    if not isinstance(version, int) or version < 1:
        raise ValueError("bad RunReport version: %r" % (version,))
    if version > SCHEMA_VERSION:
        raise ValueError(
            "RunReport version %d is newer than supported version %d"
            % (version, SCHEMA_VERSION))
    for section in ("counters", "threads"):
        if section not in report:
            raise ValueError("RunReport missing %r section" % section)
    return report


def write_report(report: Dict[str, Any], path: str) -> str:
    """Write a report to ``path`` as JSON, atomically (temp file +
    rename), so parallel or interrupted writers can never leave a
    truncated document behind; returns the path."""
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(to_json(report))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
