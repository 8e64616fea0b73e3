"""The aggregate telemetry layer: always-cheap metrics, separate from
the raw-event tracing path.

The trace (:class:`~repro.metrics.events.TraceRecorder`) answers "*what
happened, in order*" — every save, trap and switch as a timestamped
event.  That
is the right tool for debugging one run and the wrong tool for watching
a thousand: a full trace of a paper-scale sweep is hundreds of
megabytes.  This module is the other half of the observability story:
**aggregates** — counters, gauges and fixed-bucket histograms — cheap
enough to leave on for heavy runs, deterministic enough to diff across
PRs.

Design rules, in priority order:

* **Zero cost when off.**  Instrumented sites follow the tracing
  guard's pattern: a single attribute that is ``None`` until
  telemetry is attached, so the hot path pays one ``is None`` branch
  and performs no dict lookup, no allocation, no call.
* **Deterministic when on.**  Histograms use *exact integer bucket
  bounds* (cycle counts, window counts); the cycle-domain profiler
  samples on the simulated clock, never wall-clock.  Two runs with the
  same seeds produce byte-identical snapshots.
* **Versioned at rest.**  :func:`MetricsRegistry.snapshot` emits the
  ``repro.metrics-snapshot`` v1 document; :func:`validate_snapshot`
  checks it; :func:`to_prometheus` renders the standard text exposition
  format for scraping.

The engine-side metrics (wall-times, utilization) reuse the same
registry but are *not* covered by the byte-identity contract — wall
time is inherently nondeterministic, and lives only in engine
snapshots, never in simulator ones.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

SNAPSHOT_SCHEMA = "repro.metrics-snapshot"
SNAPSHOT_VERSION = 1

#: exact power-of-two cycle buckets: deterministic and wide enough for
#: every switch/trap cost the cost model can produce
CYCLE_BUCKETS: Tuple[int, ...] = tuple(1 << i for i in range(21))

#: engine wall-time buckets (milliseconds; 1ms .. ~2min)
MS_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                                 1000, 2000, 5000, 10000, 30000, 120000)

#: sub-millisecond-resolution buckets for fast paths (cache reads)
FAST_MS_BUCKETS: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10,
                                      20, 50, 100)


def occupancy_buckets(n_windows: int) -> Tuple[int, ...]:
    """One exact bucket per possible occupied-window count."""
    return tuple(range(n_windows + 1))


def _label_key(name: str, labels: Optional[Dict[str, str]]) -> str:
    """The registry key / Prometheus series identity of an instrument."""
    if not labels:
        return name
    inner = ",".join('%s="%s"' % (k, labels[k]) for k in sorted(labels))
    return "%s{%s}" % (name, inner)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "help": self.help,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that is set (utilization, queue depth, ...)."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "help": self.help,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram with *inclusive* upper bounds.

    ``bounds`` must be a sorted tuple of exact numbers fixed at
    construction (never derived from observed data), so two runs that
    observe the same values produce identical bucket counts — the
    determinism contract of the simulator snapshot.  An implicit
    overflow (``+Inf``) bucket catches everything above the last bound.
    """

    __slots__ = ("name", "help", "labels", "bounds", "bucket_counts",
                 "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable, help: str = "",
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = tuple(bounds)
        if not self.bounds:
            raise ValueError("histogram %r needs at least one bound" % name)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram %r bounds must be sorted" % name)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_bulk(self, values) -> None:
        """Fold a whole observation buffer at once.

        Hot paths append raw values to plain lists (a C-speed
        ``list.append`` instead of a Python-level ``observe`` per
        event); this folds such a buffer in O(distinct values)
        Python-level work.  Equivalent to ``observe`` per element —
        byte-identical bucket counts, count, sum, min and max.
        """
        if not values:
            return
        from collections import Counter as _TallyCounter

        bounds = self.bounds
        buckets = self.bucket_counts
        for value, n in _TallyCounter(values).items():
            buckets[bisect_left(bounds, value)] += n
            self.sum += value * n
        self.count += len(values)
        lo, hi = min(values), max(values)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def percentile(self, q: float):
        """Deterministic bucket-resolution percentile (see
        :func:`histogram_percentile`)."""
        return histogram_percentile(self.to_payload(), q)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "help": self.help,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument of one run/sweep.

    Instruments are identified by ``(name, labels)``; asking twice
    returns the same object, asking for the same key with a different
    instrument type raises.  :meth:`snapshot` renders everything into
    the versioned, sorted, JSON-stable snapshot document.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, cls, name: str, help: str,
             labels: Optional[Dict[str, str]], **kwargs):
        key = _label_key(name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    "instrument %r already registered as a %s"
                    % (key, existing.kind))
            return existing
        instrument = cls(name, help=help, labels=labels, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, bounds: Iterable, help: str = "",
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        bounds = tuple(bounds)
        instrument = self._get(Histogram, name, help, labels, bounds=bounds)
        if instrument.bounds != bounds:
            raise ValueError(
                "histogram %r re-registered with different bounds"
                % _label_key(name, labels))
        return instrument

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> List[Any]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    # -- the snapshot document ---------------------------------------------

    def snapshot(self, meta: Optional[Dict[str, Any]] = None,
                 profile: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        """The ``repro.metrics-snapshot`` v1 document.

        ``meta`` carries run identity (scheme, windows, workload, seed);
        for simulator runs it must contain no wall-clock values — the
        determinism tests compare these documents byte-for-byte.
        ``profile`` is the cycle-domain profiler's section, when one ran.
        """
        counters = {}
        gauges = {}
        histograms = {}
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            payload = instrument.to_payload()
            if isinstance(instrument, Counter):
                counters[key] = payload
            elif isinstance(instrument, Gauge):
                gauges[key] = payload
            else:
                histograms[key] = payload
        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": SNAPSHOT_VERSION,
            "meta": dict(meta or {}),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "profile": profile,
        }


def snapshot_to_json(snapshot: Dict[str, Any]) -> str:
    """Stable serialization (sorted keys) — byte-diffable across runs."""
    return json.dumps(snapshot, indent=2, sort_keys=True)


def validate_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Check a parsed snapshot document; returns it on success."""
    if not isinstance(snapshot, dict):
        raise ValueError("metrics snapshot must be a JSON object")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError("not a %s document: schema=%r"
                         % (SNAPSHOT_SCHEMA, snapshot.get("schema")))
    version = snapshot.get("version")
    if not isinstance(version, int) or version < 1:
        raise ValueError("bad snapshot version: %r" % (version,))
    if version > SNAPSHOT_VERSION:
        raise ValueError(
            "snapshot version %d is newer than supported version %d"
            % (version, SNAPSHOT_VERSION))
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError("snapshot missing %r section" % section)
    for key, payload in snapshot["histograms"].items():
        bounds = payload.get("bounds")
        buckets = payload.get("bucket_counts")
        if not isinstance(bounds, list) or not isinstance(buckets, list):
            raise ValueError("histogram %r missing bounds/buckets" % key)
        if len(buckets) != len(bounds) + 1:
            raise ValueError(
                "histogram %r has %d buckets for %d bounds"
                % (key, len(buckets), len(bounds)))
        if sum(buckets) != payload.get("count"):
            raise ValueError("histogram %r bucket counts do not add up"
                             % key)
    return snapshot


def snapshot_from_json(text: str) -> Dict[str, Any]:
    return validate_snapshot(json.loads(text))


def histogram_percentile(payload: Dict[str, Any], q: float):
    """Deterministic bucket-resolution percentile of a serialized
    histogram (what exporters and the dashboard have in hand, and what
    :meth:`Histogram.percentile` renders): the upper bound of the first
    bucket whose cumulative count reaches rank ``q`` (the recorded
    maximum for the overflow bucket)."""
    total = payload.get("count", 0)
    if not total:
        return 0
    rank = max(1, int(round(q / 100.0 * total)))
    seen = 0
    for bound, n in zip(payload["bounds"], payload["bucket_counts"]):
        seen += n
        if seen >= rank:
            return bound
    return payload["max"]


def write_snapshot(snapshot: Dict[str, Any], path) -> str:
    """Atomic write (temp + rename) so a live dashboard tailing the
    file never reads a torn document; returns the path."""
    from repro.ioutil import atomic_write_text

    atomic_write_text(path, snapshot_to_json(snapshot) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# Prometheus text exposition format


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return "repro_" + text


def _prom_labels(labels: Dict[str, str],
                 extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(extra or {})
    merged.update(labels)
    if not merged:
        return ""
    inner = ",".join('%s="%s"' % (k, str(merged[k]).replace('"', '\\"'))
                     for k in sorted(merged))
    return "{%s}" % inner


def _prom_value(value) -> str:
    if value is None:
        return "0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(snapshot: Dict[str, Any],
                  meta_labels: bool = True) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    With ``meta_labels`` every string/number entry of the snapshot's
    ``meta`` section is attached as a label to every series, so one
    scrape of a sweep distinguishes schemes/window counts naturally.
    """
    extra: Dict[str, str] = {}
    if meta_labels:
        for k, v in sorted(snapshot.get("meta", {}).items()):
            if isinstance(v, (str, int, float, bool)):
                extra[k] = str(v)
    lines: List[str] = []
    emitted_header = set()

    def header(name: str, help_text: str, kind: str) -> None:
        if name in emitted_header:
            return
        emitted_header.add(name)
        if help_text:
            lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))

    for key in sorted(snapshot.get("counters", {})):
        p = snapshot["counters"][key]
        name = _prom_name(p["name"])
        header(name, p.get("help", ""), "counter")
        lines.append("%s%s %s" % (name,
                                  _prom_labels(p.get("labels", {}), extra),
                                  _prom_value(p["value"])))
    for key in sorted(snapshot.get("gauges", {})):
        p = snapshot["gauges"][key]
        name = _prom_name(p["name"])
        header(name, p.get("help", ""), "gauge")
        lines.append("%s%s %s" % (name,
                                  _prom_labels(p.get("labels", {}), extra),
                                  _prom_value(p["value"])))
    for key in sorted(snapshot.get("histograms", {})):
        p = snapshot["histograms"][key]
        name = _prom_name(p["name"])
        header(name, p.get("help", ""), "histogram")
        labels = p.get("labels", {})
        cumulative = 0
        for bound, n in zip(p["bounds"], p["bucket_counts"]):
            cumulative += n
            le = dict(labels, le=_prom_value(bound))
            lines.append("%s_bucket%s %d"
                         % (name, _prom_labels(le, extra), cumulative))
        cumulative += p["bucket_counts"][-1]
        le = dict(labels, le="+Inf")
        lines.append("%s_bucket%s %d"
                     % (name, _prom_labels(le, extra), cumulative))
        lines.append("%s_sum%s %s" % (name, _prom_labels(labels, extra),
                                      _prom_value(p["sum"])))
        lines.append("%s_count%s %d" % (name, _prom_labels(labels, extra),
                                        p["count"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the per-run bundle the kernel attaches


class RunTelemetry:
    """Registry + cycle-domain profiler for one simulator run.

    Usage (also what the ``--metrics`` CLI flags do)::

        telemetry = RunTelemetry()
        kernel = Kernel(n_windows=8, scheme="SP")
        telemetry.attach(kernel)
        ...spawn and run...
        telemetry.finalize(result)
        snapshot = telemetry.snapshot({"scheme": "SP", "n_windows": 8})

    ``attach`` takes a ``Kernel`` or an ISA ``Machine``.  Every hook
    stays ``None`` until it is called, which is what keeps the
    uninstrumented hot path free.
    """

    def __init__(self):
        from repro.metrics.profiler import CycleProfiler

        self.registry = MetricsRegistry()
        self.profiler = CycleProfiler()
        #: (scheme, switch_hist, trap_hist, occ_hist) armed by
        #: :meth:`attach`; their buffers are drained by :meth:`_fold`
        self._armed = []
        self._occ_folded = 0

    def attach(self, runtime) -> "RunTelemetry":
        """Arm a :class:`~repro.runtime.kernel.Kernel` or an ISA
        :class:`~repro.isa.machine.Machine` (before its run): register
        the scheme's switch, trap and occupancy histograms, hand the
        scheme its int buffers and the runtime the profiler.

        The scheme's hot sites get plain lists (``_tel_switch``,
        ``_tel_trap``): recording one event is a single C-speed
        ``list.append``, not a Python-level ``Histogram.observe`` per
        switch.  :meth:`_fold` bulk-folds the buffers into the
        histograms.
        """
        scheme = runtime.scheme
        registry = self.registry
        labels = {"scheme": scheme.kind}
        self._armed.append((
            scheme,
            registry.histogram(
                "sim_switch_cycles_hist", CYCLE_BUCKETS,
                help="context-switch cost distribution (cycles)",
                labels=labels),
            registry.histogram(
                "sim_trap_cycles_hist", CYCLE_BUCKETS,
                help="window trap latency distribution (cycles)",
                labels=labels),
            registry.histogram(
                "sim_window_occupancy",
                occupancy_buckets(runtime.cpu.n_windows),
                help="occupied windows sampled on the profiler's cycle "
                     "grid", labels=labels)))
        scheme._tel_switch = []
        scheme._tel_trap = []
        self.profiler.bind(runtime.cpu)
        runtime._profiler = self.profiler
        return self

    def _fold(self) -> None:
        """Drain the hot-path buffers into their histograms.

        Idempotent: buffers are swapped out as they are folded and the
        profiler's occupancy samples are consumed past a high-water
        mark, so calling ``finalize`` and then ``snapshot`` (or
        ``snapshot`` twice) never double-counts.
        """
        occupancy = self.profiler.occupancy
        occ_samples = occupancy[self._occ_folded:]
        self._occ_folded = len(occupancy)
        for scheme, switch_hist, trap_hist, occ_hist in self._armed:
            if scheme._tel_switch:
                switch_hist.observe_bulk(scheme._tel_switch)
                scheme._tel_switch = []
            if scheme._tel_trap:
                trap_hist.observe_bulk(scheme._tel_trap)
                scheme._tel_trap = []
            if occ_samples:
                occ_hist.observe_bulk([occ for __, occ in occ_samples])

    def finalize(self, result) -> None:
        """Fold the run's exact counters into the registry (cheap: once
        per run, not per event)."""
        self._fold()
        reg = self.registry
        snap = result.counters.snapshot()
        for name in ("saves", "restores", "overflow_traps",
                     "underflow_traps", "windows_spilled",
                     "windows_restored", "context_switches"):
            counter = reg.counter("sim_" + name)
            counter.value = snap[name]
        for name in ("compute_cycles", "call_cycles", "trap_cycles",
                     "switch_cycles", "total_cycles"):
            counter = reg.counter("sim_" + name)
            counter.value = snap[name]
        reg.gauge("sim_steps").set(result.steps)
        reg.gauge("sim_threads").set(len(result.threads))
        profiler = self.profiler
        reg.gauge("sim_profile_samples").set(profiler.samples)
        if not profiler.op_cycles:
            # Kernel runs sample stacks only; the per-class cycle
            # attribution is exact from the counters — better than
            # anything sampling could reconstruct.
            profiler.op_cycles = {
                "Tick": snap["compute_cycles"],
                "Call": snap["call_cycles"],
                "Trap": snap["trap_cycles"],
                "Switch": snap["switch_cycles"],
            }

    def snapshot(self, meta: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        self._fold()
        return self.registry.snapshot(
            meta=meta, profile=self.profiler.profile_section())
