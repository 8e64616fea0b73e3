"""Instrumentation: counters, the structured event trace, behaviour
analysis, aggregate telemetry, Perfetto export, run reports and
plain-text reporting."""

from repro.lazy import LazyExports

_exports = LazyExports(__name__, {
    "repro.metrics.counters": ("Counters", "SwitchRecord", "TrapRecord"),
    "repro.metrics.events": ("EventTally", "TraceEvent", "TraceRecorder"),
    "repro.metrics.perfetto": ("PerfettoExporter",),
    "repro.metrics.profiler": ("CycleProfiler",),
    "repro.metrics.report": ("SCHEMA_VERSION as RUN_REPORT_VERSION",
                             "build_run_report"),
    "repro.metrics.telemetry": (
        "SNAPSHOT_VERSION as METRICS_SNAPSHOT_VERSION", "Counter", "Gauge",
        "Histogram", "MetricsRegistry", "RunTelemetry", "to_prometheus",
        "validate_snapshot"),
})

__all__ = [
    "Counters",
    "SwitchRecord",
    "TrapRecord",
    "EventTally",
    "TraceEvent",
    "TraceRecorder",
    "PerfettoExporter",
    "CycleProfiler",
    "RUN_REPORT_VERSION",
    "build_run_report",
    "METRICS_SNAPSHOT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "to_prometheus",
    "validate_snapshot",
]

__getattr__ = _exports.resolve
__dir__ = _exports.names
