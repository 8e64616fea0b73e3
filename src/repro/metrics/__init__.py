"""Instrumentation: counters, the structured event bus, behaviour
analysis, aggregate telemetry, Perfetto export, run reports and
plain-text reporting."""

from repro.metrics.counters import Counters, SwitchRecord, TrapRecord
from repro.metrics.events import (
    EventBus,
    EventTally,
    TraceEvent,
    TraceRecorder,
)
from repro.metrics.perfetto import PerfettoExporter
from repro.metrics.profiler import CycleProfiler
from repro.metrics.report import (
    SCHEMA_VERSION as RUN_REPORT_VERSION,
    build_run_report,
)
from repro.metrics.telemetry import (
    SNAPSHOT_VERSION as METRICS_SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunTelemetry,
    to_prometheus,
    validate_snapshot,
)

__all__ = [
    "Counters",
    "SwitchRecord",
    "TrapRecord",
    "EventBus",
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
