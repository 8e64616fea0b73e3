"""A finer profiler grid for small test runs.

Production profiles sample every ``DEFAULT_EVERY`` simulated cycles,
which a test-sized run may never reach; a test sets its own interval on
the instance, before the run, through :func:`with_interval`.
"""

from __future__ import annotations


def with_interval(target, every: int):
    """Sample ``target`` (a ``CycleProfiler``, or a ``RunTelemetry`` and
    its profiler) every ``every`` cycles; returns ``target``."""
    profiler = getattr(target, "profiler", target)
    profiler.every = profiler._next_cycle = every
    return target
