"""Shared fixtures for the paper-claim suite.

Environment knob: ``REPRO_BENCH_SCALE``, the corpus scale (default
0.08; 1.0 is the paper's full 40 500-byte draft, which the nightly CI
job runs).

Every figure and table comes from the functions ``python -m
repro.experiments`` runs (``run_fig11``–``run_fig15``, ``run_table1``,
``run_table2``), through one session :class:`~repro.experiments.
engine.Engine`: a worker pool of the default width and a result cache
in a pytest temporary directory.  As in a cold ``all``, FIFO points
replay their group's window trace, and Figures 12 and 13 are cache
hits of Figure 11's points (the paper draws all three from the same
runs).  Rendered tables/charts are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.engine import Engine

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_SCALE = 0.08
DEFAULT_WINDOWS = (4, 5, 6, 7, 8, 10, 12, 16, 24, 32)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


@pytest.fixture(autouse=True)
def _benchmark_anchor(benchmark):
    """pytest-benchmark's ``--benchmark-only`` skips any test that does
    not use the ``benchmark`` fixture.  The shape-assertion tests in
    this directory *are* part of the benchmark suite (they check the
    regenerated figures), so anchor the fixture into every test here.
    """
    yield


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def engine(tmp_path_factory):
    """The session's sweep engine: default pool width, private cache."""
    return Engine(cache_dir=tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def figure(engine, scale):
    """``figure(run_figN)``: that figure, run once per session, as
    ``{granularity: {scheme: [(windows, value)]}}``."""
    memo = {}

    def run(run_fig):
        if run_fig not in memo:
            result = run_fig(windows=DEFAULT_WINDOWS, scale=scale,
                             engine=engine)
            memo[run_fig] = by_granularity = {}
            for label, points in result.series.items():
                scheme, granularity = label.split("/")
                by_granularity.setdefault(granularity, {})[scheme] = points
        return memo[run_fig]

    return run


def value_at(points, n_windows):
    for x, y in points:
        if x == n_windows:
            return y
    raise KeyError(n_windows)


def write_series_report(path, title, series_by_gran, fmt="%.0f"):
    """Dump every series as aligned text plus ASCII charts.

    Written atomically (temp file + rename) so parallel pytest workers
    or an interrupted run can never leave a truncated report in
    ``benchmarks/results/``.
    """
    from repro.experiments.engine import atomic_write_text
    from repro.metrics.reporting import ascii_chart

    lines = [title, "=" * len(title), ""]
    for granularity, by_scheme in series_by_gran.items():
        lines.append("-- %s granularity" % granularity)
        for scheme, points in sorted(by_scheme.items()):
            lines.append("  %-4s %s" % (scheme, "  ".join(
                "%d:%s" % (x, fmt % y) for x, y in points)))
        chart = ascii_chart(
            {s: pts for s, pts in by_scheme.items()},
            width=60, height=14,
            title="%s (%s)" % (title, granularity),
            xlabel="number of windows")
        lines.append(chart)
        lines.append("")
    atomic_write_text(path, "\n".join(lines))
