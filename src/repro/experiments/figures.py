"""Figures 11–15: the window-count sweeps of §6.3–§6.5.

Each ``run_figN`` returns a :class:`FigureResult` whose ``series`` maps
a curve label to ``[(n_windows, y)]`` points, exactly the series the
paper plots:

* Fig 11 — execution time (cycles), high concurrency, 3 granularities
  × 3 schemes;
* Fig 12 — average context-switch time, high concurrency;
* Fig 13 — window-trap probability, high concurrency;
* Fig 14 — execution time, low concurrency;
* Fig 15 — execution time, high concurrency, working-set scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.points import (
    GRANULARITIES,
    SCHEMES,
    env_scale,
    env_windows,
)
from repro.metrics.reporting import ascii_chart

Series = Dict[str, List[Tuple[int, float]]]


@dataclass
class FigureResult:
    """One reproduced figure: labelled (n_windows, value) series."""

    figure: str
    ylabel: str
    series: Series
    notes: List[str] = field(default_factory=list)

    def chart(self, granularity: Optional[str] = None) -> str:
        series = self.series
        if granularity is not None:
            series = {k: v for k, v in series.items()
                      if k.endswith("/" + granularity)}
        return ascii_chart(series, width=64, height=16,
                           title="%s — %s" % (self.figure, self.ylabel),
                           xlabel="number of windows")

    def value(self, scheme: str, granularity: str,
              n_windows: int) -> float:
        for x, y in self.series["%s/%s" % (scheme, granularity)]:
            if x == n_windows:
                return y
        raise KeyError((scheme, granularity, n_windows))


def _sweep_figure(figure: str, ylabel: str, concurrency: str,
                  metric, windows: Optional[Sequence[int]],
                  scale: Optional[float], working_set: bool,
                  engine=None) -> FigureResult:
    """Fan the whole (granularity x scheme x windows) grid of one
    figure through the sweep engine as a single batch, so every point
    runs concurrently (a replayed point once its group's trace is
    recorded, and cached points are skipped), then regroup into the
    labelled series the paper plots."""
    from repro.experiments.engine import Engine, sweep_specs

    if windows is None:
        windows = env_windows()
    if scale is None:
        scale = env_scale()
    if engine is None:
        engine = Engine(jobs=1, cache_dir=None)
    specs = []
    for granularity in GRANULARITIES:
        specs.extend(sweep_specs(concurrency, granularity, windows,
                                 SCHEMES, scale,
                                 working_set=working_set))
    points = engine.run_points(specs)
    series: Series = {"%s/%s" % (s, g): []
                      for g in GRANULARITIES for s in SCHEMES}
    notes = []
    for spec, point in zip(specs, points):
        if point is None:  # quarantined by a keep_going engine
            notes.append("missing point: %s" % spec.label)
            continue
        series["%s/%s" % (spec.scheme, spec.granularity)].append(
            (point.n_windows, metric(point)))
    return FigureResult(figure, ylabel, series, notes=notes)


def run_fig11(windows: Optional[Sequence[int]] = None,
              scale: Optional[float] = None, engine=None) -> FigureResult:
    """Execution time at high concurrency (paper Figure 11)."""
    return _sweep_figure(
        "Figure 11 (high concurrency)", "execution time (cycles)",
        "high", lambda p: p.total_cycles, windows, scale, False,
        engine=engine)


def run_fig12(windows: Optional[Sequence[int]] = None,
              scale: Optional[float] = None, engine=None) -> FigureResult:
    """Average context-switch time at high concurrency (Figure 12)."""
    return _sweep_figure(
        "Figure 12 (high concurrency)", "avg switch time (cycles)",
        "high", lambda p: p.avg_switch_cycles, windows, scale, False,
        engine=engine)


def run_fig13(windows: Optional[Sequence[int]] = None,
              scale: Optional[float] = None, engine=None) -> FigureResult:
    """Probability of window traps at high concurrency (Figure 13)."""
    return _sweep_figure(
        "Figure 13 (high concurrency)", "trap probability",
        "high", lambda p: p.trap_probability, windows, scale, False,
        engine=engine)


def run_fig14(windows: Optional[Sequence[int]] = None,
              scale: Optional[float] = None, engine=None) -> FigureResult:
    """Execution time at low concurrency (Figure 14)."""
    return _sweep_figure(
        "Figure 14 (low concurrency)", "execution time (cycles)",
        "low", lambda p: p.total_cycles, windows, scale, False,
        engine=engine)


def run_fig15(windows: Optional[Sequence[int]] = None,
              scale: Optional[float] = None, engine=None) -> FigureResult:
    """Execution time at high concurrency with the working-set
    scheduling policy (Figure 15)."""
    return _sweep_figure(
        "Figure 15 (high concurrency, working set)",
        "execution time (cycles)",
        "high", lambda p: p.total_cycles, windows, scale, True,
        engine=engine)
