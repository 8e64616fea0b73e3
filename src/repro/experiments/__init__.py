"""Experiment harness: regenerates every table and figure of the
paper's evaluation (§6).

Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments table2
    python -m repro.experiments fig11 [--scale 0.25] [--windows 4,8,16,32]
    python -m repro.experiments fig12 | fig13 | fig14 | fig15
    python -m repro.experiments all

or call the functions directly (each returns structured data and a
rendered text report).

Sweeps fan out over the parallel cached engine — see
``python -m repro.experiments fig11 --jobs 8`` and
:mod:`repro.experiments.engine`.
"""

from repro.lazy import LazyExports

_exports = LazyExports(__name__, {
    "repro.experiments.engine": ("Engine", "EngineError", "EngineStats",
                                 "PointSpec", "ResultCache", "cache_key",
                                 "point_from_report", "sweep_specs"),
    "repro.experiments.points": ("ExperimentPoint",),
    "repro.experiments.harness": ("run_point", "run_report_point"),
    "repro.experiments.table1": ("run_table1",),
    "repro.experiments.table2": ("run_table2",),
    "repro.experiments.figures": ("run_fig11", "run_fig12", "run_fig13",
                                  "run_fig14", "run_fig15"),
})

__all__ = [
    "Engine",
    "EngineError",
    "EngineStats",
    "ExperimentPoint",
    "PointSpec",
    "ResultCache",
    "cache_key",
    "point_from_report",
    "run_point",
    "run_report_point",
    "sweep_specs",
    "run_table1",
    "run_table2",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
]

__getattr__ = _exports.resolve
__dir__ = _exports.names
