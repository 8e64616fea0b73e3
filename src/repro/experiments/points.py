"""The experiment point model: the grid's axes, the default sweep and
:class:`ExperimentPoint`, the summary the figures and tables plot.

Nothing here imports the simulator, so a sweep whose points are all
cache hits never loads it; :mod:`repro.experiments.harness` runs a
point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: default sweep (a subset of the paper's 4..32 that keeps runtimes sane;
#: override per call or with the REPRO_WINDOWS environment variable)
DEFAULT_WINDOWS: Sequence[int] = (4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32)

#: default corpus scale for experiments (1.0 = the paper's 40 500 bytes);
#: override with REPRO_SCALE
DEFAULT_SCALE = 0.25

SCHEMES = ("NS", "SNP", "SP")

#: the environment knobs of :func:`env_scale` and :func:`env_windows`
ENV_SCALE = "REPRO_SCALE"
ENV_WINDOWS = "REPRO_WINDOWS"
GRANULARITIES = ("coarse", "medium", "fine")


def env_scale(default: float = DEFAULT_SCALE) -> float:
    return float(os.environ.get(ENV_SCALE, default))


def env_windows(default: Sequence[int] = DEFAULT_WINDOWS) -> List[int]:
    raw = os.environ.get(ENV_WINDOWS)
    if not raw:
        return list(default)
    return [int(x) for x in raw.split(",") if x.strip()]


@dataclass
class ExperimentPoint:
    """Summary of one simulation run."""

    scheme: str
    n_windows: int
    concurrency: str
    granularity: str
    policy: str
    total_cycles: int
    switch_cycles: int
    trap_cycles: int
    compute_cycles: int
    context_switches: int
    avg_switch_cycles: float
    saves: int
    restores: int
    overflow_traps: int
    underflow_traps: int
    trap_probability: float
    per_thread_switches: Dict[str, int] = field(default_factory=dict)
    per_thread_saves: Dict[str, int] = field(default_factory=dict)
    output_bytes: int = 0
