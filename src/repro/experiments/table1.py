"""Table 1 — program behaviour of the spell checker (§5.2).

Per-thread context-switch counts for the six (concurrency,
granularity) configurations under FIFO scheduling, plus the dynamic
count of save instructions, side by side with the paper's measured
numbers.

Absolute counts differ from the paper's (our corpus and dictionaries
are synthetic and our filters make fewer calls per byte than the
authors' lex-generated C code), but the structural properties the
paper builds on are reproduced exactly:

* save counts identical across all six configurations and all schemes;
* switch counts scaling ~1/buffer-size per thread;
* the dictionary threads pinned to ~bytes/M switches;
* high concurrency switching far more than low at equal granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.spellcheck.config import THREAD_NAMES
from repro.experiments.paper_data import (
    PAPER_TABLE1_SAVES,
    PAPER_TABLE1_SWITCHES,
)
from repro.experiments.points import env_scale
from repro.metrics.reporting import format_table

CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("high", "fine"), ("high", "medium"), ("high", "coarse"),
    ("low", "fine"), ("low", "medium"), ("low", "coarse"),
)


@dataclass
class Table1Result:
    switches: Dict[Tuple[str, str], Dict[str, int]]
    saves: Dict[str, int]
    scale: float

    def total_switches(self, config: Tuple[str, str]) -> int:
        return sum(self.switches[config].values())


def run_table1(scale: Optional[float] = None,
               scheme: str = "SP", engine=None) -> Table1Result:
    """Measure all six configurations (FIFO; counts are scheme-
    independent, which the test suite verifies separately).  The six
    runs go through the sweep engine (a serial, uncached one when the
    caller passes none)."""
    from repro.experiments.engine import Engine, PointSpec

    if scale is None:
        scale = env_scale()
    if engine is None:
        engine = Engine(jobs=1, cache_dir=None)
    specs = [PointSpec(scheme=scheme, n_windows=12,
                       concurrency=concurrency,
                       granularity=granularity, scale=scale)
             for concurrency, granularity in CONFIGS]
    switches: Dict[Tuple[str, str], Dict[str, int]] = {}
    saves: Dict[str, int] = {}
    for config, point in zip(CONFIGS, engine.run_points(specs)):
        if point is None:  # quarantined by a keep_going engine
            switches[config] = {}
            continue
        switches[config] = point.per_thread_switches
        saves = point.per_thread_saves  # identical across configs
    return Table1Result(switches, saves, scale)


def render_table1(result: Table1Result) -> str:
    headers = (["thread"]
               + ["%s/%s" % (c[0], c[1][:4]) for c in CONFIGS]
               + ["saves"])
    rows: List[List[object]] = []
    for name in THREAD_NAMES:
        row: List[object] = [name]
        for config in CONFIGS:
            row.append(result.switches[config].get(name, 0))
        row.append(result.saves.get(name, 0))
        rows.append(row)
    totals: List[object] = ["total"]
    for config in CONFIGS:
        totals.append(result.total_switches(config))
    totals.append(sum(result.saves.values()))
    rows.append(totals)

    ours = format_table(
        headers, rows,
        title="Table 1 (measured, scale=%.2f): context switches per "
              "configuration + dynamic save counts" % result.scale)

    paper_rows: List[List[object]] = []
    for name in THREAD_NAMES:
        row = [name]
        for config in CONFIGS:
            row.append(PAPER_TABLE1_SWITCHES[config].get(name, 0))
        row.append(PAPER_TABLE1_SAVES.get(name, 0))
        paper_rows.append(row)
    paper = format_table(headers, paper_rows,
                         title="Table 1 (paper, scale=1.0)")
    return ours + "\n\n" + paper
