"""Table 2 — cycles for a context switch (§6.2).

Two parts:

1. the *model-derived* table: the calibrated cost model's cycle count
   for every (scheme, saves, restores) row, checked against the
   paper's measured S-20 ranges;
2. an *empirical* cross-check: run the spell checker under each scheme
   and verify that every observed context switch was charged exactly
   the model cost for its transfer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.costs import CostModel, Table2Row
from repro.metrics.reporting import format_table


@dataclass
class Table2Result:
    rows: List[Tuple[Table2Row, int, bool]]
    observed_histograms: Dict[str, Dict[Tuple[int, int], int]]


def run_table2(scale: Optional[float] = None,
               cost_model: Optional[CostModel] = None,
               engine=None) -> Table2Result:
    """Model-derived rows plus the empirical histograms; the three
    per-scheme spell-checker runs go through the sweep engine (a
    serial, uncached one when the caller passes none)."""
    from repro.experiments.engine import (
        Engine,
        PointSpec,
        transfer_histogram_from_report,
    )

    model = cost_model if cost_model is not None else CostModel()
    rows = model.table2_check()
    if engine is None:
        engine = Engine(jobs=1, cache_dir=None)
    specs = [PointSpec(scheme=scheme, n_windows=7, concurrency="high",
                       granularity="medium", scale=scale or 0.05)
             for scheme in ("NS", "SNP", "SP")]
    reports = engine.run_reports(specs)
    observed: Dict[str, Dict[Tuple[int, int], int]] = {
        spec.scheme: transfer_histogram_from_report(report)
        for spec, report in zip(specs, reports)
        if report is not None}  # quarantined by a keep_going engine
    return Table2Result(rows, observed)


def render_table2(result: Table2Result) -> str:
    headers = ["scheme", "saves", "restores",
               "paper (cycles)", "model", "in range"]
    rows = []
    for row, value, ok in result.rows:
        rows.append([row.scheme, row.saves, row.restores,
                     "%d - %d" % (row.lo, row.hi), value,
                     "yes" if ok else "NO"])
    table = format_table(headers, rows,
                         title="Table 2: cycles per context switch")
    extra = ["", "Observed (saves, restores) histograms on a 7-window "
                 "machine (spell checker, high/medium):"]
    for scheme, hist in result.observed_histograms.items():
        items = ", ".join("%s: %d" % (k, v)
                          for k, v in sorted(hist.items()))
        extra.append("  %-4s %s" % (scheme, items))
    return table + "\n" + "\n".join(extra)
