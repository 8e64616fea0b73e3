"""RunReport observer sections pinned byte for byte.

``tests/experiments/goldens/small_grid.json`` pins only counters.  The
sections the quantum observers produce — ``behavior``, ``timeline``
and ``events``, next to ``steps`` and ``slackness`` — are pinned here
for the same 12-point grid plus the faulted and the audited point of
``tests/metrics/test_report_observers.py``.  The bus oracle builds its
report through the same ``build_run_report``, tracker aggregates and
``churn()``, so only a committed golden catches an error those share.

Regenerate (only when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/metrics/test_report_sections.py
"""

from pathlib import Path

from repro.experiments.harness import run_report_point
from repro.metrics.report import to_json
from tests.support.goldens import assert_golden

GOLDEN = Path(__file__).parent / "goldens" / "report_sections.json"

SCALE = 0.02
SEED = 1993
SECTIONS = ("steps", "slackness", "behavior", "timeline", "events")

#: the grid of tests/experiments/test_goldens.py, then the faulted and
#: the audited point of tests/metrics/test_report_observers.py
POINTS = [
    dict(scheme=scheme, n_windows=n, concurrency=conc, granularity=gran)
    for conc, gran in (("high", "fine"), ("low", "coarse"))
    for n in (5, 8)
    for scheme in ("NS", "SNP", "SP")
] + [
    dict(scheme="SNP", n_windows=8, concurrency="high",
         granularity="fine", faults="sched@2,store_delay@3"),
    dict(scheme="SP", n_windows=5, concurrency="high",
         granularity="fine", audit=True),
]


def _label(point):
    extra = "+faults=%s" % point["faults"] if "faults" in point else (
        "+audit" if "audit" in point else "")
    return "%s/w%d/%s-%s%s" % (point["scheme"], point["n_windows"],
                               point["concurrency"], point["granularity"],
                               extra)


def test_report_sections_match_goldens():
    doc = {}
    for point in POINTS:
        report = run_report_point(scale=SCALE, seed=SEED, **point)
        doc[_label(point)] = {name: report[name] for name in SECTIONS}
    assert len(doc) == 14
    assert_golden(GOLDEN, to_json(doc) + "\n")
