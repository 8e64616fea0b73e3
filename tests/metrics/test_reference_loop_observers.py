"""The reference loop feeds the RunReport observers exactly as the
batched loop does.

``ReferenceKernel`` (``tests/support/trampoline.py``) records its
quanta through its own dispatch and quantum-exit code, so its reports
are compared here, as full RunReport JSON, with the batched loop's for
every scheme at 5 and 8 windows and for one faulted point.
"""

import pytest

import repro.experiments.harness as harness
from repro.apps.spellcheck import run_spellchecker
from repro.metrics.report import to_json
from tests.support.trampoline import force_trampoline

SCALE = 0.02

POINTS = [
    dict(scheme=scheme, n_windows=n)
    for scheme in ("NS", "SNP", "SP")
    for n in (5, 8)
] + [dict(scheme="SNP", n_windows=8, faults="sched@2,store_delay@3")]


def _point_id(point):
    return "%s-%d%s" % (point["scheme"], point["n_windows"],
                        "-faults" if "faults" in point else "")


def _report(monkeypatch, point, reference):
    loops = []

    def run(*args, **kwargs):
        instrument = kwargs["instrument"]

        def pinned(kernel):
            if reference:
                force_trampoline(kernel)
            instrument(kernel)

        kwargs["instrument"] = pinned
        result, output = run_spellchecker(*args, **kwargs)
        loops.append(result.loop)
        return result, output

    monkeypatch.setattr(harness, "run_spellchecker", run)
    report = harness.run_report_point(concurrency="high",
                                      granularity="fine", scale=SCALE,
                                      **point)
    assert loops == ["step" if reference else "pure-batched"]
    return report


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_reference_loop_report_matches_the_batched_loop(monkeypatch,
                                                         point):
    batched = _report(monkeypatch, point, reference=False)
    reference = _report(monkeypatch, point, reference=True)
    assert batched["behavior"]["quanta"] > 0
    assert to_json(reference) == to_json(batched)
