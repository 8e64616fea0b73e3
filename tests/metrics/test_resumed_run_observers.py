"""A run cut by its step budget and resumed reports like the uncut run.

``run(max_steps=k)`` stops mid-quantum and logs that quantum as still
``running``; the next ``run()`` resumes it without a dispatch.  The
resumed quantum takes its provisional record back off the observer's
log and carries on with its dispatch facts, so the ``behavior`` and
``events`` sections (and every other one) equal the uncut run's, on
both loops, wherever the cuts fall.
"""

import pytest

from repro.apps.spellcheck import SpellConfig, build_spellchecker
from repro.errors import ReproError
from repro.metrics.observer import RunObserver
from repro.metrics.report import build_run_report, to_json
from tests.support.trampoline import make_kernel

LOOPS = ("batched", "generator")

#: step budgets, each cutting the run once (the uncut run takes 4,821
#: steps), and one run cut at every 300th step
CUTS = [(k,) for k in range(200, 4821, 397)] + [
    tuple(range(300, 4821, 300))]


def _report(loop, cuts):
    kernel = make_kernel(loop, n_windows=6, scheme="SP")
    observer = RunObserver().attach(kernel)
    build_spellchecker(kernel, SpellConfig.named("high", "fine",
                                                 scale=0.005))
    for k in cuts:
        with pytest.raises(ReproError, match="step budget"):
            kernel.run(max_steps=k)
    result = kernel.run()
    return to_json(build_run_report(result, observer=observer))


@pytest.mark.parametrize("loop", LOOPS)
def test_resumed_runs_report_like_the_uncut_run(loop):
    uncut = _report(loop, ())
    for cuts in CUTS:
        assert _report(loop, cuts) == uncut, cuts
