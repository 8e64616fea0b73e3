"""What the RunReport observer holds after a run that failed.

A failed run still leaves its observer readable: every dispatch that
happened is counted, every quantum a later dispatch closed is kept,
and the quantum the failure cut short is neither stopped nor closed.
Three failures, each pinned on both loops against a committed golden:

* ``trap_dup@1`` on SNP with 5 windows, which fails mid-quantum;
* the invariant audit failing at a dispatch
  (``tests/runtime/test_batched_hooks.py::_corrupt_then_yield``);
* a ``run(max_steps=...)`` that spends its step budget.

Regenerate (only when a drift is intended) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/metrics/test_failed_run_observers.py
"""

import json
from pathlib import Path

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.observer import RunObserver
from tests.runtime.test_batched_hooks import _corrupt_then_yield
from tests.support.goldens import assert_golden
from tests.support.trampoline import force_trampoline, make_kernel

GOLDEN = Path(__file__).parent / "goldens" / "failed_runs.json"

SCALE = 0.02
LOOPS = ("batched", "step")


def _state(observer):
    tally = observer.tally()
    timeline = observer.timeline
    return {
        "quanta": [list(row) for row in observer.behavior()._rows],
        "samples": [[s.cycle, s.running_tid, list(s.kinds),
                     list(s.tids)] for s in timeline.samples],
        "dropped": timeline.dropped,
        "tally": {
            "dispatches": len(observer.log),
            "stops": tally.stops,
            "switch_costs": tally.switch_costs,
            "per_thread_cycles": [[tid, n] for tid, n
                                  in tally.per_thread_cycles.items()],
            "stream_closes": observer.stream_closes,
            "faults": observer.faults,
            "finished": observer.end is not None,
        },
    }


def _spellcheck(loop, observer, n_windows, scheme, **kwargs):
    def instrument(kernel):
        if loop == "step":
            force_trampoline(kernel)
        observer.attach(kernel)

    run_spellchecker(n_windows, scheme,
                     SpellConfig.named("high", "fine", scale=SCALE),
                     instrument=instrument, **kwargs)


def trap_dup(loop, observer):
    _spellcheck(loop, observer, 5, "SNP", verify_registers=True,
                faults=FaultInjector(FaultPlan.parse("trap_dup@1",
                                                     seed=1993)))


def audit_at_dispatch(loop, observer):
    kernel = make_kernel("generator" if loop == "step" else "batched",
                         n_windows=6, scheme="SP", audit=True)
    observer.attach(kernel)
    _corrupt_then_yield(kernel)
    kernel.run()


def step_budget(loop, observer):
    _spellcheck(loop, observer, 8, "SP", max_steps=300)


CASES = {"trap_dup": trap_dup, "audit_at_dispatch": audit_at_dispatch,
         "step_budget": step_budget}


def _failed_state(case, loop):
    observer = RunObserver()
    with pytest.raises(ReproError):
        CASES[case](loop, observer)
    return _state(observer)


def test_failed_run_observers_match_goldens():
    doc = {}
    for case in CASES:
        states = {loop: _failed_state(case, loop) for loop in LOOPS}
        assert states["step"] == states["batched"], case
        doc[case] = states["batched"]
    assert_golden(GOLDEN, json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("loop", LOOPS)
def test_audit_failure_at_a_dispatch_keeps_the_closed_quantum(loop):
    """The dispatch the audit failed at is counted and closes the
    quantum before it; its own quantum is left open."""
    state = _failed_state("audit_at_dispatch", loop)
    assert state["quanta"] == [[0, 109, 219, 1, 1]]
    assert [s[:2] for s in state["samples"]] == [[109, 0], [219, 1]]
    tally = state["tally"]
    assert tally["dispatches"] == 2
    assert tally["stops"] == {"block": 0, "yield": 1, "retire": 0}
    assert tally["switch_costs"] == [109, 109]
    assert tally["per_thread_cycles"] == [[0, 1]]
    assert not tally["finished"]
