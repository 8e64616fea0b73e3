"""A run cut by its step budget resumes exactly.

The batched loop keeps the step budget and the watchdog's marks (the
progress count it last saw and the step it saw it at) in frame locals,
and writes the marks back to the :class:`~repro.faults.watchdog.Watchdog`
on every exit.  Here a run is cut by ``run(max_steps=k)`` at every
step ``k`` of a yield storm and of a workload that uses every runtime
op, and then resumed with ``run()``: after each exit the marks, the
step count and the progress clock must equal the reference loop's,
and the resumed run must end as the uncut run does: a LivelockError at
the same step with the same "no progress for N steps" text, N the
stall limit.  The budget exit counts the step it cuts, and the resumed
run runs that step without counting it again.

A cut on the attempt step of a read, write, readline or join leaves
that op pending, as the reference loop's does, so the resumed run
replays it: every thread returns what it returns in an uncut run.
"""

import pytest

from repro.errors import ReproError
from repro.runtime.errors import RuntimeFault
from tests.runtime.test_batched_hooks import WORKLOADS, every_op, storm
from tests.support.trampoline import make_kernel


@pytest.fixture(autouse=True)
def loop_label():
    # this module drives both loops explicitly: no id label
    yield


def exit_state(kernel, exc):
    watchdog = kernel._watchdog
    error = None
    if exc is not None:
        error = (type(exc).__name__, str(exc), exc.context.get("step"),
                 exc.context.get("progress"))
    return (error, kernel._steps, kernel._progress,
            watchdog._last_marks, watchdog._last_step)


def run_once(kernel, max_steps=None):
    try:
        kernel.run(max_steps=max_steps)
    except ReproError as exc:
        return exit_state(kernel, exc)
    return exit_state(kernel, None)


def roundtrip(loop, build, scheme, max_stall, budget):
    kernel = make_kernel(loop, n_windows=5, scheme=scheme, audit=True,
                         watchdog=max_stall)
    build(kernel)
    return run_once(kernel, budget), run_once(kernel)


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
@pytest.mark.parametrize("build,max_stall", [(storm, 8), (every_op, 2)],
                         ids=["storm", "every-op"])
def test_budget_exit_then_resume_matches_the_reference(build, max_stall,
                                                       scheme):
    kernel = make_kernel("generator", n_windows=5, scheme=scheme,
                         audit=True, watchdog=max_stall)
    build(kernel)
    uncut = run_once(kernel)
    error = uncut[0]
    assert error[0] == "LivelockError", error
    assert error[1].startswith("no progress for %d steps" % max_stall)
    for budget in range(1, error[2] + 1):
        reference = roundtrip("generator", build, scheme, max_stall,
                              budget)
        assert roundtrip("batched", build, scheme, max_stall,
                         budget) == reference, budget
        first, second = reference
        assert first[0][0] == "RuntimeFault", first
        assert first[0][2] == first[1] == budget, first
        assert second == uncut, budget


def resumed(loop, build, scheme, budget):
    """Cut a run at ``budget`` steps, then run it to the end."""
    kernel = make_kernel(loop, n_windows=5, scheme=scheme)
    build(kernel)
    if budget is not None:
        with pytest.raises(RuntimeFault):
            kernel.run(max_steps=budget)
    result = kernel.run()
    return (result.steps, result.counters.snapshot(),
            {t.name: t.result for t in result.threads})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
def test_budget_exit_then_resume_computes_the_same_results(name, scheme):
    """A cut at any step, including the attempt step of a read, write,
    readline or join, leaves the op pending, so the resumed run
    replays it and every thread returns what an uncut run returns."""
    build = WORKLOADS[name]
    steps, __, results = resumed("generator", build, scheme, None)
    for budget in range(1, steps):
        reference = resumed("generator", build, scheme, budget)
        assert resumed("batched", build, scheme, budget) == reference, \
            budget
        assert reference[0] == steps, budget
        assert reference[2] == results, budget
