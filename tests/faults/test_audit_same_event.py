"""The batched loop's audit detects every violation at the same event as
the full audit.

The batched loop runs the full invariant audit after every dispatch,
overflow trap, NS underflow and fired fault hook, but after a plain
``save`` or ``restore`` on a state a full audit passed it makes one
O(1) check: the saved-into window was free, or the restored thread
still holds a window (DESIGN §10.1).  SNP and SP's in-place underflow keeps that fast path too,
because it changes only the thread's depth and its backing store.
The reference loop (``tests.support.trampoline``) runs the full audit
after every dispatch, call and return, so equal outcomes, error types,
messages and crash contexts (step, cycle, thread, CWP) on both loops
mean the fast path lost no detection and moved none.

The sweep arms every save-site geometry fault at each of the first 12
saves, and the restore- and store-site faults that fire around SNP and
SP's in-place underflows, on NS, SNP and SP at 4, 6 and 8 windows, for
a spell-checker point and ``synthetic-call-depth``.
"""

import itertools

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.workloads import get_workload
from repro.runtime.ops import Call, Tick
from repro.windows.backing_store import Frame
from repro.windows.occupancy import FRAME, FREE
from tests.support.trampoline import make_kernel

WORKLOADS = {
    "spellcheck": {"workload": "spellcheck", "scale": 0.005,
                   "m": 4, "n": 4, "seed": 1993},
    "call-depth": {"workload": "synthetic-call-depth", "n_workers": 3,
                   "iterations": 4, "depth": 4, "work": 3},
}
GEOMETRIES = list(itertools.product(("NS", "SNP", "SP"), (4, 6, 8)))
SAVE_FAULTS = ("wim", "cwp", "trap_drop", "trap_dup")
#: the restore- and store-site faults, which fire at the restores and
#: underflows of the in-place fast path
UNDERFLOW_FAULTS = ("retval", "store_corrupt", "store_fail",
                    "store_delay")
AT = range(1, 13)
CONTEXT = ("step", "cycle", "thread", "cwp", "audit", "faults_fired")


@pytest.fixture(autouse=True)
def loop_label():
    # this module drives both loops explicitly: no id label
    yield


def run(loop, workload, scheme, n_windows, spec):
    """One audited, watchdog-armed run; its outcome as comparable data."""
    config = WORKLOADS[workload]
    injector = FaultInjector(FaultPlan.parse(spec))
    kernel = make_kernel(loop, n_windows=n_windows, scheme=scheme,
                         faults=injector, audit=True, watchdog=200_000)
    get_workload(config["workload"]).build(kernel, config)
    try:
        result = kernel.run()
    except ReproError as exc:
        outcome = ("detected", type(exc).__name__, str(exc),
                   {key: exc.context.get(key) for key in CONTEXT})
    else:
        outcome = ("survived", result.steps,
                   result.counters.total_cycles,
                   result.counters.underflow_traps)
    return outcome, injector.fired


def assert_same_event(workload, kinds):
    detected = 0
    for (scheme, n_windows), kind, at in itertools.product(
            GEOMETRIES, kinds, AT):
        spec = "%s@%d" % (kind, at)
        reference = run("generator", workload, scheme, n_windows, spec)
        batched = run("batched", workload, scheme, n_windows, spec)
        assert batched == reference, (scheme, n_windows, spec)
        detected += reference[0][0] == "detected"
    return detected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_save_site_faults_are_caught_at_the_same_event(workload):
    assert assert_same_event(workload, SAVE_FAULTS) > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_underflow_site_faults_are_caught_at_the_same_event(workload):
    assert assert_same_event(workload, UNDERFLOW_FAULTS) > 0


def test_wim_flip_passing_its_own_audit_is_caught_at_the_same_save():
    """SNP, 6 windows: the flip at the 2nd save invalidates free window
    3, which the thread's granted headroom holds and the audit does not
    check, so the audit at that save passes and the run goes on under
    the fast path.  The thread's save into window 3 then traps, and the
    overflow handler finds a boundary that is not the reserved window.

    A flipped window is never caught at a *plain* save into it: a flip
    either invalidates a valid window, and a save into it traps, or
    validates an invalid one, which the thread reaches without a trap
    only if it is its boundary, and the boundary's WIM bit is checked by
    the audit at the flip's own save."""
    outcome, fired = run("batched", "call-depth", "SNP", 6, "wim@2:3")
    assert run("generator", "call-depth", "SNP", 6, "wim@2:3") == (
        outcome, fired)
    assert fired == [{"kind": "wim", "at": 2, "site": "save", "tid": 1,
                      "window": 3}]
    state, error, message, context = outcome
    assert (state, error) == ("detected", "WindowGeometryError")
    assert message.startswith(
        "SNP overflow at window 3 but the boundary is 2")
    assert context["step"] > 2 and context["audit"] is None


@pytest.mark.parametrize("scheme", ["SNP", "SP"])
def test_in_place_underflow_changes_only_depth_and_store(scheme,
                                                         monkeypatch):
    """The premise of the in-place fast path: SNP/SP's underflow handler
    leaves the window map, the WIM, the CWP and every thread's windows
    as they were, except the running thread's depth (one less) and its
    backing store (one frame fewer)."""
    kernel = make_kernel("batched", n_windows=4, scheme=scheme,
                         audit=True)
    config = WORKLOADS["call-depth"]
    get_workload(config["workload"]).build(kernel, config)
    scheme_obj = kernel.scheme
    handle = scheme_obj.handle_underflow
    seen = []

    def state():
        cpu = kernel.cpu
        return (list(cpu.map._kind), list(cpu.map._tid),
                list(cpu.wf._wim), cpu.wf.cwp,
                [(tw.tid, tw.cwp, tw.bottom, tw.resident, tw.prw,
                  tw.depth, len(tw.store.frames))
                 for tw in kernel._windows])

    def checked(tw):
        before = state()
        handle(tw)
        after = state()
        expect = list(before[4])
        i = [t[0] for t in expect].index(tw.tid)
        tid, cwp, bottom, resident, prw, depth, stored = expect[i]
        expect[i] = (tid, cwp, bottom, resident, prw, depth - 1,
                     stored - 1)
        assert after == before[:4] + (expect,)
        seen.append(tw.tid)

    monkeypatch.setattr(scheme_obj, "handle_underflow", checked)
    kernel.run()
    assert seen, "no underflow ran"


# -- the two O(1) checks, each on the one state it exists for -----------------
#
# Between two events only the kernel touches the simulator, so a state
# a full audit passed stays one until the next save or restore, and the
# schemes never leave a claimed window valid above the CWP or a valid
# window below a one-frame thread.  The threads below break that
# premise on purpose: between two ops they rewrite the state into one
# the full audit still passes, on which the next plain save (or
# restore) breaks an invariant that only the O(1) check can see.

def _leaf():
    yield Tick(1)
    return None


def _hand_window_to_idle_thread(kernel):
    """Make the free window above the running CWP a one-frame stack of
    the last thread spawned, which has not run yet, then save into
    it."""
    def body():
        cpu = kernel.cpu
        target = cpu.wf._above[cpu.wf.cwp]
        assert cpu.map._kind[target] is FREE and not cpu.wf._wim[target]
        tw = kernel.threads[-1].windows
        tw.cwp = tw.bottom = target
        tw.resident = tw.depth = 1
        cpu.map._kind[target] = FRAME
        cpu.map._tid[target] = tw.tid
        yield Call(_leaf)
        return None
    return body


def _spill_own_bottom(kernel):
    """Inside a call, move the thread's bottom frame to its backing
    store (leaving that window valid), then return into it."""
    def callee():
        cpu = kernel.cpu
        tw = cpu.current
        assert tw.resident == 2 and not tw.store.frames
        old_bottom = tw.bottom
        tw.store.frames.append(Frame([0] * 8, [0] * 8, 1))
        tw.resident = 1
        tw.bottom = tw.cwp
        cpu.map._kind[old_bottom] = FREE
        cpu.map._tid[old_bottom] = None
        yield Tick(1)
        return None

    def body():
        yield Call(callee)
        return None
    return body


def _failure(kernel):
    with pytest.raises(ReproError) as info:
        kernel.run()
    exc = info.value
    return (type(exc).__name__, str(exc),
            {key: exc.context.get(key) for key in CONTEXT})


def _run_rogue(loop, scheme, build):
    kernel = make_kernel(loop, n_windows=8, scheme=scheme, audit=True)
    build(kernel)
    return _failure(kernel)


def _claimed_window(kernel):
    kernel.spawn(_hand_window_to_idle_thread(kernel), name="rogue")
    kernel.spawn(_leaf, name="idle")


def _one_frame_restore(kernel):
    kernel.spawn(_spill_own_bottom(kernel), name="rogue")


@pytest.mark.parametrize("scheme", ["NS", "SNP", "SP"])
@pytest.mark.parametrize("build,message", [
    (_claimed_window, "claimed twice"),
    (_one_frame_restore, "zero resident frames but cwp/bottom set"),
], ids=["save-onto-claimed-window", "restore-to-zero-frames"])
def test_fast_check_falls_back_to_the_full_audit(scheme, build, message):
    reference = _run_rogue("generator", scheme, build)
    assert _run_rogue("batched", scheme, build) == reference
    error, text, context = reference
    assert error == "WindowGeometryError" and message in text
    assert context["audit"] is True


def _corrupt_after(handler, kernel):
    """``handler``, then a stale thread id on the trapping thread's
    bottom window: a trap handler bug only a full audit can see."""
    def buggy(tw):
        handler(tw)
        kernel.cpu.map._tid[tw.bottom] = 99
    return buggy


@pytest.mark.parametrize("scheme,trap", [
    ("NS", "handle_overflow"), ("SNP", "handle_overflow"),
    ("SP", "handle_overflow"), ("NS", "handle_underflow"),
])
def test_trap_handler_bug_is_caught_at_its_own_event(scheme, trap):
    """Every trap is followed by the full audit: the fast path after a
    plain save or restore never vouches for a state a trap handler
    left (SNP/SP's in-place underflow excepted, whose premise is pinned
    above)."""
    outcomes = []
    for loop in ("generator", "batched"):
        kernel = make_kernel(loop, n_windows=4, scheme=scheme, audit=True)
        config = WORKLOADS["call-depth"]
        get_workload(config["workload"]).build(kernel, config)
        setattr(kernel.scheme, trap,
                _corrupt_after(getattr(kernel.scheme, trap), kernel))
        outcomes.append(_failure(kernel))
    assert outcomes[0] == outcomes[1]
    error, text, context = outcomes[0]
    assert "map says frame/99" in text and context["audit"] is True
