"""The one-pass audit against the walk it replaced.

:func:`repro.core.invariants.check_invariants` first checks the whole
state in one pass and walks it invariant by invariant only when that
fails.  Here random machine states — reached by random calls, returns
and switches, then corrupted in one to three random places (map
entries, WIM bits, hardware and thread CWPs, PRWs, residency, stored
frame depths, the scheme's global reserved window) — must give the
same verdict as the reference walk in ``tests/support/``: both pass,
or both raise the same error type with the same message and context.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import _consistent, check_invariants
from repro.windows.occupancy import FRAME, FREE, RESERVED
from tests.helpers import call, make_machine, new_thread, ret
from tests.support.invariants_oracle import reference_check_invariants

SCHEMES = ("NS", "SNP", "SP")
N_THREADS = 3

CORRUPTIONS = ("map_kind", "map_tid", "wim", "hw_cwp", "thread_cwp",
               "prw", "resident", "bottom", "depth", "stored_depth",
               "reserved", "current")


def build(draw, scheme_name, n_windows):
    """A reachable state: random calls, returns and switches."""
    cpu, scheme = make_machine(n_windows, scheme_name)
    threads = [new_thread(scheme, i) for i in range(N_THREADS)]
    current = threads[0]
    scheme.context_switch(None, current)
    ops = draw(st.lists(st.tuples(st.integers(0, N_THREADS - 1),
                                  st.integers(0, 2)), max_size=40))
    for tid, action in ops:
        target = threads[tid]
        if target is not current:
            scheme.context_switch(current, target)
            current = target
        if action == 0:
            call(cpu, current)
        elif action == 1 and current.depth > 1:
            ret(cpu, current)
    return cpu, scheme, threads


def corrupt(draw, cpu, scheme, threads):
    """Plant one corruption; returns its description."""
    n = cpu.n_windows
    kind = draw(st.sampled_from(CORRUPTIONS))
    window = draw(st.integers(0, n - 1))
    tw = threads[draw(st.integers(0, N_THREADS - 1))]
    maybe_window = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if kind == "map_kind":
        cpu.map._kind[window] = draw(st.sampled_from((FREE, FRAME,
                                                      RESERVED)))
    elif kind == "map_tid":
        cpu.map._tid[window] = draw(st.sampled_from((None, 0, 1, 2, 7)))
    elif kind == "wim":
        cpu.wf._wim[window] ^= 1
    elif kind == "hw_cwp":
        cpu.wf.cwp = window
    elif kind == "thread_cwp":
        tw.cwp = maybe_window
    elif kind == "prw":
        tw.prw = maybe_window
    elif kind == "resident":
        tw.resident = draw(st.integers(-1, n + 1))
    elif kind == "bottom":
        tw.bottom = maybe_window
    elif kind == "depth":
        tw.depth += draw(st.sampled_from((-1, 1)))
    elif kind == "stored_depth":
        frames = tw.store.frames
        if frames:
            frame = frames[draw(st.integers(0, len(frames) - 1))]
            frame.depth = draw(st.integers(-1, len(frames) + 2))
    elif kind == "reserved":
        scheme.reserved = window
    elif kind == "current":
        cpu.current = draw(st.sampled_from([None] + threads))
    return kind


def verdict(check, cpu, scheme, threads):
    try:
        check(cpu, scheme, list(threads))
    except Exception as exc:  # noqa: BLE001 — the verdict under test
        return (type(exc), getattr(exc, "message", str(exc)),
                getattr(exc, "context", None))
    return None


@settings(max_examples=400, deadline=None)
@given(data=st.data(), scheme_idx=st.integers(0, 2),
       n_windows=st.integers(4, 8), n_corruptions=st.integers(0, 3))
def test_one_pass_audit_matches_the_walk(data, scheme_idx, n_windows,
                                         n_corruptions):
    draw = data.draw
    cpu, scheme, threads = build(draw, SCHEMES[scheme_idx], n_windows)
    planted = [corrupt(draw, cpu, scheme, threads)
               for __ in range(n_corruptions)]
    expected = verdict(reference_check_invariants, cpu, scheme, threads)
    got = verdict(check_invariants, cpu, scheme, threads)
    assert got == expected, planted


@settings(max_examples=100, deadline=None)
@given(data=st.data(), scheme_idx=st.integers(0, 2),
       n_windows=st.integers(4, 8))
def test_reachable_states_pass_in_one_pass(data, scheme_idx, n_windows):
    """Uncorrupted states never fall back to the walk: the audit's
    common case is the one-pass check alone."""
    cpu, scheme, threads = build(data.draw, SCHEMES[scheme_idx],
                                 n_windows)
    assert _consistent(cpu, scheme, threads)
