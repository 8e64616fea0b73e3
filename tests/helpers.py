"""Shared scenario-building helpers for trap-level tests."""

from __future__ import annotations

from repro.core import make_scheme
from repro.core.invariants import check_invariants
from repro.windows.cpu import WindowCPU
from repro.windows.thread_windows import ThreadWindows


def make_machine(n_windows: int, scheme_name: str, **kwargs):
    """A CPU with a bound scheme, ready for manual trap-level driving."""
    cpu = WindowCPU(n_windows)
    scheme = make_scheme(scheme_name, cpu, **kwargs)
    return cpu, scheme


def new_thread(scheme, tid: int) -> ThreadWindows:
    tw = ThreadWindows(tid)
    scheme.register(tw)
    return tw


def dispatch(cpu, scheme, out_tw, in_tw):
    scheme.context_switch(out_tw, in_tw)
    return in_tw


def call(cpu, tw, tag=None):
    """Simulate one procedure call: write a tag through the out/in
    overlap and a signature into a local register."""
    if tag is None:
        tag = ("arg", tw.tid, tw.depth + 1)
    cpu.write_out(0, tag)
    cpu.save(tw)
    assert cpu.read_in(0) == tag, "argument lost across save"
    cpu.write_local(0, ("sig", tw.tid, tw.depth))
    return tag


def ret(cpu, tw, value=None):
    """Simulate one procedure return: pass a value back through the
    overlap and verify the frame signature first."""
    sig = cpu.read_local(0)
    assert sig == ("sig", tw.tid, tw.depth), (
        "frame signature corrupted: %r at depth %d" % (sig, tw.depth))
    if value is None:
        value = ("ret", tw.tid, tw.depth)
    cpu.write_in(0, value)
    cpu.restore(tw)
    got = cpu.read_out(0)
    assert got == value, "return value lost across restore"
    return got


def call_to_depth(cpu, tw, depth: int):
    """Issue calls until the thread is at the given logical depth."""
    while tw.depth < depth:
        call(cpu, tw)


def ret_to_depth(cpu, tw, depth: int):
    while tw.depth > depth:
        ret(cpu, tw)


def verify(cpu, scheme):
    check_invariants(cpu, scheme, scheme.threads.values())


def save_stats(recorder, n_windows: int):
    """From a traced run's ``save`` events: how often a save landed in
    the top window (a CWP wraparound), and each thread's deepest call
    depth (a thread that never saved is absent)."""
    wraparounds = 0
    max_depth = {}
    for event in recorder.filter(kinds=("save",)):
        if event.attrs.get("window") == n_windows - 1:
            wraparounds += 1
        depth = event.attrs.get("depth", 0)
        if depth > max_depth.get(event.tid, 0):
            max_depth[event.tid] = depth
    return wraparounds, max_depth
