"""Executable versions of the paper's explanatory figures.

The paper explains the algorithm with window-file snapshots (Figures
3, 4 and 8).  This module *reenacts* those scenarios on the live
simulator and renders before/after snapshots, so the explanatory
figures are regenerated from real state rather than drawn by hand —
and the test suite asserts the facts each caption claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core import make_scheme
from repro.windows.cpu import WindowCPU
from repro.windows.occupancy import FREE, RESERVED
from repro.windows.thread_windows import ThreadWindows


def render_window_file(cpu) -> str:
    """One-line-per-window snapshot of the file, CWP marked."""
    wf = cpu.wf
    wmap = cpu.map
    lines = []
    for w in range(wf.n_windows):
        kind, tid = wmap.entry(w)
        if kind == FREE:
            cell = "(free)"
        elif kind == RESERVED:
            cell = ("reserved" if tid is None
                    else "PRW of thread %d" % tid)
        else:
            cell = "frame of thread %d" % tid
        marks = []
        if w == wf.cwp:
            marks.append("CWP")
        if wf.is_invalid(w):
            marks.append("WIM")
        lines.append("W%-2d %-22s %s" % (w, cell, " ".join(marks)))
    return "\n".join(lines)


@dataclass
class Reenactment:
    """A before/after pair plus the facts the paper's caption states."""

    title: str
    before: str
    after: str
    facts: Dict[str, object]

    def __str__(self) -> str:
        return ("%s\n\n(a) Before the trap.\n%s\n\n"
                "(b) After the trap.\n%s\n\nFacts: %s"
                % (self.title, self.before, self.after, self.facts))


def _single_thread_machine(scheme_name: str, n_windows: int = 6):
    cpu = WindowCPU(n_windows)
    scheme = make_scheme(scheme_name, cpu)
    tw = ThreadWindows(0)
    scheme.register(tw)
    scheme.context_switch(None, tw)
    return cpu, scheme, tw


def _grow(cpu, tw, depth: int) -> None:
    while tw.depth < depth:
        cpu.save(tw)


def reenact_figure3(n_windows: int = 6) -> Reenactment:
    """Figure 3: an overflow trap under the basic algorithm.

    The thread fills every usable window; one more ``save`` traps, the
    stack-bottom window is saved to memory and becomes the new
    reserved window.
    """
    cpu, scheme, tw = _single_thread_machine("NS", n_windows)
    _grow(cpu, tw, n_windows - 1)  # every non-reserved window occupied
    before = render_window_file(cpu)
    old_bottom = tw.bottom
    old_reserved = scheme.reserved
    cpu.save(tw)  # overflow
    after = render_window_file(cpu)
    return Reenactment(
        "Figure 3: overflow trap (basic algorithm, %d windows)"
        % n_windows,
        before, after,
        {
            "spilled_window": old_bottom,
            "new_reserved": scheme.reserved,
            "reserved_is_old_bottom": scheme.reserved == old_bottom,
            "save_claimed_old_reserved": tw.cwp == old_reserved,
            "frames_in_memory": len(tw.store),
            "overflow_traps": cpu.counters.overflow_traps,
        })


def reenact_figure4(n_windows: int = 6) -> Reenactment:
    """Figure 4: an underflow trap under the basic algorithm.

    Returning past the resident frames traps; the missing window is
    restored *below* the CWP (physical motion) and the reserved window
    moves one further down.
    """
    cpu, scheme, tw = _single_thread_machine("NS", n_windows)
    _grow(cpu, tw, n_windows + 1)  # two frames spilled
    while tw.resident > 1:
        cpu.restore(tw)
    before = render_window_file(cpu)
    cwp_before = cpu.wf.cwp
    old_reserved = scheme.reserved
    cpu.restore(tw)  # underflow
    after = render_window_file(cpu)
    return Reenactment(
        "Figure 4: underflow trap (basic algorithm, %d windows)"
        % n_windows,
        before, after,
        {
            "cwp_before": cwp_before,
            "cwp_after": cpu.wf.cwp,
            "cwp_moved_below": cpu.wf.cwp == cpu.wf.below(cwp_before),
            "restored_into_old_reserved": cpu.wf.cwp == old_reserved,
            "new_reserved": scheme.reserved,
            "reserved_moved_down":
                scheme.reserved == cpu.wf.below(cpu.wf.cwp),
            "underflow_traps": cpu.counters.underflow_traps,
        })


def reenact_figure8(scheme_name: str = "SP",
                    n_windows: int = 6) -> Reenactment:
    """Figure 8: the proposed in-place underflow restore (§3.2).

    The missing caller frame is restored into the *same* physical
    window the callee used, after the callee's ins (return values) are
    copied to its outs.  The CWP does not move and nothing spills.
    """
    cpu, scheme, tw = _single_thread_machine(scheme_name, n_windows)
    _grow(cpu, tw, n_windows + 2)
    while tw.resident > 1:
        cpu.restore(tw)
    # Put a recognisable return value in the callee's %i0.
    cpu.write_in(0, 4242)
    before = render_window_file(cpu)
    cwp_before = cpu.wf.cwp
    spilled_before = cpu.counters.windows_spilled
    cpu.restore(tw)  # in-place underflow
    after = render_window_file(cpu)
    return Reenactment(
        "Figure 8: in-place underflow restore (%s scheme, %d windows)"
        % (scheme_name, n_windows),
        before, after,
        {
            "cwp_before": cwp_before,
            "cwp_after": cpu.wf.cwp,
            "cwp_did_not_move": cpu.wf.cwp == cwp_before,
            "return_value_in_outs": cpu.read_out(0) == 4242,
            "windows_spilled_by_trap":
                cpu.counters.windows_spilled - spilled_before,
            "underflow_traps": cpu.counters.underflow_traps,
        })


def reenact_all() -> List[Reenactment]:
    return [reenact_figure3(), reenact_figure4(),
            reenact_figure8("SP"), reenact_figure8("SNP")]
