"""The context switch's bookkeeping that no counter shows.

The switch pins (``test_switch_pins.py``) and the goldens fix what a
switch simulates; these tests fix three facts the switch bodies rely
on to do less work per switch:

* dispatch recency (``last_dispatched``) is kept, one stamp per switch,
  exactly when the allocation policy reads it (LRU-bottom);
* a thread that arrives with resident windows has always been
  dispatched before, so only the windowless path marks a thread
  started;
* the one spill call (``Scheme._spill_bottom``) refuses a window that
  is not its owner's stack-bottom frame with the messages the trap
  handlers and switches have always raised.
"""

import pytest

from repro.apps.spellcheck.pipeline import SpellConfig, run_spellchecker
from repro.apps.synthetic import spawn_fork_join
from repro.core.allocation import LRUBottomAllocation
from repro.runtime.kernel import Kernel
from repro.windows.errors import WindowGeometryError
from tests.helpers import call_to_depth, dispatch, make_machine, new_thread

CONFIG = SpellConfig.named("high", "fine", scale=0.02)


def _wrap_switch(kernel, before=None, after=None):
    """Run ``before(scheme, out_tw, in_tw)`` and ``after(...)`` around
    every context switch of ``kernel``."""
    scheme = kernel.scheme
    switch = scheme.context_switch

    def checked(out_tw, in_tw, flush_out=False):
        if before is not None:
            before(scheme, out_tw, in_tw)
        switch(out_tw, in_tw, flush_out)
        if after is not None:
            after(scheme, out_tw, in_tw)

    scheme.context_switch = checked


@pytest.mark.parametrize("scheme_name", ["SNP", "SP"])
@pytest.mark.parametrize("n_windows", [5, 8])
def test_lru_bottom_stamps_every_dispatch(scheme_name, n_windows):
    stamps = []

    def stamp(scheme, out_tw, in_tw):
        seq = scheme._dispatch_seq
        assert seq == len(stamps) + 1
        assert scheme.last_dispatched[in_tw.tid] == seq
        stamps.append(in_tw.tid)

    result, output = run_spellchecker(
        n_windows, scheme_name, CONFIG, allocation=LRUBottomAllocation(),
        instrument=lambda kernel: _wrap_switch(kernel, after=stamp))
    assert output
    assert len(stamps) == result.counters.context_switches > 0


@pytest.mark.parametrize("scheme_name", ["SNP", "SP"])
def test_simple_allocation_keeps_no_recency(scheme_name):
    schemes = []
    result, output = run_spellchecker(
        5, scheme_name, CONFIG,
        instrument=lambda kernel: schemes.append(kernel.scheme))
    assert output and result.counters.context_switches > 0
    assert schemes[0]._dispatch_seq == 0
    assert schemes[0].last_dispatched == {}


def _resident_means_started(scheme, out_tw, in_tw):
    assert in_tw.resident == 0 or in_tw.started, (
        "thread %d arrives with %d resident windows but never ran"
        % (in_tw.tid, in_tw.resident))


@pytest.mark.parametrize("scheme_name", ["NS", "SNP", "SP"])
@pytest.mark.parametrize("n_windows", [4, 8, 32])
def test_a_resident_incoming_thread_was_started(scheme_name, n_windows):
    switches = []

    def instrument(kernel):
        _wrap_switch(kernel, before=_resident_means_started,
                     after=lambda *args: switches.append(args[2].tid))

    result, output = run_spellchecker(n_windows, scheme_name, CONFIG,
                                      instrument=instrument)
    assert output
    assert len(switches) == result.counters.context_switches > 0
    assert all(t.windows.started for t in result.threads)


@pytest.mark.parametrize("scheme_name", ["NS", "SNP", "SP"])
def test_flushing_fork_join_switches_in_started_residents(scheme_name):
    kernel = Kernel(n_windows=6, scheme=scheme_name)
    _wrap_switch(kernel, before=_resident_means_started)
    spawn_fork_join(kernel, n_children=3, items=40, flush_hint=True)
    kernel.run(max_steps=1_000_000)
    assert all(t.windows.started for t in kernel.threads)


class TestSpillRefusals:
    """``_spill_bottom`` checks its window before it moves anything."""

    @pytest.mark.parametrize("scheme_name", ["NS", "SNP", "SP"])
    def test_reserved_window(self, scheme_name):
        cpu, scheme = make_machine(8, scheme_name)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 3)
        reserved = next(w for w in range(8)
                        if cpu.map.kind(w) == "reserved")
        state = (tw.resident, tw.bottom, len(tw.store), cpu.map.entry(
            reserved))
        with pytest.raises(WindowGeometryError) as info:
            scheme._spill_bottom(reserved)
        assert str(info.value) == (
            "window %d is reserved; expected a stack-bottom frame"
            % reserved)
        assert (tw.resident, tw.bottom, len(tw.store),
                cpu.map.entry(reserved)) == state

    @pytest.mark.parametrize("scheme_name", ["NS", "SNP", "SP"])
    def test_frame_that_is_not_the_bottom(self, scheme_name):
        cpu, scheme = make_machine(8, scheme_name)
        tw = new_thread(scheme, 7)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 3)
        assert tw.resident == 3 and tw.cwp != tw.bottom
        with pytest.raises(WindowGeometryError) as info:
            scheme._spill_bottom(tw.cwp)
        assert str(info.value) == (
            "window %d belongs to thread 7 but is not its bottom" % tw.cwp)
        assert tw.resident == 3 and not tw.store

    def test_free_window(self):
        cpu, scheme = make_machine(8, "SP")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        free = next(w for w in range(8) if cpu.map.kind(w) == "free")
        with pytest.raises(WindowGeometryError,
                           match="window %d is free; expected a "
                                 "stack-bottom frame" % free):
            scheme._spill_bottom(free)
