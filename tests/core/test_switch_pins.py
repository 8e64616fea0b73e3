"""Pins for the sharing-scheme switch branches the goldens never reach.

The golden grids (``tests/experiments/goldens``) run the default simple
allocation and never request a flush-type switch, so the windowless
dispatch under a non-default policy (``allocation.choose_top``) and the
§4.4 flush at switch-out are pinned here instead: the spell checker
under SNP and SP × free-search and LRU-bottom allocation × 5 and 8
windows, and the fork-join workload with its flush hint.

Each case keeps the full switch and trap traces and compares them, the
switch-transfer histogram and the total cycle count with the committed
values below; a trace is compared through the SHA-256 of its records,
its length alongside so a drift shows where it starts.  To print the
values of the current tree::

    PYTHONPATH=src:. python -m tests.core.test_switch_pins
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.apps.spellcheck.pipeline import SpellConfig, run_spellchecker
from repro.apps.synthetic import expected_fork_join_total, spawn_fork_join
from repro.core.allocation import FreeSearchAllocation, LRUBottomAllocation
from repro.metrics.counters import SwitchRecord
from repro.runtime.kernel import Kernel

ALLOCATIONS = {"free-search": FreeSearchAllocation,
               "lru-bottom": LRUBottomAllocation}
SPELL_CASES = [(scheme, policy, n_windows)
               for scheme in ("SNP", "SP")
               for policy in ALLOCATIONS
               for n_windows in (5, 8)]
FORK_JOIN_ITEMS = 40

#: case id -> (switch records, their sha256[:16],
#:             trap records, their sha256[:16],
#:             sorted switch_transfer_hist items, total_cycles)
PINS = {
    "spell/SNP/free-search/w5": (
        8425, "0ca6cecf02b6f3a7", 1699, "2efb571e9874dd82",
        [((0, 0), 2539), ((0, 1), 1571), ((1, 0), 1337), ((1, 1), 2978)],
        1479258),
    "spell/SNP/free-search/w8": (
        8425, "4db2cf0b33c1036a", 695, "a95f0a51c3e91b1b",
        [((0, 0), 3951), ((0, 1), 2179), ((1, 0), 2031), ((1, 1), 264)],
        1253781),
    "spell/SNP/lru-bottom/w5": (
        8425, "e1761de8bc745335", 1688, "eb0aca34be439dfc",
        [((0, 0), 3148), ((0, 1), 1836), ((1, 0), 163), ((1, 1), 1787),
         ((2, 0), 1), ((2, 1), 1490)],
        1508976),
    "spell/SNP/lru-bottom/w8": (
        8425, "e85b45b9e996db3a", 1239, "8779ff0c551265d2",
        [((0, 0), 5430), ((0, 1), 1436), ((1, 0), 975), ((1, 1), 111),
         ((2, 0), 2), ((2, 1), 471)],
        1251805),
    "spell/SP/free-search/w5": (
        8425, "ec3498be79699ef6", 1750, "cd13515d354b2387",
        [((0, 0), 3290), ((0, 1), 270), ((1, 0), 4), ((1, 1), 4588),
         ((2, 0), 1), ((2, 1), 272)],
        1431280),
    "spell/SP/free-search/w8": (
        8425, "3f720e7480aa0251", 1663, "19cd21091ffe0ee0",
        [((0, 0), 6779), ((0, 1), 271), ((1, 0), 2), ((1, 1), 1115),
         ((2, 0), 2), ((2, 1), 256)],
        1099814),
    "spell/SP/lru-bottom/w5": (
        8425, "5371a698966a46f8", 1611, "bcb84c71889bc47b",
        [((0, 0), 3342), ((0, 1), 466), ((1, 0), 3), ((1, 1), 4341),
         ((2, 0), 1), ((2, 1), 272)],
        1419952),
    "spell/SP/lru-bottom/w8": (
        8425, "25dd98f0d69ebc88", 1336, "1b7139382a55b57d",
        [((0, 0), 4201), ((0, 1), 313), ((1, 0), 2), ((1, 1), 3508),
         ((2, 1), 401)],
        1331950),
    "fork-join-flush/SNP": (
        29, "dd62700e40bbb0ee", 17, "c096ffed46847493",
        [((0, 0), 1), ((0, 1), 10), ((1, 0), 3), ((1, 1), 14), ((2, 1), 1)],
        5958),
    "fork-join-flush/SP": (
        29, "30237c8e97aed033", 18, "3dc41a2dab22ae60",
        [((0, 0), 5), ((0, 1), 18), ((1, 1), 6)],
        5576),
}


def _digest(records) -> str:
    text = "\n".join(repr(astuple(r)) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _observed(records, counters) -> tuple:
    switches = [r for r in records if isinstance(r, SwitchRecord)]
    traps = [r for r in records if not isinstance(r, SwitchRecord)]
    return (len(switches), _digest(switches), len(traps), _digest(traps),
            sorted(counters.switch_transfer_hist.items()),
            counters.total_cycles)


def run_spell_case(scheme, policy, n_windows) -> tuple:
    config = SpellConfig.named("high", "fine", scale=0.02)
    records = []
    result, output = run_spellchecker(
        n_windows, scheme, config, allocation=ALLOCATIONS[policy](),
        instrument=lambda kernel: setattr(kernel.scheme, "records",
                                          records))
    assert output
    return _observed(records, result.counters)


def run_fork_join_case(scheme) -> tuple:
    kernel = Kernel(n_windows=6, scheme=scheme)
    records = kernel.scheme.records = []
    spawn_fork_join(kernel, n_children=3, items=FORK_JOIN_ITEMS,
                    flush_hint=True)
    result = kernel.run(max_steps=1_000_000)
    assert result.result_of("parent") == expected_fork_join_total(
        FORK_JOIN_ITEMS)
    return _observed(records, result.counters)


def all_cases():
    for scheme, policy, n_windows in SPELL_CASES:
        yield ("spell/%s/%s/w%d" % (scheme, policy, n_windows),
               lambda s=scheme, p=policy, n=n_windows: run_spell_case(s, p, n))
    for scheme in ("SNP", "SP"):
        yield ("fork-join-flush/%s" % scheme,
               lambda s=scheme: run_fork_join_case(s))


@pytest.mark.parametrize("scheme,policy,n_windows", SPELL_CASES)
def test_spellcheck_allocation_pins(scheme, policy, n_windows):
    case = "spell/%s/%s/w%d" % (scheme, policy, n_windows)
    assert run_spell_case(scheme, policy, n_windows) == PINS[case]


@pytest.mark.parametrize("scheme", ["SNP", "SP"])
def test_fork_join_flush_pins(scheme):
    assert run_fork_join_case(scheme) == PINS["fork-join-flush/%s" % scheme]


if __name__ == "__main__":
    for case, run in all_cases():
        print("    %r: %r," % (case, run()))
