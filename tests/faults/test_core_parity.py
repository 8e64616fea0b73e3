"""Faults must fire at the same simulated point in both loops.

The differential harness (tests/core/test_batched_vs_trampoline.py)
proves unfaulted runs bit-identical; this file pins the *faulted* side:
for every fault class the injector's fired records (kind, site, trigger
count and detail), the outcome, the error text and the cycle-domain
counters must agree exactly between the batched loop, which carries
the fault hooks, the audit and the watchdog itself, and the
step-granular reference trampoline (``tests.support.trampoline``).
"""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from tests.support.trampoline import force_trampoline

SPEC_OF = {
    "register": "register@3:0",
    "retval": "retval@5",
    "wim": "wim@4",
    "cwp": "cwp@4",
    "trap_drop": "trap_drop@2",
    "trap_dup": "trap_dup@2",
    "store_corrupt": "store_corrupt@1",
    "store_fail": "store_fail@1",
    "store_delay": "store_delay@1",
    "sched": "sched@3",
}

N_WINDOWS = 6
SCHEME = "SP"
CONFIG = SpellConfig.named("high", "coarse", scale=0.05)


@pytest.fixture(autouse=True)
def loop_label():
    # this test drives both loops explicitly: no id label
    yield


def run_faulted(core, spec):
    injector = FaultInjector(FaultPlan.parse(spec))
    error = output = result = None
    try:
        result, output = run_spellchecker(
            N_WINDOWS, SCHEME, CONFIG, verify_registers=True,
            faults=injector, audit=True, watchdog=200_000,
            instrument=(force_trampoline if core == "generator"
                        else None))
    except ReproError as exc:
        error = exc
    snap = {
        "fired": injector.fired,
        "outcome": "detected" if error else "survived",
        # the enriched message embeds the crash step, simulated cycle,
        # running thread and CWP — equality pins the firing point
        "error": (type(error).__name__, str(error)) if error else None,
        "output": output,
    }
    if result is not None:
        counters = result.counters
        snap["steps"] = result.steps
        snap["cycles"] = (counters.compute_cycles, counters.call_cycles,
                         counters.trap_cycles, counters.switch_cycles)
        snap["traps"] = (counters.overflow_traps,
                         counters.underflow_traps)
        snap["switches"] = counters.context_switches
        snap["loop"] = result.loop
    return snap


@pytest.mark.parametrize("kind", sorted(SPEC_OF))
def test_fault_fires_identically_in_both_cores(kind):
    spec = SPEC_OF[kind]
    gen = run_faulted("generator", spec)
    bat = run_faulted("batched", spec)
    assert gen["fired"], "fault %s never fired" % kind
    loops = (gen.pop("loop", None), bat.pop("loop", None))
    assert gen == bat
    if bat["outcome"] == "survived":
        assert loops == ("step", "pure-batched")
