"""The chaos contract: every fault class is *survived* (architectural
results identical to the unfaulted run) or *detected* (a specific
``ReproError``) — never silently wrong output.

The workload is the full spell-check pipeline at a small scale with
register verification and the continuous invariant audit on, i.e. the
maximum-detection configuration the chaos CI job runs.
"""

import pytest

from repro.apps.spellcheck import SpellConfig, run_spellchecker
from repro.errors import ReproError, TransientError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.inject import InjectedStoreError
from repro.faults.plan import FAULT_KINDS
from repro.runtime.ops import Read

#: kinds that must be *survived* (architectural results unchanged);
#: everything else must be *detected* (or provably harmless)
SURVIVABLE_KINDS = ("store_delay", "sched")

N_WINDOWS = 6
SCHEME = "SP"
CONFIG = SpellConfig.named("high", "coarse", scale=0.05)

#: specs whose trigger points are known to land inside this workload
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

_reference = {}


def reference_output() -> bytes:
    if "output" not in _reference:
        __, output = run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                                      verify_registers=True, audit=True)
        _reference["output"] = output
    return _reference["output"]


def run_with(plan: FaultPlan):
    """Returns ``(outcome, output_or_error, injector)`` with outcome
    'survived' or 'detected'."""
    injector = FaultInjector(plan)
    try:
        __, output = run_spellchecker(
            N_WINDOWS, SCHEME, CONFIG, verify_registers=True,
            faults=injector, audit=True, watchdog=200_000)
    except ReproError as exc:
        return "detected", exc, injector
    return "survived", output, injector


def _lonely_reader(stream):
    yield Read(stream, 8)  # never written: the run deadlocks


class TestContract:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_survived_or_detected_never_wrong(self, kind):
        plan = FaultPlan.parse(SPEC_OF[kind])
        outcome, payload, injector = run_with(plan)
        assert injector.fired, "fault %s never fired" % kind
        if outcome == "survived":
            assert payload == reference_output(), (
                "fault %s silently changed the results" % kind)
        else:
            assert isinstance(payload, ReproError)
            assert str(payload)  # a diagnosable message, not a bare type

    @pytest.mark.parametrize("kind", SURVIVABLE_KINDS)
    def test_survivable_kinds_survive(self, kind):
        """Delays and schedule shuffles must never change results."""
        outcome, payload, injector = run_with(
            FaultPlan.parse(SPEC_OF[kind]))
        assert outcome == "survived"
        assert payload == reference_output()
        assert injector.fired[0]["kind"] == kind

    @pytest.mark.parametrize("kind", ["register", "retval", "store_fail"])
    def test_corruptions_are_detected(self, kind):
        """Value corruption and store failures must be *caught*, not
        absorbed — silent absorption would mean verification is off."""
        outcome, payload, __ = run_with(FaultPlan.parse(SPEC_OF[kind]))
        assert outcome == "detected", (
            "fault %s was absorbed without detection" % kind)

    def test_detected_errors_carry_context(self):
        outcome, exc, __ = run_with(FaultPlan.parse(SPEC_OF["retval"]))
        assert outcome == "detected"
        assert "thread" in exc.context
        assert "step" in exc.context
        assert "faults_fired" in exc.context

    @pytest.mark.parametrize("seed", [1993, 7, 42])
    def test_random_plans_uphold_the_contract(self, seed, monkeypatch):
        monkeypatch.setattr(FaultPlan, "HORIZON", 10)
        plan = FaultPlan.random(seed, count=3)
        outcome, payload, __ = run_with(plan)
        if outcome == "survived":
            assert payload == reference_output()
        else:
            assert isinstance(payload, ReproError)


class TestDeterminism:
    def test_same_plan_same_outcome(self):
        plan = FaultPlan.parse("retval@5")
        out1 = run_with(plan)
        out2 = run_with(plan)
        assert out1[0] == out2[0] == "detected"
        assert str(out1[1]) == str(out2[1])
        assert out1[1].context == out2[1].context

    def test_injectors_are_single_use(self):
        """Counters advance with the run, so replay must rebuild the
        injector from the plan (as the bundle replayer does)."""
        injector = FaultInjector(FaultPlan.parse("retval@5"))
        with pytest.raises(ReproError):
            run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                             verify_registers=True, faults=injector,
                             audit=True)
        assert injector.armed == 0
        assert len(injector.fired) == 1


class TestInjectorMechanics:
    def test_store_error_is_transient(self):
        assert issubclass(InjectedStoreError, TransientError)
        assert issubclass(InjectedStoreError, ReproError)

    def test_fault_events_land_on_the_bus(self):
        from repro.runtime.kernel import Kernel

        events = []

        def instrument(kernel):
            recorder = kernel.enable_tracing()
            events.append(recorder)

        injector = FaultInjector(FaultPlan.parse("store_delay@1,sched@2"))
        run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                         verify_registers=True, faults=injector,
                         instrument=instrument)
        recorder = events[0]
        faults = [e for e in recorder.filter(kinds=["fault"])]
        assert len(faults) == 2
        assert {e.attrs["fault"] for e in faults} == {"store_delay",
                                                      "sched"}

    @pytest.mark.parametrize("spec, fired", [("sched@1000", False),
                                             ("sched@1", True)])
    def test_faults_fired_only_when_a_fault_fired(self, spec, fired):
        """A crash's context names ``faults_fired`` only when a fault
        fired: an armed plan that never fires leaves the key out, so a
        fault-free run can never carry it."""
        from repro.runtime.errors import DeadlockError
        from repro.runtime.kernel import Kernel

        injector = FaultInjector(FaultPlan.parse(spec))
        kernel = Kernel(n_windows=N_WINDOWS, scheme=SCHEME,
                        faults=injector)
        orphan = kernel.stream(4, "orphan")
        kernel.spawn(_lonely_reader, orphan, name="a")
        kernel.spawn(_lonely_reader, orphan, name="b")
        with pytest.raises(DeadlockError) as info:
            kernel.run()
        assert bool(injector.fired) is fired
        assert ("faults_fired" in info.value.context) is fired
        if fired:
            assert info.value.context["faults_fired"] == 1

    def test_summary_names_fired_and_armed(self):
        injector = FaultInjector(FaultPlan.parse("sched@3"))
        assert "0 armed" not in injector.summary()
        run_spellchecker(N_WINDOWS, SCHEME, CONFIG,
                         verify_registers=True, faults=injector)
        assert "sched@3/enqueue" in injector.summary()
        assert "0 armed" in injector.summary()
