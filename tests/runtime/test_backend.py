"""Backend selection, graceful fallback, and core retirement.

The compiled fast path (:mod:`repro._fast`) is optional: selection
must honor kwarg > ``$REPRO_BACKEND`` > auto-detect, degrade to the
pure loop with a single warning when the compiled backend is
explicitly requested but unusable, and never warn when the fallback
was not explicitly opposed.  The retired ``"generator"`` core must
raise a pointer error from the public constructor while remaining
reachable for bundle replay and the test-support trampoline.
"""

import warnings

import pytest

from repro import Kernel, Tick
from repro.runtime import backend as backend_mod
from repro.runtime.backend import (
    ENV_BACKEND,
    compiled_available,
    requested_backend,
    select_backend,
)
from repro.runtime.batch import resolve_core

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="repro._fast not built")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)


def tick_workload(kernel):
    def body():
        yield Tick(3)
        return "ok"

    kernel.spawn(body, name="t")


class TestSelection:
    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "compiled")
        assert requested_backend("pure") == "pure"
        assert select_backend("pure") == "pure"

    def test_env_consulted_without_kwarg(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "pure")
        assert requested_backend() == "pure"
        assert select_backend() == "pure"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            requested_backend("turbo")
        with pytest.raises(ValueError, match="unknown execution backend"):
            Kernel(backend="turbo")

    def test_auto_detect_matches_availability(self):
        expected = "compiled" if compiled_available() else "pure"
        assert select_backend() == expected

    def test_kernel_records_backend(self):
        kernel = Kernel(backend="pure")
        assert kernel.backend == "pure"
        assert kernel._fast is None

    @needs_compiled
    def test_kernel_compiled_backend(self):
        kernel = Kernel(backend="compiled")
        assert kernel.backend == "compiled"
        assert kernel._fast is not None

    @needs_compiled
    def test_machine_records_backend(self):
        from repro.isa import Machine, assemble

        src = """
        start:
            mov 1, %l0
            halt
        """
        assert Machine(assemble(src), backend="pure").backend == "pure"
        assert Machine(assemble(src),
                       backend="compiled").backend == "compiled"


class TestFallback:
    def test_request_without_extension_warns_once(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_fast", None)
        monkeypatch.setattr(backend_mod, "_fast_checked", True)
        with pytest.warns(RuntimeWarning,
                          match="repro._fast is not built") as caught:
            kernel = Kernel(backend="compiled")
        assert kernel.backend == "pure"
        assert len(caught) == 1

    def test_auto_detect_without_extension_is_silent(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_fast", None)
        monkeypatch.setattr(backend_mod, "_fast_checked", True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Kernel().backend == "pure"

    @needs_compiled
    @pytest.mark.parametrize("knobs,needs", [
        ({"faults": "injector"}, "fault injection"),
        ({"audit": True}, "invariant audit"),
        ({"watchdog": 1000}, "watchdog"),
    ])
    def test_step_granular_config_warns_once(self, knobs, needs):
        if knobs.get("faults"):
            from repro.faults import FaultInjector, FaultPlan

            knobs = dict(knobs, faults=FaultInjector(
                FaultPlan.parse("sched@2", seed=1)))
        with pytest.warns(RuntimeWarning, match=needs) as caught:
            kernel = Kernel(backend="compiled", **knobs)
        assert kernel.backend == "pure"
        assert kernel._fast is None
        fallbacks = [w for w in caught
                     if "step-granular" in str(w.message)]
        assert len(fallbacks) == 1
        # the run is still correct on the fallback path
        tick_workload(kernel)
        kernel.run()
        assert kernel.threads[0].result == "ok"

    @needs_compiled
    def test_step_granular_config_silent_without_explicit_request(self):
        from repro.faults import FaultInjector, FaultPlan

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = Kernel(faults=FaultInjector(
                FaultPlan.parse("sched@2", seed=1)))
        assert kernel._fast is None

    @needs_compiled
    def test_observed_run_warns_once_and_takes_pure_batched(self):
        from repro.metrics.behavior import BehaviorTracker
        from repro.metrics.events import EventTally
        from repro.metrics.tracing import OccupancyTimeline

        with pytest.warns(RuntimeWarning, match="run observers") as caught:
            kernel = Kernel(backend="compiled")
            kernel.tracker = BehaviorTracker()
            kernel.timeline = OccupancyTimeline()
            kernel.tally = EventTally()
        assert len([w for w in caught
                    if "run observers" in str(w.message)]) == 1
        assert kernel.backend == "pure"
        assert kernel._fast is None
        tick_workload(kernel)
        result = kernel.run()
        assert result.loop == "pure-batched"
        assert kernel.tally.summary(result)["by_kind"]["retire"] == 1

    @needs_compiled
    def test_observed_run_silent_without_explicit_request(self):
        from repro.metrics.events import EventTally

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = Kernel()
            kernel.tally = EventTally()
        assert kernel._fast is None


class TestGeneratorRetirement:
    def test_public_constructor_rejects_generator(self):
        with pytest.raises(ValueError, match="retired"):
            Kernel(core="generator")

    def test_resolve_core_pointer_error(self):
        with pytest.raises(ValueError,
                           match="tests/support/trampoline.py"):
            resolve_core("generator")

    def test_unknown_core_still_generic(self):
        with pytest.raises(ValueError, match="unknown execution core"):
            resolve_core("warp")

    def test_trampoline_support_module_forces_reference_loop(self):
        from tests.support.trampoline import make_kernel

        kernel = make_kernel(core="generator")
        assert kernel.core == "generator"
        tick_workload(kernel)
        kernel.run()
        assert kernel.threads[0].result == "ok"
        assert kernel._steps > 0

    def test_recorded_generator_bundle_config_still_replays(self):
        from repro.faults.workloads import run_workload

        result = run_workload({"workload": "synthetic-ping-pong",
                               "core": "generator", "rounds": 3})
        assert result.steps > 0
