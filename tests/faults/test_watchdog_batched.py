"""Watchdog + fault injection on the batched loop.

With a watchdog or fault injector armed, the kernel's one batched loop
detects livelock at exactly the step the step-granular reference
trampoline does, captures a replayable LivelockError bundle, and
round-trips that bundle through the delta-debugging minimizer.
"""

import pytest

from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    load_bundle,
    minimize_bundle,
    replay_bundle,
    run_workload,
)
from repro.runtime import LivelockError
from tests.support.trampoline import make_kernel


@pytest.fixture(autouse=True, params=["batched"])
def execution_backend(request):
    """Run once on the ambient backend instead of the directory-wide
    backend sweep; the reference loop is reached through
    ``tests.support.trampoline``."""
    return request.param


def storm_kernel(core, watchdog=80, faults=None, **kwargs):
    from repro.apps.synthetic import spawn_yield_storm

    kernel = make_kernel(core=core, n_windows=4, scheme="SP",
                         watchdog=watchdog, faults=faults, **kwargs)
    spawn_yield_storm(kernel, n_spinners=2, spins=300)
    return kernel


STORM_CONFIG = {
    "workload": "synthetic-yield-storm",
    "scheme": "SP", "n_windows": 4,
    "n_spinners": 2, "spins": 300,
    "verify_registers": True, "audit": False, "watchdog": 80,
}


class TestAutoFallback:
    def test_watchdog_livelock_fires_under_batched_core(self):
        kernel = storm_kernel("batched")
        with pytest.raises(LivelockError) as info:
            kernel.run()
        assert info.value.context["max_stall"] == 80
        assert "step" in info.value.context

    def test_batched_matches_generator_with_watchdog(self):
        """Bit-identical: same failing step, same cycle count, same
        counters on both loops."""
        errors = {}
        for core in ("generator", "batched"):
            kernel = storm_kernel(core)
            with pytest.raises(LivelockError) as info:
                kernel.run()
            errors[core] = (info.value.context["step"],
                            info.value.context["cycle"],
                            kernel.counters.snapshot())
        assert errors["batched"] == errors["generator"]

    def test_watchdog_and_faults_combined_under_batched(self):
        """Both hooks armed at once: the survivable sched fault fires
        *and* the watchdog still catches the storm."""
        injector = FaultInjector(FaultPlan.parse("sched@2", seed=7))
        kernel = storm_kernel("batched", faults=injector)
        with pytest.raises(LivelockError) as info:
            kernel.run()
        assert injector.fired, "sched fault never fired"
        assert info.value.context["faults_fired"] == len(injector.fired)

    def test_combined_parity_across_cores(self):
        runs = {}
        for core in ("generator", "batched"):
            injector = FaultInjector(FaultPlan.parse("sched@2", seed=7))
            kernel = storm_kernel(core, faults=injector)
            with pytest.raises(LivelockError) as info:
                kernel.run()
            runs[core] = (info.value.context["step"],
                          [f for f in injector.fired])
        assert runs["batched"] == runs["generator"]


class TestLivelockBundle:
    def crash(self, tmp_path, plan_text=None):
        config = dict(STORM_CONFIG)
        injector = (FaultInjector(FaultPlan.parse(plan_text, seed=7))
                    if plan_text else None)
        with pytest.raises(LivelockError) as info:
            run_workload(config, faults=injector, crash_dir=tmp_path)
        return info.value

    def test_livelock_bundle_replays_bit_for_bit(self, tmp_path):
        exc = self.crash(tmp_path / "orig")
        assert exc.bundle_path is not None
        bundle = load_bundle(exc.bundle_path)
        assert bundle["error"]["type"] == "LivelockError"
        matched, __, detail = replay_bundle(exc.bundle_path,
                                            workdir=tmp_path / "replay")
        assert matched, detail

    def test_livelock_bundle_minimize_roundtrip(self, tmp_path):
        """A faulted livelock bundle shrinks to <=1 spec and a tighter
        storm, and the minimized artifact replays bit-for-bit."""
        exc = self.crash(tmp_path / "orig",
                         plan_text="sched@2,store_delay@1")
        result = minimize_bundle(exc.bundle_path,
                                 out_dir=tmp_path / "min")
        assert result.error_type == "LivelockError"
        assert result.final_specs <= 1
        assert result.verified
        # shrunk artifact is a first-class bundle: replay it again
        matched, __, detail = replay_bundle(result.path,
                                            workdir=tmp_path / "again")
        assert matched, detail
        # the minimizer shrank the schedule axis too
        final = load_bundle(result.path)
        assert final["config"]["spins"] <= STORM_CONFIG["spins"]
        assert final["minimization"]["original"]["specs"] == 2

    def test_unfaulted_livelock_minimizes_to_zero_specs(self, tmp_path):
        exc = self.crash(tmp_path / "orig")
        result = minimize_bundle(exc.bundle_path,
                                 out_dir=tmp_path / "min")
        assert result.final_specs == 0
        assert result.verified
        assert load_bundle(result.path)["fault_plan"] is None
