"""The kernel watchdog: livelock detection without false positives."""

import pytest

from repro.faults.watchdog import DEFAULT_MAX_STALL, Watchdog
from repro.runtime import LivelockError, Tick, YieldCPU
from repro.runtime.kernel import Kernel


class TestWatchdogUnit:
    def test_progress_resets_the_stall_clock(self):
        dog = Watchdog(max_stall=10)
        assert dog.stalled_for(marks=0, step=1) == 0
        assert dog.stalled_for(marks=0, step=5) == 4
        assert dog.stalled_for(marks=1, step=6) == 0  # progress moved
        assert dog.stalled_for(marks=1, step=9) == 3

    def test_expired_at_threshold(self):
        dog = Watchdog(max_stall=3)
        assert dog.stalled_for(marks=0, step=1) < dog.max_stall
        assert dog.stalled_for(marks=0, step=3) < dog.max_stall
        assert dog.stalled_for(marks=0, step=4) >= dog.max_stall

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            Watchdog(max_stall=0)

    def test_default_threshold_is_generous(self):
        assert Watchdog().max_stall == DEFAULT_MAX_STALL


def spinner():
    while True:
        yield YieldCPU()


def worker(n):
    for __ in range(n):
        yield Tick(5)
    return n


class TestKernelLivelock:
    def test_yield_storm_raises_livelock(self):
        kernel = Kernel(n_windows=8, scheme="SP", watchdog=50)
        kernel.spawn(spinner, name="spin1")
        kernel.spawn(spinner, name="spin2")
        with pytest.raises(LivelockError) as info:
            kernel.run()
        err = info.value
        assert err.context["max_stall"] == 50
        assert "spin1" in str(err) and "spin2" in str(err)
        assert "step" in err.context

    def test_real_progress_never_trips_the_watchdog(self):
        kernel = Kernel(n_windows=8, scheme="SP", watchdog=50)
        kernel.spawn(worker, 400, name="w")  # 400 ticks >> max_stall
        result = kernel.run()
        assert result.result_of("w") == 400

    def test_watchdog_off_by_default(self):
        kernel = Kernel(n_windows=8, scheme="SP")
        assert kernel._watchdog is None

    def test_livelock_is_a_repro_error(self):
        from repro.errors import ReproError
        from repro.runtime.errors import RuntimeFault

        assert issubclass(LivelockError, RuntimeFault)
        assert issubclass(LivelockError, ReproError)
