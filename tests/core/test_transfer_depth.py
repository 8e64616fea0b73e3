"""The Tamir & Sequin transfer-depth knob on the NS scheme (§2): how
many windows each trap moves."""

import pytest

from repro import Call, Kernel, Tick
from repro.windows.errors import WindowGeometryError
from tests.helpers import (
    call_to_depth,
    dispatch,
    make_machine,
    new_thread,
    ret,
    ret_to_depth,
    verify,
)


def deep(n):
    yield Tick(1)
    if n == 0:
        return 0
    below = yield Call(deep, n - 1)
    return below + 1


class TestTransferDepthTraps:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_overflow_spills_depth_windows(self, depth):
        cpu, scheme = make_machine(8, "NS", transfer_depth=depth)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 7)  # fills the n-1 usable windows
        call_to_depth(cpu, tw, 8)  # one overflow
        assert cpu.counters.overflow_traps == 1
        assert len(tw.store) == depth
        assert cpu.counters.windows_spilled == depth
        verify(cpu, scheme)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_underflow_restores_depth_windows(self, depth):
        cpu, scheme = make_machine(8, "NS", transfer_depth=depth)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 12)
        ret_to_depth(cpu, tw, tw.depth - tw.resident + 1)
        traps_before = cpu.counters.underflow_traps
        restored_before = cpu.counters.windows_restored
        ret(cpu, tw)  # underflow
        assert cpu.counters.underflow_traps == traps_before + 1
        assert tw.resident == depth
        assert cpu.counters.windows_restored == restored_before + depth
        verify(cpu, scheme)

    def test_depth_reduces_trap_count_for_deep_unwinds(self):
        traps = {}
        for depth in (1, 4):
            cpu, scheme = make_machine(8, "NS", transfer_depth=depth)
            tw = new_thread(scheme, 0)
            dispatch(cpu, scheme, None, tw)
            call_to_depth(cpu, tw, 30)
            ret_to_depth(cpu, tw, 1)
            traps[depth] = cpu.counters.underflow_traps
        assert traps[4] < traps[1]

    def test_invalid_depth_rejected(self):
        with pytest.raises(WindowGeometryError):
            make_machine(8, "NS", transfer_depth=0)

    def test_depth_capped_by_file_size(self):
        """A huge transfer depth must not wrap the window file."""
        cpu, scheme = make_machine(4, "NS", transfer_depth=16)
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        call_to_depth(cpu, tw, 10)
        ret_to_depth(cpu, tw, 1)
        assert tw.depth == 1
        verify(cpu, scheme)


class TestTransferDepthKernel:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_results_independent_of_depth(self, depth):
        kernel = Kernel(n_windows=6, scheme="NS",
                        scheme_kwargs={"transfer_depth": depth})
        kernel.spawn(deep, 20, name="d")
        result = kernel.run(max_steps=100_000)
        assert result.result_of("d") == 20

    def test_save_counts_independent_of_depth(self):
        saves = set()
        for depth in (1, 2, 4):
            kernel = Kernel(n_windows=6, scheme="NS",
                            scheme_kwargs={"transfer_depth": depth})
            kernel.spawn(deep, 20, name="d")
            result = kernel.run(max_steps=100_000)
            saves.add(result.counters.saves)
        assert len(saves) == 1
