"""WindowCPU guard rails and accessors."""

import pytest

from repro.windows.cpu import WindowCPU
from repro.windows.errors import WindowGeometryError
from repro.windows.thread_windows import ThreadWindows
from tests.helpers import dispatch, make_machine, new_thread


class TestGuards:
    def test_save_without_scheme_rejected(self):
        cpu = WindowCPU(4)
        tw = ThreadWindows(0)
        with pytest.raises(WindowGeometryError):
            cpu.save(tw)

    def test_save_by_non_running_thread_rejected(self):
        cpu, scheme = make_machine(6, "SP")
        t1 = new_thread(scheme, 0)
        t2 = new_thread(scheme, 1)
        dispatch(cpu, scheme, None, t1)
        with pytest.raises(WindowGeometryError):
            cpu.save(t2)

    def test_restore_at_root_depth_rejected(self):
        cpu, scheme = make_machine(6, "SP")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        with pytest.raises(WindowGeometryError):
            cpu.restore(tw)

    def test_desynchronised_cwp_detected(self):
        cpu, scheme = make_machine(6, "SNP")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        tw.cwp = cpu.wf.below(tw.cwp)  # corrupt on purpose
        with pytest.raises(WindowGeometryError):
            cpu.save(tw)

    def test_double_scheme_binding_rejected(self):
        from repro.core import make_scheme

        cpu = WindowCPU(6)
        make_scheme("SNP", cpu)
        with pytest.raises(WindowGeometryError):
            make_scheme("SP", cpu)

    def test_unknown_scheme_name(self):
        from repro.core import make_scheme

        cpu = WindowCPU(6)
        with pytest.raises(ValueError):
            make_scheme("BOGUS", cpu)


class TestAccessors:
    def test_register_accessors_track_cwp(self):
        cpu, scheme = make_machine(6, "SP")
        tw = new_thread(scheme, 0)
        dispatch(cpu, scheme, None, tw)
        cpu.write_local(3, "L")
        cpu.write_in(2, "I")
        cpu.write_out(1, "O")
        assert cpu.read_local(3) == "L"
        assert cpu.read_in(2) == "I"
        assert cpu.read_out(1) == "O"

    def test_n_windows_property(self):
        assert WindowCPU(9).n_windows == 9

    def test_default_counters_and_cost(self):
        cpu = WindowCPU(5)
        assert cpu.counters.saves == 0
        assert cpu.cost.save_instr == 1
