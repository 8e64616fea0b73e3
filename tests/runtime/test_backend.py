"""Retired execution knobs: the step-granular ``"generator"`` core and
the compiled backend.

Production has one dispatch loop, the pure batched loop, and nothing
picks another: ``core=`` and ``backend=`` are not arguments, the
spellcheck CLI has no ``--backend``, and ``$REPRO_BACKEND`` is inert.
The retired core lives on only as the test-support reference loop, and
bundles recorded on it still replay.
"""

import warnings

import pytest

from repro import Kernel, Tick
from repro.apps.spellcheck import SpellConfig, run_spellchecker

CONFIG = SpellConfig.named("high", "coarse", scale=0.05)


class TestGeneratorRetirement:
    def test_kernel_takes_no_core_argument(self):
        with pytest.raises(TypeError, match="core"):
            Kernel(core="batched")

    def test_trampoline_support_module_forces_reference_loop(self):
        from tests.support.trampoline import make_kernel

        def body():
            yield Tick(3)
            return "ok"

        kernel = make_kernel(core="generator")
        kernel.spawn(body, name="t")
        assert kernel.run().loop == "step"
        assert kernel.threads[0].result == "ok"
        assert kernel._steps > 0

    def test_recorded_generator_bundle_config_still_replays(self):
        from repro.faults.workloads import run_workload

        result = run_workload({"workload": "synthetic-ping-pong",
                               "core": "generator", "rounds": 3})
        assert result.steps > 0


class TestBackendRetirement:
    """There is one execution backend: no ``backend=`` argument, no
    ``--backend`` flag."""

    def test_kernel_takes_no_backend_argument(self):
        with pytest.raises(TypeError, match="backend"):
            Kernel(backend="pure")

    def test_machine_takes_no_backend_argument(self):
        from repro.isa import Machine, assemble

        program = assemble("start:\n    halt\n")
        with pytest.raises(TypeError, match="backend"):
            Machine(program, backend="pure")

    def test_spellchecker_takes_no_backend_argument(self):
        with pytest.raises(TypeError, match="backend"):
            run_spellchecker(8, "SP", CONFIG, backend="pure")

    def test_repro_backend_environment_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, __ = run_spellchecker(8, "SP", CONFIG)
        assert result.loop == "pure-batched"

    def test_spellcheck_cli_rejects_backend_flag(self, capsys):
        from repro.apps.spellcheck.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["--scale", "0.02", "--backend", "pure"])
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err
