"""The documented public API surface must exist and stay importable."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_schemes_registry(self):
        assert set(repro.SCHEMES) == {"NS", "SNP", "SP"}

    def test_kernel_signature_stable(self):
        params = inspect.signature(repro.Kernel).parameters
        for expected in ("n_windows", "scheme", "queue_policy",
                         "cost_model", "allocation",
                         "verify_registers", "scheme_kwargs"):
            assert expected in params

    def test_ops_are_exported(self):
        for op in ("Call", "Tick", "Read", "ReadLine", "Write",
                   "CloseStream", "YieldCPU", "FlushHint", "Spawn",
                   "Join"):
            assert hasattr(repro, op)

    def test_readme_quickstart_runs(self):
        """The snippet in the package docstring must actually work."""
        from repro import Call, Kernel, Tick

        def leaf(n):
            yield Tick(5)
            return n * n

        def root():
            total = 0
            for i in range(4):
                total += yield Call(leaf, i)
            return total

        kernel = Kernel(n_windows=8, scheme="SP")
        kernel.spawn(root, name="main")
        result = kernel.run()
        assert result.result_of("main") == 14
        assert result.total_cycles > 0


class TestSubpackageImports:
    def test_experiments(self):
        from repro.experiments import (
            run_fig11, run_fig15, run_table1, run_table2, run_point)
        assert callable(run_fig11) and callable(run_point)
        assert callable(run_fig15) and callable(run_table1)
        assert callable(run_table2)

    def test_apps(self):
        from repro.apps.spellcheck import (
            BUFFER_CONFIGS, SpellConfig, build_spellchecker,
            run_spellchecker)
        assert len(BUFFER_CONFIGS) == 6
        assert SpellConfig.named("high", "fine").m == 1

    def test_isa(self):
        from repro.isa import Machine, assemble
        machine = Machine(assemble("start: mov 1, %o0\n halt"))
        thread = machine.add_thread("start")
        machine.run()
        assert thread.exit_value == 1

    def test_metrics(self):
        from repro.metrics.behavior import BehaviorTracker
        from repro.metrics.tracing import OccupancyTimeline
        assert BehaviorTracker() and OccupancyTimeline()

    def test_diagrams(self):
        from repro.windows.diagrams import reenact_figure8
        assert reenact_figure8("SP").facts["cwp_did_not_move"]


#: packages whose public names resolve on first access, each with a
#: submodule that importing the package no longer loads but that stays
#: reachable as an attribute, as when the package imported it eagerly
LAZY_PACKAGES = {"repro": "runtime", "repro.core": "ns",
                 "repro.metrics": "telemetry",
                 "repro.experiments": "harness"}

#: exported constants (they carry no ``__module__``), by defining module
EXPORTED_CONSTANTS = {
    "PAPER_TABLE2": ("repro.core.costs", "PAPER_TABLE2"),
    "SCHEMES": ("repro.core.registry", "SCHEMES"),
    "RUN_REPORT_VERSION": ("repro.metrics.report", "SCHEMA_VERSION"),
    "METRICS_SNAPSHOT_VERSION": ("repro.metrics.telemetry",
                                 "SNAPSHOT_VERSION"),
}

_FRESH_IMPORT = """
import json, sys
package, submodule = sys.argv[1:]
module = __import__(package, fromlist=["__all__"])
listed = dir(module)
loaded = package + "." + submodule in sys.modules
submodule = getattr(module, submodule).__name__
namespace = {}
exec("from %s import *" % package, namespace)
print(json.dumps({"all": module.__all__, "dir": listed,
                  "star": sorted(namespace), "loaded": loaded,
                  "submodule": submodule}))
"""


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_and_star_import_in_a_fresh_process(self, package):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        submodule = LAZY_PACKAGES[package]
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_IMPORT, package, submodule],
            env=env, capture_output=True, text=True, timeout=120,
            check=True)
        seen = json.loads(proc.stdout)
        assert seen["all"]
        assert sorted(set(seen["all"]) - set(seen["dir"])) == []
        assert sorted(set(seen["all"]) - set(seen["star"])) == []
        assert not seen["loaded"]
        assert seen["submodule"] == package + "." + submodule

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_each_export_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            if name == "__version__":
                continue
            obj = getattr(module, name)
            if name in EXPORTED_CONSTANTS:
                where, attr = EXPORTED_CONSTANTS[name]
            else:
                where, attr = obj.__module__, obj.__name__
                assert attr == name
            assert obj is getattr(importlib.import_module(where), attr), name

    def test_unknown_name_raises_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            getattr(repro.core, "Nope")

    @pytest.mark.parametrize("package", ("repro", "repro.core"))
    def test_make_scheme_rejects_unknown_names(self, package):
        from repro.windows.cpu import WindowCPU

        make_scheme = importlib.import_module(package).make_scheme
        with pytest.raises(ValueError) as info:
            make_scheme("XX", WindowCPU(8))
        assert str(info.value) == (
            "unknown scheme 'XX' (expected one of NS, SNP, SP)")
        assert type(make_scheme("sp", WindowCPU(8))).__name__ == "SPScheme"
