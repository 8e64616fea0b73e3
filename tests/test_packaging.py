"""The build is defined by ``pyproject.toml`` alone: no ``setup.py``,
no extension modules or extras, and package discovery finds every
``repro`` package under ``src/``."""

import re
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_is_the_whole_build():
    assert not (ROOT / "setup.py").exists()
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert "optional-dependencies" not in pyproject
    assert "ext-modules" not in pyproject
    assert not list((ROOT / "src").rglob("*.c"))


def test_pyproject_lists_every_repro_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    setuptools_config = config["tool"]["setuptools"]
    on_disk = {
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src" / "repro").rglob("__init__.py")}
    assert setuptools_config["package-dir"] == {"": "src"}
    assert set(setuptools_config["packages"]) == on_disk


def test_python_floor_is_the_lowest_ci_tier1_version():
    floor = re.search(r'requires-python\s*=\s*">=(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tier1 = ci[ci.index("\n  tier1:"):ci.index("\n  static-analysis:")]
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", tier1).group(1)
    versions = [tuple(map(int, v.strip(' "\'').split(".")))
                for v in matrix.split(",")]
    assert tuple(map(int, floor.split("."))) == min(versions)
    assert "(%s+)" % floor in (ROOT / "README.md").read_text()
