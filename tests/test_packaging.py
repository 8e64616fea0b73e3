"""The build is defined by ``pyproject.toml`` alone: no ``setup.py``,
no extension modules or extras, and package discovery finds every
``repro`` package under ``src/``."""

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
