"""The package namespace, and the demo scripts that import from it."""

import importlib
import runpy
import sys
import tomllib
import types
from importlib import metadata
from pathlib import Path

import pytest
from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet

import maslovflow

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_the_package_binds_only_its_submodules():
    # every public name lives in its module; the package adds no alias
    assert maslovflow.__all__ == ["core", "flow", "maslov", "odebvp", "harness"]
    assert isinstance(maslovflow.__version__, str)
    public = {name: value for name, value in vars(maslovflow).items()
              if not name.startswith("_")}
    assert [name for name, value in public.items()
            if not isinstance(value, types.ModuleType)] == []


def project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_the_console_script_names_a_callable():
    scripts = project()["scripts"]
    assert scripts == {"maslovflow": "maslovflow.cli:main"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_the_python_floor_admits_no_version_a_dependency_refuses():
    # ">=3.10" was declared while the SciPy and NumPy it requires need 3.11
    declared = project()
    floor = declared["requires-python"]
    assert floor.startswith(">=")
    for dep in declared["dependencies"]:
        name = Requirement(dep).name
        needs = metadata.metadata(name)["Requires-Python"] or ""
        assert floor[2:] in SpecifierSet(needs), f"{name} needs Python {needs}, not {floor}"


@pytest.mark.parametrize("script, args", [
    ("oscillator_river.py", ["--steps", "128", "--out", "{tmp}/river.csv"]),
    ("winding_pair.py", []),
    ("run_stock.py", []),
])
def test_demos_run(script, args, tmp_path, monkeypatch):
    argv = [str(DEMOS / script)] + [a.format(tmp=tmp_path) for a in args]
    monkeypatch.setattr(sys, "argv", argv)
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
