"""The package namespace, and the demo scripts that import from it."""

import importlib
import runpy
import sys
import types
from pathlib import Path

import pytest

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


def test_the_console_script_names_a_callable():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"maslovflow": "maslovflow.cli:main"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


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
