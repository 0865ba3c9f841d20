"""The package namespace, and the demo scripts that import from it."""

import runpy
import sys
import types
from pathlib import Path

import pytest

import maslovflow

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_the_package_binds_only_its_submodules():
    # every public name lives in its module; the package adds no alias
    assert maslovflow.__all__ == ["core", "flow", "maslov", "odebvp", "harness"]
    assert isinstance(maslovflow.__version__, str)
    public = {name: value for name, value in vars(maslovflow).items()
              if not name.startswith("_")}
    assert [name for name, value in public.items()
            if not isinstance(value, types.ModuleType)] == []


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
