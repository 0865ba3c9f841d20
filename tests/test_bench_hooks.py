"""The benchmark's tracer must find every layer it hooks.

``perfbench/tracer.py`` wraps module attributes by name, and a hook whose
attribute was renamed or deleted only shows as a ``null`` metric in a traced
benchmark run.  This checks the hook tables against the package directly.
"""

import importlib.util
from pathlib import Path

from maslovflow import errors, flow, maslov, odebvp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    tracer = _load_tracer()
    modules = {"odebvp": odebvp, "flow": flow, "maslov": maslov, "errors": errors}
    unresolved = []
    for module, dotted, _ in tracer.SPAN_HOOKS + tracer.COUNT_HOOKS:
        try:
            tracer._resolve(modules[module], dotted)
        except AttributeError:
            unresolved.append(f"{module}.{dotted}")
    assert unresolved == []
