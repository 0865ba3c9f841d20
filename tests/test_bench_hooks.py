"""The benchmark's tracer must find every layer it hooks.

``perfbench/tracer.py`` wraps module attributes by name, and a hook whose
attribute was renamed or deleted only shows as a ``null`` metric in a traced
benchmark run.  This checks the hook tables against the package directly,
and the call shapes its wrappers assume.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

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


def _leading_parameters(fn, n):
    return list(inspect.signature(fn).parameters)[:n]


def test_benchmark_call_shapes():
    # the wrappers call these positionally
    for build in (odebvp._build_first_order, odebvp._build_second_order):
        assert _leading_parameters(build, 3) == ["fam", "s", "steps"]
    assert _leading_parameters(odebvp._ShootingSystem.propagate, 3) == [
        "self", "lams", "checkpoints"]
    # the engine wrapper reads opts.initial_segments from the third argument
    assert _leading_parameters(flow.flow_from_sampler, 3) == [
        "sampler", "interval", "opts"]
    assert odebvp.BvpOpts().initial_segments == flow.FlowOpts().initial_segments
    # the propagate wrapper reads system.const and system.steps
    fam = odebvp.FirstOrderFamily(m=1, T=1.0, j=lambda s, t: np.array([[1j]]),
                                  b=lambda s, t: np.array([[0.0]]))
    system = odebvp._build_first_order(fam, 0.0, 4)
    assert system.const is True and system.steps == 4
