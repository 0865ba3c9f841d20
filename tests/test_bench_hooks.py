"""The benchmark's tracer must find every layer it hooks.

``perfbench/tracer.py`` wraps module attributes by name, and a hook whose
attribute was renamed or deleted only shows as a ``null`` metric in a traced
benchmark run.  This checks the hook tables against the package directly,
and the call shapes its wrappers assume.  A traced run also compares the
crossing partitions of fixed inputs with ``perfbench/partitions.json``; the
last test makes that comparison part of the test suite.
"""

import ast
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from maslovflow import errors, flow, harness, maslov, odebvp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"odebvp": odebvp, "flow": flow, "maslov": maslov, "errors": errors}


def _load(name):
    """Import ``perfbench/<name>.py``; it is registered first because
    dataclasses look up their own module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    tracer = _load("tracer")
    unresolved = []
    for module, dotted, _ in tracer.SPAN_HOOKS + tracer.COUNT_HOOKS:
        try:
            tracer._resolve(MODULES[module], dotted)
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


def test_every_name_the_workloads_read_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {"harness": harness, "odebvp": odebvp}
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("odebvp", "BvpOpts") in read
    assert [f"{m}.{a}" for m, a in sorted(read) if not hasattr(modules[m], a)] == []
    # the index-difference workload reads the parameter range from the options
    assert odebvp.BvpOpts(steps=8).interval == (0.0, 1.0)
    with pytest.raises(TypeError):
        odebvp.BvpOpts(interval=(0.0, 2.0))


def test_crossing_partitions_match_the_stored_digests():
    # the benchmark's flow.partition_changes, at the seed (42) and size the
    # stored digests were written at
    workloads = _load("workloads")
    tracer = _load("tracer").Tracer(MODULES)
    digests = {}
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            digests[name] = {}
            for op in workload.make_ops(42, **workload.sizes["smoke"]):
                tracer.begin_op()
                assert op.run().failure is None
                digests[name][op.name] = tracer.end_op()
    finally:
        tracer.remove()
    stored = json.loads((PERFBENCH / "partitions.json").read_text())
    assert digests == {name: stored[name] for name in workloads.WORKLOADS}


@pytest.mark.parametrize("seed", [0, 42, 62])
def test_every_workload_warms_up(seed):
    # an exception in a warm-up escapes the benchmark's per-op error
    # handling and ends the whole run; seed 62's second-order family is
    # 1.1e-8 from symplectic transport at the warm-up's 64 steps
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        workload.warmup(seed, **workload.sizes["smoke"])
