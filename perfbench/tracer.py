"""Per-layer tracing by wrapping the module attributes each layer is called
through.

Every hook names a module attribute (``odebvp._build_first_order``,
``maslov.make_splitting``, ...).  Installing the tracer replaces each one
with a wrapper that records a span; removing it puts the originals back.  A
layer's self time is its span's duration minus the time covered by the spans
it caused.  An attribute that no longer exists (a later refactor renamed it)
is listed as unattached and its metrics read ``null``; the run carries on.

All spans are recorded on one thread: the benchmark is a closed loop with
one caller.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter

# (module, dotted attribute, span name).  The span name is the layer a
# call's self time is charged to.
SPAN_HOOKS = (
    ("odebvp", "_build_first_order", "odebvp.build"),
    ("odebvp", "_build_second_order", "odebvp.build"),
    ("odebvp", "_ShootingSystem.propagate", "odebvp.propagate"),
    ("odebvp", "_eigen_count_system", "odebvp.detector"),
    ("odebvp", "flow_from_sampler", "flow.engine"),
    ("maslov", "flow_from_sampler", "flow.engine"),
    ("flow", "flow_from_sampler", "flow.engine"),
    ("maslov", "make_splitting", "maslov.splitting"),
    ("maslov", "graph_rep", "maslov.graph_rep"),
    ("maslov", "eigenphases", "maslov.eigenphases"),
    ("maslov", "unit_circle_residual", "maslov.unit_circle"),
    ("maslov", "isotropy_residual", "maslov.residuals"),
)
# Wrapped for counting only: constructing it is part of the detector.
COUNT_HOOKS = (("odebvp", "_GammaEvaluator", "odebvp.detector"),)

# Metrics of ``flow.sample`` come from the engine hooks; every other metric
# name starts with the span name it is computed from.
_SPAN_OF_PREFIX = {"flow.sample": "flow.engine"}


def _resolve(module, dotted):
    """(owner object, attribute name, current value); raises AttributeError."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters for one traced run.

    ``modules`` maps the short module names used in the hook tables to the
    imported modules.  Call :meth:`install` before the traced ops and
    :meth:`remove` after them.
    """

    def __init__(self, modules):
        self.modules = modules
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.top_level_s = 0.0
        self.spans = 0
        self.attached = []
        self.unattached = []
        self._stack = []  # child time accumulated by each open span
        self._undo = []
        self._op_builds = set()
        self._op_digest = None

    # -- spans ---------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return _clock()

    def _exit(self, name, start):
        dur = _clock() - start
        child = self._stack.pop()
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.spans += 1
        if self._stack:
            self._stack[-1] += dur
        else:
            self.top_level_s += dur
        return dur

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)

        return wrapper

    # -- per-layer wrappers ---------------------------------------------

    def _wrap(self, name, fn):
        if name == "odebvp.build":
            return self._wrap_build(fn)
        if name == "odebvp.propagate":
            return self._wrap_propagate(fn)
        if name == "odebvp.detector":
            return self._wrap_detector(fn)
        if name == "flow.engine":
            return self._wrap_engine(fn)
        return self._span(name, fn)

    def _wrap_build(self, fn):
        span = self._span("odebvp.build", fn)

        def build(fam, s, steps):
            # The op keeps ``fam`` alive, so its id is not reused meanwhile.
            key = (id(fam), float(s), int(steps))
            if key in self._op_builds:
                self.counts["odebvp.build.redundant"] += 1
            self._op_builds.add(key)
            return span(fam, s, steps)

        return build

    def _wrap_propagate(self, fn):
        def propagate(system, lams, checkpoints=False):
            n_lams = len(np.atleast_1d(lams))
            if checkpoints:
                kind = "checkpoint"
            elif n_lams == 1:
                kind = "single"
            else:
                kind = "batch"
            self.counts["odebvp.propagate.lambdas"] += n_lams
            if system.const:
                self.counts["odebvp.propagate.exact_calls"] += 1
            else:
                self.counts["odebvp.propagate.lambda_steps"] += n_lams * system.steps
            start = self._enter()
            try:
                return fn(system, lams, checkpoints)
            finally:
                before = self.self_s["odebvp.propagate"]
                self._exit("odebvp.propagate", start)
                self.self_s[f"odebvp.propagate.{kind}"] += (
                    self.self_s["odebvp.propagate"] - before
                )

        return propagate

    def _wrap_detector(self, fn):
        span = self._span("odebvp.detector", fn)
        retry_error = self.modules["errors"].WindowBoundaryEigenvalue

        def detector(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except retry_error:
                self.counts["odebvp.detector.window_retries"] += 1
                raise

        return detector

    def _wrap_gamma_evaluator(self, cls):
        def gamma_evaluator(*args, **kwargs):
            ev = cls(*args, **kwargs)
            if not ev.certified():
                self.counts["odebvp.detector.uncertified"] += 1
            return ev

        return gamma_evaluator

    def _wrap_engine(self, fn):
        span = self._span("flow.engine", fn)
        sample_span = self._span("flow.sample", lambda f, s: f(s))
        default_segments = self.modules["flow"].FlowOpts().initial_segments

        def engine(*args, **kwargs):
            sampler = _arg(args, kwargs, 0, "sampler")

            def traced_sampler(s):
                self.counts["flow.engine.samples"] += 1
                return sample_span(sampler, s)

            if args:
                args = (traced_sampler,) + args[1:]
            else:
                kwargs["sampler"] = traced_sampler
            total, report = span(*args, **kwargs)
            opts = _arg(args, kwargs, 2, "opts")
            initial = opts.initial_segments if opts is not None else default_segments
            a, b = (float(x) for x in _arg(args, kwargs, 1, "interval"))
            segments = len(report.segments)
            self.counts["flow.engine.segments"] += segments
            self.counts["flow.engine.bisections"] += segments - initial
            width0 = (b - a) / initial
            depth = max(
                (round(math.log2(width0 / (seg.s_right - seg.s_left)))
                 for seg in report.segments),
                default=0,
            )
            self.counts["flow.engine.max_depth"] = max(
                self.counts["flow.engine.max_depth"], depth
            )
            if self._op_digest is not None:
                self._op_digest.update(repr(report.partition).encode())
            return total, report

        return engine

    # -- install / remove -------------------------------------------------

    def install(self):
        hooks = [(m, a, n, self._wrap) for m, a, n in SPAN_HOOKS]
        hooks += [(m, a, n, lambda _n, cls: self._wrap_gamma_evaluator(cls))
                  for m, a, n in COUNT_HOOKS]
        for module, dotted, name, make in hooks:
            hook = f"{module}.{dotted}"
            try:
                owner, attr, original = _resolve(self.modules[module], dotted)
            except AttributeError:
                self.unattached.append(hook)
                continue
            setattr(owner, attr, make(name, original))
            self._undo.append((owner, attr, original))
            self.attached.append(hook)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self):
        self._op_builds = set()
        self._op_digest = hashlib.sha1()

    def end_op(self):
        """Digest of every partition the op's engine runs produced."""
        digest, self._op_digest = self._op_digest.hexdigest(), None
        self._op_builds = set()
        return digest

    def overhead_per_span(self, reps=2000):
        """Median cost one wrapper adds to a call, measured on a no-op."""
        def noop():
            return None

        probe = Tracer(self.modules)
        wrapped = probe._span("probe", noop)
        costs = []
        for _ in range(5):
            t0 = _clock()
            for _ in range(reps):
                noop()
            t1 = _clock()
            for _ in range(reps):
                wrapped()
            t2 = _clock()
            costs.append(max((t2 - t1) - (t1 - t0), 0.0) / reps)
        return statistics.median(costs)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-round layer metrics; ``None`` for layers with a missing hook."""
        missing = {name for m, a, name in SPAN_HOOKS + COUNT_HOOKS
                   if f"{m}.{a}" in self.unattached}

        def per_round(x):
            return x / rounds

        c = self.counts
        out = {
            "odebvp.build.calls": per_round(self.calls["odebvp.build"]),
            "odebvp.build.self_s": per_round(self.self_s["odebvp.build"]),
            "odebvp.build.redundant": per_round(c["odebvp.build.redundant"]),
            "odebvp.propagate.calls": per_round(self.calls["odebvp.propagate"]),
            "odebvp.propagate.lambdas": per_round(c["odebvp.propagate.lambdas"]),
            "odebvp.propagate.lambda_steps": per_round(c["odebvp.propagate.lambda_steps"]),
            "odebvp.propagate.self_s": per_round(self.self_s["odebvp.propagate"]),
            "odebvp.propagate.batch_s": per_round(self.self_s["odebvp.propagate.batch"]),
            "odebvp.propagate.single_s": per_round(self.self_s["odebvp.propagate.single"]),
            "odebvp.propagate.checkpoint_s": per_round(
                self.self_s["odebvp.propagate.checkpoint"]),
            "odebvp.propagate.exact_calls": per_round(c["odebvp.propagate.exact_calls"]),
            "odebvp.detector.calls": per_round(self.calls["odebvp.detector"]),
            "odebvp.detector.self_s": per_round(self.self_s["odebvp.detector"]),
            "odebvp.detector.uncertified": per_round(c["odebvp.detector.uncertified"]),
            "odebvp.detector.window_retries": per_round(c["odebvp.detector.window_retries"]),
            "flow.engine.calls": per_round(self.calls["flow.engine"]),
            "flow.engine.self_s": per_round(self.self_s["flow.engine"]),
            "flow.engine.samples": per_round(c["flow.engine.samples"]),
            "flow.engine.segments": per_round(c["flow.engine.segments"]),
            "flow.engine.bisections": per_round(c["flow.engine.bisections"]),
            "flow.engine.max_depth": float(c["flow.engine.max_depth"]),
            "flow.engine.accept_ratio": (
                c["flow.engine.segments"]
                / (c["flow.engine.segments"] + c["flow.engine.bisections"])
                if c["flow.engine.segments"] else 1.0
            ),
            "flow.sample.self_s": per_round(self.self_s["flow.sample"]),
            "maslov.splitting.calls": per_round(self.calls["maslov.splitting"]),
            "maslov.splitting.self_s": per_round(self.self_s["maslov.splitting"]),
            "maslov.graph_rep.calls": per_round(self.calls["maslov.graph_rep"]),
            "maslov.graph_rep.self_s": per_round(self.self_s["maslov.graph_rep"]),
            "maslov.eigenphases.calls": per_round(self.calls["maslov.eigenphases"]),
            "maslov.eigenphases.self_s": per_round(
                self.self_s["maslov.eigenphases"] + self.self_s["maslov.unit_circle"]),
            "maslov.residuals.self_s": per_round(self.self_s["maslov.residuals"]),
        }
        if "maslov.unit_circle" in missing:
            missing.add("maslov.eigenphases")
        for key in out:
            prefix = ".".join(key.split(".")[:2])
            if _SPAN_OF_PREFIX.get(prefix, prefix) in missing:
                out[key] = None
        return out
