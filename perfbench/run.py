"""End-to-end and per-layer benchmark for the maslovflow sf/mas pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One caller runs the workload's fixed set of ops in a closed
loop, whole rounds at a time, for about ``--seconds`` (at least one round),
checks every integer the ops produce, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics with
no wrappers installed; ``--trace 1`` wraps the layers (see ``tracer.py``)
and reports the per-layer split instead.  Lines before the result record
the environment and every op run, naming each failing op and why it failed.

End-to-end times are adjusted for host contention.  On a shared two-vCPU
virtual machine (2 GHz Xeon) the cores ran at full speed or at about half
speed, switching within seconds, and identical runs minutes apart spread
20-45% in raw wall time.  A probe times a fixed small-matrix loop every 20 ms
of wall time (SIGALRM); each timed span is divided by its slowdown, the mean
probe time inside the span over ``PROBE_REF_S`` (the probe's mean time
during ops while that machine ran at full speed).  With the adjustment the
spread fell to 4-10%.  Raw op times are printed on each op line, and the
run's mean slowdown on the ``host`` line.

The traced run ends with a reference pass outside the measured window: the
workload's ops at seed ``REFERENCE_SEED`` and their smallest size, under a
tracer of their own.  ``flow.partition_changes`` counts the ops of that pass
whose crossing partitions differ from ``partitions.json``, which holds the
partitions the program produced on the same inputs when the benchmark was
written.

``--smoke`` runs each workload at its smallest size (for the tests).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PARTITIONS = HERE / "partitions.json"

# One caller on a small shared host: a second BLAS thread only competes with
# the caller for a core.  Set before NumPy is imported; an explicit setting
# in the environment wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.02
# A span's slowdown is measured over at least this much wall time: the mean
# of the few probes inside a 0.1 s span varied by 15% between runs, while the
# host's speed held for seconds at a time.
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 2.3e-4  # mean probe time during ops, fast phase, 2 GHz Xeon vCPU
TINY_RESIDUAL = 1e-17  # floor so an exact zero residual stays finite
REFERENCE_SEED = 42  # inputs of the partitions stored in PARTITIONS, at the smoke size

_clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sf_s": "s",
    "mas_s": "s",
    "peak_rss_mb": "MB",
    "certificate_digits": "digits",
}

_COUNT, _SECONDS = "count", "s"
PER_LAYER_UNITS = {
    "odebvp.build.calls": _COUNT,
    "odebvp.build.self_s": _SECONDS,
    "odebvp.build.redundant": _COUNT,
    "odebvp.propagate.calls": _COUNT,
    "odebvp.propagate.lambdas": _COUNT,
    "odebvp.propagate.lambda_steps": _COUNT,
    "odebvp.propagate.self_s": _SECONDS,
    "odebvp.propagate.batch_s": _SECONDS,
    "odebvp.propagate.single_s": _SECONDS,
    "odebvp.propagate.checkpoint_s": _SECONDS,
    "odebvp.propagate.exact_calls": _COUNT,
    "odebvp.detector.calls": _COUNT,
    "odebvp.detector.self_s": _SECONDS,
    "odebvp.detector.uncertified": _COUNT,
    "odebvp.detector.window_retries": _COUNT,
    "flow.engine.calls": _COUNT,
    "flow.engine.self_s": _SECONDS,
    "flow.engine.samples": _COUNT,
    "flow.engine.segments": _COUNT,
    "flow.engine.bisections": _COUNT,
    "flow.engine.max_depth": _COUNT,
    "flow.engine.accept_ratio": "ratio",
    "flow.sample.self_s": _SECONDS,
    "flow.partition_changes": _COUNT,
    "maslov.splitting.calls": _COUNT,
    "maslov.splitting.self_s": _SECONDS,
    "maslov.graph_rep.calls": _COUNT,
    "maslov.graph_rep.self_s": _SECONDS,
    "maslov.eigenphases.calls": _COUNT,
    "maslov.eigenphases.self_s": _SECONDS,
    "maslov.residuals.self_s": _SECONDS,
    "process.cpu_s": _SECONDS,
    "process.cpu_per_wall": "ratio",
    "op.p50_s": _SECONDS,
    "op.p90_s": _SECONDS,
    "op.count": _COUNT,
    "error_rate": "ratio",
    "trace.wall_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
    "trace.unattributed_s": _SECONDS,
    "host.calib_s": _SECONDS,
}


def suite_metric_names():
    """``harness.suite.<name>.s`` for the 21 sweep suites, in sweep order."""
    from workloads import SWEEP_SUITES

    return [f"harness.suite.{name}.s" for name in SWEEP_SUITES]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Host and environment
# ---------------------------------------------------------------------------

class ContentionProbe:
    """Times a fixed small-matrix loop every ``PROBE_INTERVAL_S`` of wall
    time, from a SIGALRM handler on the calling thread, to show how fast the
    core ran while an op ran."""

    def __init__(self):
        import numpy as np

        self._a = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        self._x = np.broadcast_to(np.eye(2, dtype=complex), (8, 2, 2)).copy()
        self.stamps = []
        self.times = []

    def _loop(self, n):
        x = self._x
        for _ in range(n):
            x = self._a @ x + 0.0

    def _probe(self, signum, frame):
        # Untimed first: the program's work leaves the caches in a state of
        # its own, which slowed a cold loop by 5-10% depending on the op.
        self._loop(10)
        t0 = _clock()
        self._loop(40)
        self.stamps.append(t0)
        self.times.append(_clock() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start, end):
        """Mean time of the probes taken in ``[start, end]``, widened to
        ``PROBE_WINDOW_S`` around its middle, over the reference; all probes
        so far stand in for a span with no probe near it."""
        mid = 0.5 * (start + end)
        lo = bisect.bisect_left(self.stamps, min(start, mid - 0.5 * PROBE_WINDOW_S))
        hi = bisect.bisect_right(self.stamps, max(end, mid + 0.5 * PROBE_WINDOW_S))
        times = self.times[lo:hi] or self.times or [PROBE_REF_S]
        return statistics.fmean(times) / PROBE_REF_S

    def gap_p99(self):
        """99th percentile of the wall time between probes: how long a
        pending probe waited for the program's calls to return."""
        gaps = sorted(b - a for a, b in zip(self.stamps, self.stamps[1:]))
        return gaps[int(0.99 * (len(gaps) - 1))] if gaps else None

    def adjusted(self, span):
        """Seconds in ``span`` (start, end), divided by its slowdown."""
        start, end = span
        return (end - start) / self.slowdown(start, end) if end > start else 0.0


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "probe_ref_s": PROBE_REF_S,
    }


# ---------------------------------------------------------------------------
# Set-up and measurement
# ---------------------------------------------------------------------------

def time_import():
    """Seconds for a fresh interpreter to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = _clock()
    subprocess.run([sys.executable, "-c", "import maslovflow.cli"], env=env, check=True,
                   timeout=120)
    return _clock() - t0


def setup(workload, seed, size, probe):
    """Import, input generation and warm-up, repeated; the median of their
    contention-adjusted seconds, and the ops."""
    times = []
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        time_import()
        ops = workload.make_ops(seed, **size)
        workload.warmup(seed, **size)
        times.append(probe.adjusted((t0, _clock())))
    return statistics.median(times), ops


def run_op(op, tracer):
    from maslovflow.errors import MaslovFlowError
    from workloads import OpResult

    if tracer is not None:
        tracer.begin_op()
    t0 = _clock()
    try:
        res = op.run()
    except MaslovFlowError as exc:
        res = OpResult(failure=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 -- a broken op is counted, not fatal
        traceback.print_exc()
        res = OpResult(failure=f"{type(exc).__name__}: {exc}")
    span = (t0, _clock())
    digest = tracer.end_op() if tracer is not None else None
    return Sample(span, res, digest)


@dataclass(frozen=True)
class Sample:
    span: tuple  # (start, end) of the op on time.perf_counter
    res: object  # OpResult
    digest: Optional[str]  # partitions of the op's engine runs (traced runs)

    @property
    def wall(self):
        return self.span[1] - self.span[0]


def measure(ops, seconds, probe, tracer=None):
    """Whole rounds over ``ops`` until another round would pass ``seconds``."""
    samples = defaultdict(list)  # op name -> [Sample]
    start = _clock()
    cpu0 = time.process_time()
    rounds = 0
    longest = 0.0
    while True:
        r0 = _clock()
        for op in ops:
            sample = run_op(op, tracer)
            samples[op.name].append(sample)
            res = sample.res
            status = "ok" if res.failure is None else f"FAILED {res.failure}"
            print(f"op {op.name} round {rounds + 1} raw_wall_s {sample.wall:.4f} "
                  f"wall_s {probe.adjusted(sample.span):.4f} "
                  f"sf_s {probe.adjusted(res.sf_span):.4f} "
                  f"mas_s {probe.adjusted(res.mas_span):.4f} {status}", flush=True)
        rounds += 1
        longest = max(longest, _clock() - r0)
        if _clock() - start + longest > seconds:
            break
    return samples, rounds, _clock() - start, time.process_time() - cpu0


def count_failed(samples):
    return sum(s.res.failure is not None for runs in samples.values() for s in runs)


def median_sum(samples, probe, span_of):
    """Sum over ops of the median contention-adjusted seconds in
    ``span_of(sample)``: one round's value."""
    return sum(statistics.median(probe.adjusted(span_of(s)) for s in runs)
               for runs in samples.values())


def certificate_digits(samples):
    worst = max((r for runs in samples.values() for s in runs for r in s.res.residuals),
                default=TINY_RESIDUAL)
    return -math.log10(max(worst, TINY_RESIDUAL))


def end_to_end_metrics(samples, probe, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": median_sum(samples, probe, lambda s: s.span),
        "sf_s": median_sum(samples, probe, lambda s: s.res.sf_span),
        "mas_s": median_sum(samples, probe, lambda s: s.res.mas_span),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certificate_digits": certificate_digits(samples),
    }


def reference_digests(workload):
    """Partition digests of the workload's ops at ``REFERENCE_SEED`` and the
    smoke size, traced by a tracer of their own so that the timed run's layer
    metrics do not count them."""
    tracer = make_tracer()
    tracer.install()
    try:
        ops = workload.make_ops(REFERENCE_SEED, **workload.sizes["smoke"])
        return {op.name: run_op(op, tracer).digest for op in ops}
    finally:
        tracer.remove()


def partition_changes(workload):
    """Reference ops whose partitions differ from the stored ones; ``None``
    when none are stored for the workload."""
    reference = json.loads(PARTITIONS.read_text()).get(workload.name)
    if reference is None:
        return None
    digests = reference_digests(workload)
    changed = sorted(name for name in reference if digests.get(name) != reference[name])
    print("reference " + json.dumps({"seed": REFERENCE_SEED, "ops": len(reference),
                                     "changed": changed}), flush=True)
    return len(changed)


def per_layer_metrics(samples, rounds, wall, cpu, tracer, probe, workload):
    walls = sorted(s.wall for runs in samples.values() for s in runs)
    n_ops = len(walls)
    metrics = tracer.layer_metrics(rounds)
    metrics["flow.partition_changes"] = (
        None if metrics["flow.engine.calls"] is None else partition_changes(workload))
    for key in suite_metric_names():
        runs = samples.get(key.split(".")[2], [])
        metrics[key] = statistics.median(s.wall for s in runs) if runs else 0.0
    metrics.update({
        "process.cpu_s": cpu / rounds,
        "process.cpu_per_wall": cpu / wall,
        "op.p50_s": statistics.median(walls),
        "op.p90_s": walls[min(n_ops - 1, int(math.ceil(0.9 * n_ops)) - 1)],
        "op.count": float(n_ops),
        "error_rate": count_failed(samples) / n_ops,
        "trace.wall_s": wall / rounds,
        "trace.overhead_s": tracer.spans * tracer.overhead_per_span() / rounds,
        "trace.unattributed_s": (wall - tracer.top_level_s) / rounds,
        "host.calib_s": statistics.fmean(probe.times),
    })
    return metrics


def make_tracer():
    from maslovflow import errors, flow, maslov, odebvp
    from tracer import Tracer

    return Tracer({"odebvp": odebvp, "flow": flow, "maslov": maslov, "errors": errors})


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "maslovflow" / "__init__.py").is_file():
        print(f"error: no maslovflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.sizes["smoke" if args.smoke else "full"]

    print("env " + json.dumps(environment(args)), flush=True)
    tracer = make_tracer() if args.trace else None
    with ContentionProbe() as probe:
        setup_s, ops = setup(workload, args.seed, size, probe)
        if tracer is not None:
            tracer.install()
            print("hooks " + json.dumps({"attached": tracer.attached,
                                         "unattached": tracer.unattached}), flush=True)
        t0 = _clock()
        try:
            samples, rounds, wall, cpu = measure(ops, args.seconds, probe, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        # Every adjusted time of the run is divided by a slowdown near this
        # one; a shift between commits shows here.
        slowdown = probe.slowdown(t0, _clock())

    print("host " + json.dumps({"host.calib_s": statistics.fmean(probe.times),
                                "probes": len(probe.times), "slowdown": slowdown,
                                "probe_gap_p99_s": probe.gap_p99()}), flush=True)
    failed = count_failed(samples)

    if args.trace:
        values = per_layer_metrics(samples, rounds, wall, cpu, tracer, probe, workload)
        units = dict(PER_LAYER_UNITS, **{k: "s" for k in suite_metric_names()})
    else:
        values = end_to_end_metrics(samples, probe, setup_s)
        units = END_TO_END_UNITS
    attempted = sum(len(runs) for runs in samples.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
