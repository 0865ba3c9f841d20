"""Command line driver.

Problems arrive as JSON documents (or ``@S1`` ... ``@S5`` for the stock
scenarios) and every matrix entry is a string in the little expression
language of :mod:`maslovflow.expressions`, a plain number, or a
``[re, im]`` pair.  Coefficients may instead supply sampled values on a
grid under a ``samples`` key; those are interpolated linearly.

Document layout::

    {
      "name": "demo",                    # optional, defaults to file stem
      "kind": "first_order",             # or second_order / pair_path
      "m": 1,
      "T": 1.0,                          # differential-equation kinds
      "j": [["1i"]], "b": [["0"]],       # first_order (m x m, in s and t)
      "p": ..., "q": ..., "r": ...,      # second_order (m x m, in s and t)
      "lam": ..., "mu": ...,             # pair_path frames (2m x m, in s)
      "interval": [0.0, 1.0],            # pair_path parameter range
      "boundary": {"w_path": [["1"], ["cos(2*pi*s)"]]},
                                         # or {"r_subspace": [[...], ...]}
      "numerics": {"steps": 2048, "initial_segments": 16,
                   "max_depth": 12, "lambda_window": 1.0},
      "expected": {"sf": 1, "mas": 1, "provenance": "closed form"}
    }

For ``pair_path`` documents ``m`` is the dimension of the Lagrangian
subspaces, the ambient space is ``C^{2m}``, ``j`` is the 2m x 2m
structure matrix, and all entries depend on ``s`` only.  For
``first_order`` the boundary frame has ``2m`` rows; for ``second_order``
a ``w_path`` frame has ``4m`` rows while ``r_subspace`` is a constant
frame with ``2m`` rows (positions at the two ends of the interval).

Exit codes: 0 both pipelines succeeded and agree, 1 disagreement or a
runtime failure, 2 an adaptive refinement gave up (unresolved family),
3 unusable input (missing file, bad JSON, schema or expression errors).
Human-readable diagnostics go to standard error; machine-readable
reports land in the ``--out`` directory as JSON and CSV.  Floats in
reports carry 17 significant digits; the indices themselves print as
bare integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import jsonschema
import numpy as np

from . import core, expressions, flow, harness, maslov, odebvp
from .errors import (
    ConfigError,
    ExpressionSyntaxError,
    InvalidTrials,
    MaslovFlowError,
    UnknownIdentifier,
    UnresolvedFamily,
)

__all__ = ["main", "load_document", "scenario_from_document", "CONFIG_SCHEMA"]


# --------------------------------------------------------------------------
# JSON with 17-significant-digit floats

def _json_render(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps(None)
        return f"{x:.17g}"
    return json.dumps(obj)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_json_render(obj) + "\n")


# --------------------------------------------------------------------------
# document schema

_ENTRY = {
    "oneOf": [
        {"type": "string"},
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _ENTRY},
}

_AXIS = {"type": "array", "items": {"type": "number"}, "minItems": 2}

_SAMPLES = {
    "type": "object",
    "required": ["samples"],
    "additionalProperties": False,
    "properties": {
        "samples": {
            "type": "object",
            "required": ["values"],
            "additionalProperties": False,
            "properties": {"s": _AXIS, "t": _AXIS, "values": {"type": "array"}},
        }
    },
}

_COEFF = {"oneOf": [_MATRIX, _SAMPLES]}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["kind", "m"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "kind": {"enum": ["first_order", "second_order", "pair_path"]},
        "m": {"type": "integer", "minimum": 1},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "j": _COEFF,
        "b": _COEFF,
        "p": _COEFF,
        "q": _COEFF,
        "r": _COEFF,
        "lam": _COEFF,
        "mu": _COEFF,
        "interval": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "boundary": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "w_path": _COEFF,
                # null picks R = {0}: Dirichlet conditions
                "r_subspace": {"oneOf": [_MATRIX, {"type": "null"}]},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 2},
                "initial_segments": {"type": "integer", "minimum": 1},
                "max_depth": {"type": "integer", "minimum": 0},
                "lambda_window": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "expected": {
            "type": "object",
            "required": ["mas", "provenance"],
            "additionalProperties": False,
            "properties": {
                "sf": {"type": ["integer", "null"]},
                "mas": {"type": "integer"},
                "provenance": {"type": "string"},
            },
        },
    },
    "allOf": [
        {
            "if": {"properties": {"kind": {"const": "first_order"}}},
            "then": {"required": ["T", "j", "b", "boundary"]},
        },
        {
            "if": {"properties": {"kind": {"const": "second_order"}}},
            "then": {"required": ["T", "p", "q", "r", "boundary"]},
        },
        {
            "if": {"properties": {"kind": {"const": "pair_path"}}},
            "then": {"required": ["j", "lam", "mu"]},
        },
    ],
}


# --------------------------------------------------------------------------
# coefficient construction

def _entry_ast(entry, where):
    if isinstance(entry, str):
        try:
            return expressions.parse(entry)
        except (ExpressionSyntaxError, UnknownIdentifier) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(entry, bool):
        raise ConfigError(f"{where}: booleans are not matrix entries")
    if isinstance(entry, (int, float)):
        return expressions.Num(float(entry))
    if isinstance(entry, list) and len(entry) == 2:
        re_part, im_part = entry
        return expressions.BinOp(
            "+",
            expressions.Num(float(re_part)),
            expressions.Num(float(im_part), imag=True),
        )
    raise ConfigError(f"{where}: expected an expression string, a number, "
                      f"or a [re, im] pair, got {entry!r}")


def _matrix_asts(rows, where, allow_t):
    ncol = len(rows[0])
    asts = []
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ConfigError(f"{where}: row {i} has {len(row)} entries, "
                              f"row 0 has {ncol}")
        asts.append([_entry_ast(e, f"{where}[{i}][{k}]")
                     for k, e in enumerate(row)])
    if not allow_t:
        for i, row in enumerate(asts):
            for k, tree in enumerate(row):
                if "t" in expressions.variables(tree):
                    raise ConfigError(
                        f"{where}[{i}][{k}]: 't' is not a variable here "
                        f"(this matrix may depend on 's' only)")
    return asts


def _matrix_function(rows, where, allow_t=True):
    """Matrix of expression entries -> f(s, t) returning (nt, r, c) for a
    t array, (r, c) for scalar t."""
    asts = _matrix_asts(rows, where, allow_t)
    nrow, ncol = len(asts), len(asts[0])

    def fun(s, t):
        t_arr = np.asarray(t, dtype=float)
        tt = t_arr.reshape(-1)
        out = np.empty((tt.shape[0], nrow, ncol), dtype=complex)
        for i, row in enumerate(asts):
            for k, tree in enumerate(row):
                out[:, i, k] = np.broadcast_to(
                    np.asarray(expressions.evaluate(tree, s, tt)), tt.shape
                )
        if t_arr.ndim == 0:
            return out[0]
        return out

    return fun


def _to_complex_array(values, depth, where):
    try:
        arr = np.asarray(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: samples values are ragged or "
                          f"non-numeric ({exc})") from exc
    if arr.ndim == depth:
        return arr.astype(complex)
    if arr.ndim == depth + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ConfigError(f"{where}: samples values have {arr.ndim} axes, "
                      f"expected {depth} (entries may be [re, im] pairs)")


def _axis(samples, key, where):
    if key not in samples:
        return None
    ax = np.asarray(samples[key], dtype=float)
    if np.any(np.diff(ax) <= 0):
        raise ConfigError(f"{where}: samples axis {key!r} must increase "
                          f"strictly")
    return ax


def _lerp(grid, vals, x):
    """Piecewise-linear interpolation along the leading axis of ``vals``
    at query points ``x`` (clamped to the grid range)."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(grid, x.reshape(-1)), 1, len(grid) - 1)
    g0, g1 = grid[idx - 1], grid[idx]
    w = np.clip((x.reshape(-1) - g0) / (g1 - g0), 0.0, 1.0)
    shape = (-1,) + (1,) * (vals.ndim - 1)
    out = (1.0 - w.reshape(shape)) * vals[idx - 1] + w.reshape(shape) * vals[idx]
    if x.ndim == 0:
        return out[0]
    return out


def _sampled_function(samples, where, allow_t=True):
    s_ax = _axis(samples, "s", where)
    t_ax = _axis(samples, "t", where)
    if t_ax is not None and not allow_t:
        raise ConfigError(f"{where}: a 't' sample axis is not allowed here")
    depth = 2 + (s_ax is not None) + (t_ax is not None)
    vals = _to_complex_array(samples["values"], depth, where)
    k = 0
    for ax, name in ((s_ax, "s"), (t_ax, "t")):
        if ax is not None:
            if vals.shape[k] != len(ax):
                raise ConfigError(
                    f"{where}: values axis {k} has length {vals.shape[k]}, "
                    f"samples axis {name!r} has {len(ax)}")
            k += 1
    if vals.shape[-2] < 1 or vals.shape[-1] < 1:
        raise ConfigError(f"{where}: empty sample matrices")

    def fun(s, t):
        block = vals
        if s_ax is not None:
            block = _lerp(s_ax, block, float(s))
        t_arr = np.asarray(t, dtype=float)
        if t_ax is not None:
            out = _lerp(t_ax, block, t_arr.reshape(-1))
        else:
            out = np.broadcast_to(block, (t_arr.reshape(-1).shape[0],) + block.shape)
        if t_arr.ndim == 0:
            return out[0]
        return out

    return fun, vals.shape[-2:]


def _coeff_function(spec, where, allow_t=True):
    """A coefficient document (matrix of expressions or sampled grid) to a
    callable; returns ``(fun, (rows, cols))``."""
    if isinstance(spec, dict):
        return _sampled_function(spec["samples"], where, allow_t=allow_t)
    fun = _matrix_function(spec, where, allow_t=allow_t)
    return fun, (len(spec), len(spec[0]))


def _require_shape(shape, want, where):
    if shape != want:
        raise ConfigError(f"{where}: shape {shape[0]}x{shape[1]} does not "
                          f"match the required {want[0]}x{want[1]}")


def _constant_matrix(rows, where):
    asts = _matrix_asts(rows, where, allow_t=False)
    for i, row in enumerate(asts):
        for k, tree in enumerate(row):
            if expressions.variables(tree):
                raise ConfigError(f"{where}[{i}][{k}]: this matrix must be "
                                  f"constant (no 's' or 't')")
    return np.array(
        [[complex(expressions.evaluate(tree, 0.0, 0.0)) for tree in row]
         for row in asts],
        dtype=complex,
    )


# --------------------------------------------------------------------------
# document -> scenario

def load_document(path):
    """Read and schema-check a JSON problem document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "document root"
        raise ConfigError(f"{path}: schema violation at {loc}: "
                          f"{exc.message}") from exc
    return doc


def _expected_from(doc, kind):
    exp = doc.get("expected")
    if exp is None:
        return None
    sf = exp.get("sf")
    if kind != "pair_path" and sf is None:
        raise ConfigError("expected: differential-equation kinds pin both "
                          "integers; add \"sf\"")
    return harness.Expected(sf=sf, mas=exp["mas"], provenance=exp["provenance"])


def _bvp_opts(doc):
    num = doc.get("numerics", {})
    return odebvp.BvpOpts(**{k: num[k] for k in
                             ("steps", "initial_segments", "max_depth",
                              "lambda_window") if k in num})


def _flow_opts(doc):
    num = doc.get("numerics", {})
    kw = {k: num[k] for k in ("initial_segments", "max_depth") if k in num}
    return flow.FlowOpts(**kw)


def _boundary_from(doc, m, kind):
    boundary = doc["boundary"]
    if "r_subspace" in boundary:
        if kind != "second_order":
            raise ConfigError("boundary.r_subspace only applies to "
                              "second_order problems; use w_path")
        if boundary["r_subspace"] is None:
            return odebvp.w_of_r(None, m=m)
        frame = _constant_matrix(boundary["r_subspace"], "boundary.r_subspace")
        if frame.shape[0] != 2 * m:
            raise ConfigError(f"boundary.r_subspace: {frame.shape[0]} rows, "
                              f"expected {2 * m} (positions at both ends)")
        return odebvp.w_of_r(frame, m=m)
    rows = 2 * m if kind == "first_order" else 4 * m
    fun, shape = _coeff_function(boundary["w_path"], "boundary.w_path",
                                 allow_t=False)
    if shape[0] != rows:
        raise ConfigError(f"boundary.w_path: {shape[0]} rows, expected {rows}")
    return lambda s: core.subspace_from_span(fun(s, 0.0))


def scenario_from_document(doc, default_name):
    """Turn a schema-valid document into a runnable scenario."""
    kind = doc["kind"]
    m = doc["m"]
    name = doc.get("name", default_name)
    expected = _expected_from(doc, kind)

    if kind == "pair_path":
        for key in ("T", "boundary"):
            if key in doc:
                raise ConfigError(f"{key!r} does not apply to a pair_path "
                                  f"document")
        n = 2 * m
        j_fun, j_shape = _coeff_function(doc["j"], "j", allow_t=False)
        _require_shape(j_shape, (n, n), "j")
        lam_fun, lam_shape = _coeff_function(doc["lam"], "lam", allow_t=False)
        _require_shape(lam_shape, (n, m), "lam")
        mu_fun, mu_shape = _coeff_function(doc["mu"], "mu", allow_t=False)
        _require_shape(mu_shape, (n, m), "mu")
        interval = tuple(doc.get("interval", (0.0, 1.0)))
        if not interval[1] > interval[0]:
            raise ConfigError("interval: need a < b")
        path = maslov.PairPath.from_parts(
            j=lambda s: j_fun(s, 0.0),
            lam=lambda s: lam_fun(s, 0.0),
            mu=lambda s: mu_fun(s, 0.0),
            interval=interval,
        )
        return harness.Scenario(
            name=name,
            kind=kind,
            build=lambda: path,
            opts=_flow_opts(doc),
            expected=expected,
            description=f"pair path from {default_name}",
        )

    if "interval" in doc:
        raise ConfigError("interval: only pair_path documents choose the "
                          "parameter range; differential-equation kinds "
                          "run over [0, 1]")
    T = float(doc["T"])
    if kind == "first_order":
        j_fun, j_shape = _coeff_function(doc["j"], "j")
        _require_shape(j_shape, (m, m), "j")
        b_fun, b_shape = _coeff_function(doc["b"], "b")
        _require_shape(b_shape, (m, m), "b")
        fam = odebvp.FirstOrderFamily(m=m, T=T, j=j_fun, b=b_fun, name=name)
    else:
        funs = {}
        for key in ("p", "q", "r"):
            fun, shape = _coeff_function(doc[key], key)
            _require_shape(shape, (m, m), key)
            funs[key] = fun
        fam = odebvp.SecondOrderFamily(m=m, T=T, name=name, **funs)
    w_path = _boundary_from(doc, m, kind)
    return harness.Scenario(
        name=name,
        kind=kind,
        build=lambda: (fam, w_path),
        opts=_bvp_opts(doc),
        expected=expected,
        description=f"{kind} problem from {default_name}",
    )


def _load(ref):
    """A config path or an @name builtin reference to a scenario."""
    if ref.startswith("@"):
        wanted = ref[1:]
        stock = harness.builtin_scenarios()
        for sc in stock:
            if sc.name == wanted:
                return sc
        known = ", ".join(sc.name for sc in stock)
        raise ConfigError(f"unknown builtin scenario {ref!r} (known: {known})")
    doc = load_document(ref)
    default_name = os.path.splitext(os.path.basename(ref))[0]
    return scenario_from_document(doc, default_name)


# --------------------------------------------------------------------------
# commands

def _write_report_files(outdir, rep):
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, f"{rep.name}.json"), rep.to_dict())
    for key, frep in rep.flow_reports.items():
        prefix = "lambda" if key == "sf" else "coord"
        frep.write_trace(os.path.join(outdir, f"{rep.name}_{key}.csv"),
                         prefix=prefix)


def cmd_verify(args):
    scenarios = [_load(ref) for ref in args.config]
    status = 0
    for sc in scenarios:
        rep = harness.run_scenario(sc)
        if args.out:
            _write_report_files(args.out, rep)
        if rep.error is not None:
            code = 2 if rep.error.startswith("UnresolvedFamily") else 1
            status = max(status, code)
            print(f"{rep.name}: error: {rep.error}", file=sys.stderr)
        elif not rep.agree:
            status = max(status, 1)
            print(f"{rep.name}: DISAGREE sf={rep.sf} mas={rep.mas}",
                  file=sys.stderr)
        else:
            left = f"sf={rep.sf} " if rep.sf is not None else ""
            print(f"{rep.name}: {left}mas={rep.mas} agree "
                  f"({rep.wall_ms:.0f} ms)")
    return status


def _single(args):
    sc = _load(args.config)
    built = sc.build()
    return sc, built


def cmd_sf(args):
    sc, built = _single(args)
    if sc.kind == "pair_path":
        raise ConfigError("sf needs a differential-equation problem; a "
                          "pair path only has a Maslov index")
    fam, w_path = built
    value, _ = odebvp.sf_bvp(fam, w_path, sc.opts)
    print(int(value))
    return 0


def cmd_maslov(args):
    sc, built = _single(args)
    if sc.kind == "pair_path":
        value, _ = maslov.maslov_index(built, sc.opts)
    else:
        fam, w_path = built
        value, _ = odebvp.mas_bvp(fam, w_path, sc.opts)
    print(int(value))
    return 0


def cmd_trace(args):
    sc, built = _single(args)
    if args.what == "eigenvalues":
        if sc.kind == "pair_path":
            raise ConfigError("a pair path has no eigenvalue river; "
                              "use --what eigenphases")
        fam, w_path = built
        _, rep = odebvp.sf_bvp(fam, w_path, sc.opts)
        prefix = "lambda"
    else:
        if sc.kind == "pair_path":
            _, rep = maslov.maslov_index(built, sc.opts)
        else:
            fam, w_path = built
            _, rep = odebvp.mas_bvp(fam, w_path, sc.opts)
        prefix = "coord"
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{sc.name}_{args.what}.csv")
    rep.write_trace(path, prefix=prefix)
    print(path)
    return 0


def cmd_sweep(args):
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError as exc:
        raise ConfigError(f"--dims: expected comma-separated integers, "
                          f"got {args.dims!r}") from exc
    suites = args.suites.split(",") if args.suites else None
    try:
        summary = harness.property_sweep(args.seed, args.trials, dims=dims,
                                         suites=suites)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for suite in summary.suites:
        flag = "ok  " if suite.failed == 0 else "FAIL"
        line = (f"{flag} {suite.name:<28} {suite.passed}/{suite.trials}"
                f"  worst residual {suite.worst_residual:.3g}")
        if suite.first_failure:
            line += f"  first failure: {suite.first_failure}"
        print(line)
    print(f"seed {summary.seed}, {summary.trials} trials per suite, "
          f"dims {','.join(str(d) for d in summary.dims)}: "
          + ("all passed" if summary.all_passed else "FAILURES"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "sweep.json"), summary.to_dict())
    return 0 if summary.all_passed else 1


def cmd_scenarios(args):
    for sc in harness.builtin_scenarios():
        if sc.expected is None:
            pinned = "established at run time"
        else:
            pinned = f"sf={sc.expected.sf} mas={sc.expected.mas}"
        print(f"{sc.name:<4} {sc.kind:<13} {pinned:<24} {sc.description}")
    return 0


# --------------------------------------------------------------------------
# argument wiring

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maslovflow",
        description="Spectral flow / Maslov index cross-checks for linear "
                    "Hamiltonian boundary value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify",
                       help="run both pipelines and compare the integers")
    p.add_argument("config", nargs="+",
                   help="JSON document path or @name builtin")
    p.add_argument("--out", help="directory for JSON reports and CSV traces")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sf", help="spectral flow only")
    p.add_argument("config")
    p.set_defaults(func=cmd_sf)

    p = sub.add_parser("maslov", help="Maslov index only")
    p.add_argument("config")
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("trace", help="write the sampled coordinate river "
                                     "as CSV")
    p.add_argument("config")
    p.add_argument("--what", choices=("eigenvalues", "eigenphases"),
                   required=True)
    p.add_argument("--out", help="directory for the CSV (default: .)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="randomized property sweep")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dims", default="2,4,6,8",
                   help="comma-separated ambient dimensions (even)")
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names (default: all)")
    p.add_argument("--out", help="directory for the summary JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenarios", help="list the stock scenarios")
    p.set_defaults(func=cmd_scenarios)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExpressionSyntaxError, UnknownIdentifier,
            InvalidTrials) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnresolvedFamily as exc:
        print(f"error: unresolved family: {exc}", file=sys.stderr)
        return 2
    except MaslovFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
