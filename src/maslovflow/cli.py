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
subspaces, the ambient space is ``C^{2m}`` and ``j`` is the 2m x 2m
structure matrix.  For ``first_order`` the boundary frame has ``2m`` rows;
for ``second_order`` a ``w_path`` frame has ``4m`` rows while
``r_subspace`` is a frame with ``2m`` rows (positions at the two ends of
the interval).  A ``pair_path`` takes only ``initial_segments`` and
``max_depth`` from ``numerics``.

Variables, in expression entries and as sample axes alike: the ODE
coefficients ``j``, ``b``, ``p``, ``q``, ``r`` may use ``s`` and ``t``;
the pair-path matrices ``j``, ``lam``, ``mu`` and a ``w_path`` frame use
``s`` only; an ``r_subspace`` frame is constant.

Every number in a document is a finite JSON number: the literals ``NaN``,
``Infinity`` and ``-Infinity`` are refused, as are integers too large for
a float and strings or booleans in ``samples.values``.  A ``name`` names
the report files, so it may not contain ``/`` or ``\\`` and may not be
``.`` or ``..``.

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
import math
import os
import sys

import jsonschema
import numpy as np

from . import expressions, flow, harness, maslov, odebvp
from .errors import (
    ConfigError,
    ExpressionSyntaxError,
    MaslovFlowError,
    NonFinite,
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

# Arrays nested to any depth whose leaves are numbers.
_NUMBER_ARRAY = {
    "type": "array",
    "items": {"anyOf": [{"type": "number"}, {"$ref": "#/$defs/number_array"}]},
}

_SAMPLES = {
    "type": "object",
    "required": ["samples"],
    "additionalProperties": False,
    "properties": {
        "samples": {
            "type": "object",
            "required": ["values"],
            "additionalProperties": False,
            "properties": {"s": _AXIS, "t": _AXIS,
                           "values": {"$ref": "#/$defs/number_array"}},
        }
    },
}

_COEFF = {"oneOf": [_MATRIX, _SAMPLES]}

CONFIG_SCHEMA = {
    "$defs": {"number_array": _NUMBER_ARRAY},
    "type": "object",
    "required": ["kind", "m"],
    "additionalProperties": False,
    "properties": {
        # names the report files, so it must stay inside --out
        "name": {"type": "string", "minLength": 1, "pattern": r"^[^/\\]*$",
                 "not": {"enum": [".", ".."]}},
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
                "steps": {"type": "integer", "minimum": 1},
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
        return expressions.Expression.constant(np.complex128(float(entry)))
    if isinstance(entry, list) and len(entry) == 2:
        re_part, im_part = entry
        return expressions.Expression.constant(
            np.complex128(float(re_part)) + np.complex128(1j * float(im_part)))
    raise ConfigError(f"{where}: expected an expression string, a number, "
                      f"or a [re, im] pair, got {entry!r}")


def _matrix_asts(rows, where, variables):
    ncol = len(rows[0])
    asts = []
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ConfigError(f"{where}: row {i} has {len(row)} entries, "
                              f"row 0 has {ncol}")
        asts.append([_entry_ast(e, f"{where}[{i}][{k}]")
                     for k, e in enumerate(row)])
    for i, row in enumerate(asts):
        for k, expr in enumerate(row):
            extra = expr.names - set(variables)
            if extra:
                raise ConfigError(f"{where}[{i}][{k}]: {min(extra)!r} is not a "
                                  f"variable here (allowed: {variables or 'none'})")
    return asts


def _matrix_function(rows, where, variables):
    """Matrix of expression entries -> f(s, t) returning (nt, r, c) for a
    1-D t-array of nt times."""
    asts = _matrix_asts(rows, where, variables)
    nrow, ncol = len(asts), len(asts[0])

    def fun(s, t):
        out = np.empty((len(t), nrow, ncol), dtype=complex)
        # Non-finite values are refused downstream by a named check.
        with np.errstate(all="ignore"):
            for i, row in enumerate(asts):
                for k, expr in enumerate(row):
                    out[:, i, k] = np.broadcast_to(np.asarray(expr.fn(s, t)), t.shape)
        return out

    return fun, (nrow, ncol)


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
    at the 1-D query points ``x`` (clamped to the grid range)."""
    idx = np.clip(np.searchsorted(grid, x), 1, len(grid) - 1)
    g0, g1 = grid[idx - 1], grid[idx]
    w = np.clip((x - g0) / (g1 - g0), 0.0, 1.0).reshape((-1,) + (1,) * (vals.ndim - 1))
    return (1.0 - w) * vals[idx - 1] + w * vals[idx]


def _sampled_function(samples, where, variables):
    for name in "st":
        if name in samples and name not in variables:
            raise ConfigError(f"{where}: a {name!r} sample axis is not "
                              f"allowed here (allowed: {variables or 'none'})")
    s_ax = _axis(samples, "s", where)
    t_ax = _axis(samples, "t", where)
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
        block = vals if s_ax is None else _lerp(s_ax, vals, np.array([float(s)]))[0]
        if t_ax is not None:
            return _lerp(t_ax, block, t)
        return np.broadcast_to(block, (len(t),) + block.shape)

    return fun, vals.shape[-2:]


def _coefficient(spec, where, rows, cols=None, variables="st"):
    """A coefficient document (matrix of expressions or sampled grid) as
    ``f(s, t)``, refused unless it uses only ``variables`` and has ``rows``
    rows (and ``cols`` columns when given)."""
    if isinstance(spec, dict):
        fun, shape = _sampled_function(spec["samples"], where, variables)
    else:
        fun, shape = _matrix_function(spec, where, variables)
    if shape[0] != rows or cols not in (None, shape[1]):
        want = f"{rows} rows" if cols is None else f"{rows}x{cols}"
        raise ConfigError(f"{where}: shape {shape[0]}x{shape[1]} does not "
                          f"match the required {want}")
    return fun


def _s_matrix(spec, where, rows, cols=None, variables="s"):
    """A document matrix in s alone, read at the one time ``t = 0``, as
    ``f(s)``; whether it moves with s is decided by its values, batch by
    batch (see :func:`maslovflow.core.as_path`).  A value that is not
    finite raises ``NonFinite`` naming the field and s."""
    fun = _coefficient(spec, where, rows, cols, variables)

    def at(s):
        value = fun(s, np.zeros(1))[0]
        if not np.all(np.isfinite(value)):
            raise NonFinite(f"{where}(s={s:.6g}) is not finite")
        return value

    return at


# --------------------------------------------------------------------------
# document -> scenario

def _finite_number(text):
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"{text} is not a finite number")
    return x


def _finite_int(text):
    _finite_number(text)  # an integer too large for a float reads as inf
    return int(text)


def load_document(path):
    """Read and schema-check a JSON problem document."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite_number,
                            parse_int=_finite_int,
                            parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
    if kind == "pair_path" and sf is not None:
        raise ConfigError("expected.sf: a pair path has no spectral flow; "
                          "omit it or set it to null")
    return harness.Expected(sf=sf, mas=exp["mas"], provenance=exp["provenance"])


def _boundary_from(doc, m, kind):
    boundary = doc["boundary"]
    if "r_subspace" in boundary:
        if kind != "second_order":
            raise ConfigError("boundary.r_subspace only applies to "
                              "second_order problems; use w_path")
        frame = boundary["r_subspace"]
        if frame is not None:  # None picks R = {0}
            frame = _s_matrix(frame, "boundary.r_subspace", 2 * m, variables="")(0.0)
        return odebvp.w_of_r(frame, m=m)
    rows = 2 * m if kind == "first_order" else 4 * m
    return _s_matrix(boundary["w_path"], "boundary.w_path", rows)


def scenario_from_document(doc, default_name):
    """Turn a schema-valid document into a runnable scenario."""
    kind = doc["kind"]
    # the schema's "integer" admits 4.0; counts go on as int
    m = int(doc["m"])
    numerics = {key: value if key == "lambda_window" else int(value)
                for key, value in doc.get("numerics", {}).items()}
    expected = _expected_from(doc, kind)

    if kind == "pair_path":
        for key in ("T", "boundary"):
            if key in doc:
                raise ConfigError(f"{key!r} does not apply to a pair_path "
                                  f"document")
        for key in ("steps", "lambda_window"):
            if key in numerics:
                raise ConfigError(f"numerics.{key} does not apply to a "
                                  f"pair_path document")
        parts = {key: _s_matrix(doc[key], key, 2 * m, cols)
                 for key, cols in (("j", 2 * m), ("lam", m), ("mu", m))}
        interval = tuple(doc.get("interval", (0.0, 1.0)))
        if not interval[1] > interval[0]:
            raise ConfigError("interval: need a < b")
        built = maslov.PairPath.from_parts(interval=interval, **parts)
        opts = flow.FlowOpts(**numerics)
    else:
        if "interval" in doc:
            raise ConfigError("interval: only pair_path documents choose the "
                              "parameter range; differential-equation kinds "
                              "run over [0, 1]")
        family, keys = {"first_order": (odebvp.FirstOrderFamily, "jb"),
                        "second_order": (odebvp.SecondOrderFamily, "pqr")}[kind]
        fam = family(m=m, T=float(doc["T"]),
                     **{key: _coefficient(doc[key], key, m, m) for key in keys})
        built = (fam, _boundary_from(doc, m, kind))
        opts = odebvp.BvpOpts(**numerics)
    return harness.Scenario(
        name=doc.get("name", default_name),
        kind=kind,
        build=lambda: built,
        opts=opts,
        expected=expected,
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

def cmd_verify(args):
    scenarios = [_load(ref) for ref in args.config]
    if args.out:
        names = [sc.name for sc in scenarios]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"--out: scenario names {repeated} repeat, so their "
                              "reports would overwrite each other")
        os.makedirs(args.out, exist_ok=True)
    status = 0
    for sc in scenarios:
        rep = harness.run_scenario(sc)
        if args.out:
            _write_json(os.path.join(args.out, f"{rep.name}.json"), rep.to_dict())
            for key, frep in rep.flow_reports.items():
                frep.write_trace(os.path.join(args.out, f"{rep.name}_{key}.csv"))
        if rep.error is not None:
            code = 2 if rep.error.startswith("UnresolvedFamily") else 1
            status = max(status, code)
            print(f"{rep.name}: error: {rep.error}", file=sys.stderr)
        elif not rep.agree:
            status = max(status, 1)
            found = " ".join(f"{key}={value}" for key, value in rep.integers.items())
            print(f"{rep.name}: DISAGREE {found}", file=sys.stderr)
        else:
            left = f"sf={rep.sf} " if rep.sf is not None else ""
            print(f"{rep.name}: {left}mas={rep.mas} agree "
                  f"({rep.wall_ms:.0f} ms)")
    return status


def _run_pipeline(sc, key, missing):
    """Run the scenario's ``key`` pipeline, or raise ``missing``."""
    runs = harness.pipelines(sc)
    if key not in runs:
        raise ConfigError(missing)
    return runs[key]()


def cmd_index(args):
    """``sf`` and ``maslov``: print the integer of one pipeline."""
    value, _ = _run_pipeline(
        _load(args.config), args.pipeline, "sf needs a differential-equation "
        "problem; a pair path only has a Maslov index")
    print(int(value))
    return 0


def cmd_trace(args):
    key = "sf" if args.what == "eigenvalues" else "mas"
    sc = _load(args.config)
    missing = "a pair path has no eigenvalue river; use --what eigenphases"
    if key == "sf" and sc.kind == "pair_path":  # refused before --out is made
        raise ConfigError(missing)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _, rep = _run_pipeline(sc, key, missing)
    path = os.path.join(outdir, f"{sc.name}_{args.what}.csv")
    rep.write_trace(path)
    print(path)
    return 0


def cmd_sweep(args):
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError as exc:
        raise ConfigError(f"--dims: expected comma-separated integers, "
                          f"got {args.dims!r}") from exc
    suites = args.suites.split(",") if args.suites else None
    try:  # a refused run makes no --out directory
        harness.check_sweep(args.seed, args.trials, dims, suites)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    summary = harness.property_sweep(args.seed, args.trials, dims=dims, suites=suites)
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
    p.set_defaults(func=cmd_index, pipeline="sf")

    p = sub.add_parser("maslov", help="Maslov index only")
    p.add_argument("config")
    p.set_defaults(func=cmd_index, pipeline="mas")

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
    except (ConfigError, ExpressionSyntaxError, UnknownIdentifier) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnresolvedFamily as exc:
        print(f"error: unresolved family: {exc}", file=sys.stderr)
        return 2
    except (MaslovFlowError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
