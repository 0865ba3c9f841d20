"""Expression language: grammar, evaluation, offsets, precedence."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from maslovflow import expressions as ex
from maslovflow.errors import ExpressionSyntaxError, UnknownIdentifier


def ev(src, s, t):
    return ex.parse(src).fn(s, t)


def test_basic_arithmetic():
    assert ev("1+2*3", 0, 0) == 7
    assert ev("(1+2)*3", 0, 0) == 9
    assert ev("2/4", 0, 0) == 0.5
    assert ev("1-2-3", 0, 0) == -4  # left associative
    assert ev("8/4/2", 0, 0) == 1
    assert ev("-2*3", 0, 0) == -6
    assert ev("2*-3", 0, 0) == -6


def test_variables_and_constants():
    npt.assert_allclose(ev("pi", 0, 0), np.pi)
    assert ev("s", 2.0, 5.0) == 2.0
    assert ev("t", 2.0, 5.0) == 5.0
    npt.assert_allclose(ev("s*t+1", 3.0, 4.0), 13.0)


def test_imaginary_literals():
    assert ev("1i", 0, 0) == 1j
    assert ev("2.5i", 0, 0) == 2.5j
    assert ev("1e-3i", 0, 0) == 1e-3j
    npt.assert_allclose(ev("1i*(1 + 0.5*s*sin(pi*t))", 1.0, 0.5), 1.5j)


def test_no_bare_i():
    with pytest.raises(UnknownIdentifier) as info:
        ex.parse("i*(1+s)")
    assert info.value.name == "i"
    assert info.value.offset == 0


def test_functions():
    npt.assert_allclose(ev("sin(pi/2)", 0, 0), 1.0)
    npt.assert_allclose(ev("cos(0)", 0, 0), 1.0)
    npt.assert_allclose(ev("exp(1i*pi)", 0, 0), -1.0, atol=1e-15)
    npt.assert_allclose(ev("sqrt(2)", 0, 0), np.sqrt(2))


def test_unicode_minus():
    assert ev("−2*s − 1", 3.0, 0.0) == -7


def test_whitespace_insignificant():
    a = ev("1 +   2 * s", 3.0, 0.0)
    b = ev("1+2*s", 3.0, 0.0)
    assert a == b


def test_vectorized_broadcasting():
    t = np.linspace(0, 1, 7)
    out = ev("s*cos(t)", 2.0, t)
    npt.assert_allclose(out, 2.0 * np.cos(t))
    assert out.dtype == np.complex128


def test_syntax_error_offset():
    with pytest.raises(ExpressionSyntaxError) as info:
        ex.parse("s +* t")
    assert info.value.offset == 3


@pytest.mark.parametrize(
    "src,offset",
    [
        ("", 0),
        ("(s", 2),
        ("sin s", 4),
        ("s t", 2),
        ("1 $ 2", 2),
        ("--s", 1),
        (3, 0),
    ],
)
def test_more_syntax_errors(src, offset):
    with pytest.raises(ExpressionSyntaxError) as info:
        ex.parse(src)
    assert info.value.offset == offset


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifier) as info:
        ex.parse("s + tan(t)")
    assert info.value.name == "tan"
    assert info.value.offset == 4


def test_variables_reported():
    assert ex.parse("s*sin(pi*t)").names == {"s", "t"}
    assert ex.parse("cos(2*pi*s)").names == {"s"}
    assert ex.parse("1+2i").names == set()


ROUND_TRIP_CASES = [
    "1i*(1 + 0.5*s*sin(pi*t))",
    "-s*t/(1+t)",
    "2*-3",
    "-(-s)",
    "s-t-1",
    "s-(t-1)",
    "s/t/2",
    "s/(t/2)",
    "exp(-t)*cos(2*pi*s)+sqrt(s)",
    "1e-3i + .5",
    "-(s+t)*2",
    "s*(t+1)*(t-1)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_round_trip(src):
    # The grammar's precedence and associativity are Python's, so a source
    # string must evaluate to the value Python gives it (imaginary literals
    # spelled with Python's ``j``).
    rng = np.random.default_rng(0)
    ss = rng.uniform(0.1, 2.0, 100)
    tt = rng.uniform(0.1, 2.0, 100)
    a = ex.parse(src).fn(ss, tt)
    names = {"s": ss, "t": tt, "pi": np.pi, "sin": np.sin, "cos": np.cos,
             "exp": np.exp, "sqrt": np.sqrt}
    b = eval(re.sub(r"(\d)i", r"\1j", src), {"__builtins__": {}}, names)
    rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300))
    assert rel <= 1e-15


@pytest.mark.parametrize("src, offset", [
    ("(" * 400 + "1" + ")" * 400, 100),
    ("sin(" * 200 + "0" + ")" * 200, 403),
], ids=["parentheses", "functions"])
def test_nesting_deeper_than_the_limit_is_a_syntax_error(src, offset):
    # both raised RecursionError while parsing; the error names the first
    # parenthesis past the limit
    with pytest.raises(ExpressionSyntaxError, match="parentheses nest deeper than 100") as info:
        ex.parse(src)
    assert info.value.offset == offset
    depth = ex._MAX_NESTING
    assert ev("(" * depth + "s" + ")" * depth, 2.0, 0.0) == 2.0


def test_a_long_chain_is_one_left_fold():
    # a 1,200-term sum nested 1,200 closures and raised RecursionError
    # when evaluated; the fold keeps the order of operations
    rng = np.random.default_rng(1)
    coef = rng.uniform(0.001, 1.0, 1200)
    ops = rng.choice(["+", "-"], 1199)
    src = repr(float(coef[0])) + "*s" + "".join(
        f"{op}{float(c)!r}*s" for op, c in zip(ops, coef[1:]))
    s = np.linspace(0.0, 1.0, 7)
    x = s.astype(np.complex128)
    want = np.complex128(coef[0]) * x
    for op, c in zip(ops, coef[1:]):
        want = want + np.complex128(c) * x if op == "+" else want - np.complex128(c) * x
    npt.assert_array_equal(ev(src, s, 0.0), want)
    assert ex.parse(src).names == {"s"}
