"""Tiny expression language for scalar coefficient entries.

Config files describe matrix coefficients entry by entry, each entry a
string in the two variables ``s`` (family parameter) and ``t`` (time).
The grammar, with insignificant whitespace::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] atom
    atom   := number | number 'i' | 'pi' | 's' | 't'
            | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'sqrt'

Numbers are ordinary floating point literals.  A trailing ``i`` makes the
literal imaginary: ``2i``, ``0.5i``, ``1e-3i``.  There is no bare ``i``;
write ``1i``.  The Unicode minus sign U+2212 is accepted anywhere ``-``
is.  Evaluation is complex throughout and vectorizes over numpy arrays
by ordinary broadcasting.

``parse`` raises :class:`~maslovflow.errors.ExpressionSyntaxError` with
the zero-based character offset of the offending token, or
:class:`~maslovflow.errors.UnknownIdentifier` for names outside the
grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExpressionSyntaxError, UnknownIdentifier

__all__ = [
    "Num",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "evaluate",
    "variables",
]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_VARS = ("s", "t")


# --------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    """Literal; ``imag`` marks the ``i`` suffix (value times 1j)."""

    value: float
    imag: bool = False


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Var:
    name: str  # "s" or "t"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Const, Var, Neg, BinOp, Call]


# --------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/()−])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {src[pos]!r}", pos
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            op = "-" if m.group() == "−" else m.group()
            tokens.append((op, op, pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {what}, found {tok[1]!r}" if tok[0] != "end"
                else f"expected {what}, found end of input",
                tok[2],
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {tok[1]!r}", tok[2]
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            if text.endswith("i"):
                return Num(float(text[:-1]), imag=True)
            return Num(float(text))
        if kind == "name":
            self.advance()
            if text in _VARS:
                return Var(text)
            if text == "pi":
                return Const("pi")
            if text in _FUNCS:
                self.expect("(", "'(' after function name")
                node = self.expr()
                self.expect(")", "')'")
                return Call(text, node)
            raise UnknownIdentifier(text, offset)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", offset)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)


def parse(src):
    """Parse ``src`` into a syntax tree."""
    if not isinstance(src, str):
        raise ExpressionSyntaxError(
            f"expression must be a string, got {type(src).__name__}", 0
        )
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# evaluation


def evaluate(node, s, t):
    """Evaluate a tree at ``(s, t)``.

    Either argument may be a scalar or a numpy array; the result follows
    numpy broadcasting and is always complex.
    """
    if isinstance(node, Num):
        # numpy scalars so that 0/0 follows array semantics (nan, not a raise)
        return np.complex128(1j * node.value if node.imag else node.value)
    if isinstance(node, Const):
        return np.complex128(np.pi)
    if isinstance(node, Var):
        val = s if node.name == "s" else t
        return np.asarray(val, dtype=np.complex128)
    if isinstance(node, Neg):
        return -evaluate(node.arg, s, t)
    if isinstance(node, BinOp):
        a = evaluate(node.left, s, t)
        b = evaluate(node.right, s, t)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Call):
        return _FUNCS[node.fn](evaluate(node.arg, s, t))
    raise TypeError(f"not an expression node: {node!r}")


def variables(node):
    """Set of variable names that actually occur in the tree."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        return variables(node.arg)
    return set()

