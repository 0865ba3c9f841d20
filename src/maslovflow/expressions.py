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
is.

``parse`` compiles a string into an :class:`Expression`: each grammar
construct becomes a closure over its operands' closures, so there is no
syntax tree to walk, and a chain of ``+ -`` or ``* /`` is one closure that
folds its operands from the left in a loop.  Parentheses (a function call's
included) nest at most 100 deep.  Evaluation is complex throughout and
vectorizes over numpy arrays by ordinary broadcasting.

``parse`` raises :class:`~maslovflow.errors.ExpressionSyntaxError` with
the zero-based character offset of the offending token, or
:class:`~maslovflow.errors.UnknownIdentifier` for names outside the
grammar.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionSyntaxError, UnknownIdentifier

__all__ = ["Expression", "parse"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# binary operators by precedence, loosest first; all associate to the left
_LEVELS = (("+", "-"), ("*", "/"))
# deepest parenthesis nesting: the parser recurses a few frames per level
_MAX_NESTING = 100


@dataclass(frozen=True)
class Expression:
    """A compiled expression: ``fn(s, t)`` evaluates it and ``names`` is
    the set of variables it uses."""

    fn: Callable
    names: frozenset = frozenset()

    @classmethod
    def constant(cls, value):
        """The expression that always evaluates to ``value``."""
        return cls(lambda s, t: value)


# Operands are bound through these helpers: a lambda built inside the
# parser's operator loop would capture the loop variable and call itself.
def _unary(fn, arg):
    f = arg.fn
    return Expression(lambda s, t: fn(f(s, t)), arg.names)


def _fold(first, rest):
    """``first`` and the ``(op, operand)`` pairs of ``rest`` as one left
    fold, so a chain of any length evaluates one closure deep."""
    def fn(s, t):
        acc = first.fn(s, t)
        for op, arg in rest:
            acc = op(acc, arg.fn(s, t))
        return acc

    return Expression(fn, first.names.union(*(arg.names for _, arg in rest)))


def _variable(name):
    if name == "s":
        return Expression(lambda s, t: np.asarray(s, dtype=np.complex128), frozenset("s"))
    return Expression(lambda s, t: np.asarray(t, dtype=np.complex128), frozenset("t"))


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
    pos = depth = 0
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
            depth += {"(": 1, ")": -1}.get(op, 0)
            if depth > _MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nest deeper than {_MAX_NESTING}", pos)
            tokens.append((op, op, pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# --------------------------------------------------------------------------
# parser: each production returns the Expression it has read


class _Parser:
    def __init__(self, src):
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

    def expr(self, level=0):
        """``expr`` at level 0, ``term`` at level 1."""
        if level == len(_LEVELS):
            return self.factor()
        first, rest = self.expr(level + 1), []
        while self.peek()[0] in _LEVELS[level]:
            rest.append((_OPS[self.advance()[0]], self.expr(level + 1)))
        return _fold(first, rest) if rest else first

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return _unary(operator.neg, self.atom())
        return self.atom()

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            # numpy scalars so that 0/0 follows array semantics (nan, not a raise)
            if text.endswith("i"):
                return Expression.constant(np.complex128(1j * float(text[:-1])))
            return Expression.constant(np.complex128(float(text)))
        if kind == "name":
            self.advance()
            if text in ("s", "t"):
                return _variable(text)
            if text == "pi":
                return Expression.constant(np.complex128(np.pi))
            if text in _FUNCS:
                self.expect("(", "'(' after function name")
                node = self.expr()
                self.expect(")", "')'")
                return _unary(_FUNCS[text], node)
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
    """Compile ``src`` into an :class:`Expression`."""
    if not isinstance(src, str):
        raise ExpressionSyntaxError(
            f"expression must be a string, got {type(src).__name__}", 0
        )
    return _Parser(src).parse()

