"""Arithmetic expressions in one variable, with symbolic differentiation.

Grammar (ASCII, whitespace insensitive):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' factor)?          # '^' is right-associative
    base   := number | 'x' | '(' expr ')' | fn '(' expr ')'
    fn     in {abs, sin, cos, exp, log, floor, sqrt}

Numbers are plain decimal literals (no exponent notation).  ``compile``
turns an AST into a program once: nested closures in which constant
subtrees are folded into Python floats and every operator calls its numpy
ufunc directly, so ``x^2`` is ``np.power(x, 2.0)``, not a power with an
array of 2s as exponent.  ``evaluate`` runs a program on a scalar (giving
a float) or an array (giving a fresh array of the same shape).  ``diff``
returns a new AST with the almost-everywhere derivative (abs -> sign,
floor -> 0); ``sign`` is a call that derivatives hold but the grammar does
not read, and its own derivative is 0.  ASTs may also be built directly
from the node classes, as ``measure`` builds its potential families.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

FUNCTIONS = ("abs", "sin", "cos", "exp", "log", "floor", "sqrt")

_NUMPY_FUNCS = {
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "floor": np.floor,
    "sqrt": np.sqrt,
    "sign": np.sign,  # only in derivatives: d abs(u) = sign(u) du
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_]+)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        number, name, op = m.groups()
        tok_pos = m.end() - len((number or name or op))
        if number is not None:
            tokens.append(("num", float(number), tok_pos))
        elif name is not None:
            tokens.append(("name", name, tok_pos))
        else:
            tokens.append(("op", op, tok_pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.factor()

    def factor(self):
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Bin("^", node, self.factor())  # right-associative
        return node

    def base(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value == "x":
                return Var()
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text):
    """Parse ``text`` into an AST; raises ParseError with the bad offset."""
    return _Parser(text).parse()


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _var(x):
    return x


def _unary(ufunc, a):
    if isinstance(a, float):
        return float(ufunc(a))
    if a is _var:
        return ufunc
    return lambda x: ufunc(a(x))


def _binary(ufunc, a, b):
    if isinstance(a, float):
        if isinstance(b, float):
            return float(ufunc(a, b))
        return lambda x: ufunc(a, b(x))
    if isinstance(b, float):
        return lambda x: ufunc(a(x), b)
    return lambda x: ufunc(a(x), b(x))


def _compile(node):
    """A float for a constant subtree, else a closure x -> its value."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return _var
    if isinstance(node, Neg):
        return _unary(np.negative, _compile(node.arg))
    if isinstance(node, Call):
        return _unary(_NUMPY_FUNCS[node.fn], _compile(node.arg))
    return _binary(_UFUNCS[node.op], _compile(node.left), _compile(node.right))


def compile(node):
    """Compile an AST once into a program for ``evaluate``.

    Constant subtrees are folded here, with the same ufuncs, so a constant
    overflow or division by zero gives its inf or nan without a warning.
    """
    with np.errstate(all="ignore"):
        run = _compile(node)
    if isinstance(run, float):
        return lambda x: np.full(x.shape, run)
    if run is _var:
        return np.copy
    return run


def evaluate(program, x):
    """Run a compiled program at ``x``: a float for a scalar, and for an
    array a fresh, writable array of its shape."""
    x = np.asarray(x, dtype=float)
    out = program(x)
    return out if x.shape else float(out)


def _is_const(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def diff(node):
    """Almost-everywhere derivative of the AST with light constant folding."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        d = diff(node.arg)
        return Num(-d.value) if _is_const(d) else Neg(d)
    if isinstance(node, Call):
        u, du = node.arg, diff(node.arg)
        if node.fn == "abs":
            return _mul(Call("sign", u), du)  # 0 at the kink u = 0
        if node.fn == "sin":
            return _mul(Call("cos", u), du)
        if node.fn == "cos":
            return _mul(Neg(Call("sin", u)), du)
        if node.fn == "exp":
            return _mul(Call("exp", u), du)
        if node.fn == "log":
            return _mul(Bin("/", Num(1.0), u), du)
        if node.fn == "sqrt":
            return _mul(Bin("/", Num(0.5), Call("sqrt", u)), du)
        if node.fn in ("floor", "sign"):
            return Num(0.0)  # a.e.
        raise AssertionError(node.fn)
    if node.op == "+":
        return _add(diff(node.left), diff(node.right))
    if node.op == "-":
        left, right = diff(node.left), diff(node.right)
        if _is_const(right, 0.0):
            return left
        return Bin("-", left, right)
    if node.op == "*":
        return _add(_mul(diff(node.left), node.right), _mul(node.left, diff(node.right)))
    if node.op == "/":
        num = Bin("-", _mul(diff(node.left), node.right), _mul(node.left, diff(node.right)))
        return Bin("/", num, Bin("^", node.right, Num(2.0)))
    if node.op == "^":
        if _is_const(node.right):
            p = node.right.value
            return _mul(_mul(Num(p), Bin("^", node.left, Num(p - 1.0))), diff(node.left))
        # general u^v = exp(v log u)
        u, v = node.left, node.right
        inner = _add(_mul(diff(v), Call("log", u)), _mul(v, Bin("/", diff(u), u)))
        return _mul(Bin("^", u, v), inner)
    raise AssertionError(node.op)


def functions_used(node):
    """Set of function names occurring in the AST."""
    if isinstance(node, (Num, Var)):
        return set()
    if isinstance(node, Neg):
        return functions_used(node.arg)
    if isinstance(node, Call):
        return {node.fn} | functions_used(node.arg)
    return functions_used(node.left) | functions_used(node.right)
