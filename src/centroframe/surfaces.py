"""Surface specifications: a small expression language plus built-in models.

A surface is given by five coordinate expressions in the parameters u and v,
separated by semicolons.  The grammar (binding strength: ``^`` above unary
minus above ``* /`` above ``+ -``; binary operators associate left)::

    surface := expr ";" expr ";" expr ";" expr ";" expr
    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | base ("^" integer)?
    base    := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers are the coordinates ``u`` and ``v``, the unary functions
``sin cos sinh cosh exp sqrt neg``, or named numeric parameters supplied at
parse time.  Expressions evaluate over :class:`~centroframe.taylor.TaylorScalar`
jets, so every surface is automatically differentiable to the chosen degree.
"""

import math
import operator
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import taylor
from .errors import (
    ArithmeticFailure, ArityError, SurfaceSyntaxError, UnknownIdentifier, UnknownModel,
)
from .taylor import TaylorScalar, coordinate_jets

__all__ = [
    "ExprNode",
    "SurfaceSpec",
    "parse_surface",
    "eval_surface",
    "unparse",
    "builtin_surface",
    "resolve_surface",
    "BUILTIN_SURFACES",
]

# (plain-float implementation, jet implementation) for each unary function.
_FUNCTIONS = {
    "sin": (math.sin, taylor.sin),
    "cos": (math.cos, taylor.cos),
    "sinh": (math.sinh, taylor.sinh),
    "cosh": (math.cosh, taylor.cosh),
    "exp": (math.exp, taylor.exp),
    "sqrt": (math.sqrt, taylor.sqrt),
    "neg": (operator.neg, operator.neg),
}


@dataclass(frozen=True)
class ExprNode:
    """Node of a parsed expression tree.

    kind is one of "num", "var", "param", "call", "binary", "neg", "pow";
    ``name`` carries the identifier or operator symbol, ``value`` the numeric
    literal or integer exponent, and ``children`` the operand nodes.
    """

    kind: str
    name: str = ""
    value: float = 0.0
    children: tuple = ()


@dataclass(frozen=True)
class SurfaceSpec:
    """Five parsed coordinate expressions plus parameter bindings."""

    components: tuple
    name: str = ""
    params: dict = field(default_factory=dict)
    source: str = ""


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text):
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        if text[pos] in " \t\r\n":
            pos += 1
            continue
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(), line, col))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group(), line, col))
            pos = m.end()
            continue
        ch = text[pos]
        if ch in "-+*/^();,":
            tokens.append(("sym", ch, line, col))
            pos += 1
            continue
        raise SurfaceSyntaxError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", "", text.count("\n") + 1, n - text.rfind("\n", 0, n)))
    return tokens


class _Parser:
    """Recursive-descent parser for the surface grammar."""

    def __init__(self, text, param_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.param_names = param_names

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, line, col = self.peek()
        if kind != "sym" or value != sym:
            raise SurfaceSyntaxError(
                "expected %r, found %r" % (sym, value or "end of input"), line, col
            )
        return self.next()

    def at_sym(self, *syms):
        kind, value, _, _ = self.peek()
        return kind == "sym" and value in syms

    def parse_surface(self):
        comps = [self.parse_expr()]
        while self.at_sym(";"):
            self.next()
            comps.append(self.parse_expr())
        kind, value, line, col = self.peek()
        if kind != "eof":
            raise SurfaceSyntaxError("unexpected %r after expression" % value, line, col)
        if len(comps) != 5:
            raise SurfaceSyntaxError(
                "surface needs exactly 5 components, found %d" % len(comps), line, col
            )
        return tuple(comps)

    def parse_expr(self):
        node = self.parse_term()
        while self.at_sym("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            node = ExprNode("binary", name=op, children=(node, rhs))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            op = self.next()[1]
            rhs = self.parse_factor()
            node = ExprNode("binary", name=op, children=(node, rhs))
        return node

    def parse_factor(self):
        if self.at_sym("-"):
            self.next()
            return ExprNode("neg", children=(self.parse_factor(),))
        node = self.parse_base()
        if self.at_sym("^"):
            self.next()
            node = ExprNode("pow", value=self.parse_integer(), children=(node,))
        return node

    def parse_integer(self):
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        kind, value, line, col = self.next()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise SurfaceSyntaxError("exponent must be an integer", line, col)
        return sign * int(value)

    def parse_base(self):
        kind, value, line, col = self.next()
        if kind == "num":
            return ExprNode("num", value=float(value))
        if kind == "ident":
            if self.at_sym("("):
                self.next()
                args = [self.parse_expr()]
                while self.at_sym(","):
                    self.next()
                    args.append(self.parse_expr())
                self.expect_sym(")")
                if value not in _FUNCTIONS:
                    raise UnknownIdentifier("unknown function %r" % value)
                if len(args) != 1:
                    raise ArityError(
                        "%s takes 1 argument, got %d" % (value, len(args))
                    )
                return ExprNode("call", name=value, children=tuple(args))
            if value in ("u", "v"):
                return ExprNode("var", name=value)
            if value in self.param_names:
                return ExprNode("param", name=value)
            raise UnknownIdentifier("unknown identifier %r" % value)
        if kind == "sym" and value == "(":
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        raise SurfaceSyntaxError(
            "expected a number, name or '(', found %r" % (value or "end of input"),
            line,
            col,
        )


def parse_surface(text, name="", params=None):
    """Parse five semicolon-separated coordinate expressions.

    Parameters
    ----------
    text : str
        Surface source, e.g. ``"cosh(u); u*v; 1+v; u^2; exp(v)"``.
    name : str, optional
        Label stored on the resulting spec.
    params : dict, optional
        Named numeric parameters the expressions may reference.

    Returns
    -------
    SurfaceSpec

    Raises
    ------
    SurfaceSyntaxError
        On malformed input, with 1-based line/column of the offending token.
    UnknownIdentifier, ArityError
        On references to undefined names or wrong argument counts.
    """
    params = dict(params or {})
    comps = _Parser(text, frozenset(params)).parse_surface()
    return SurfaceSpec(components=comps, name=name, params=params, source=text)


def _eval_node(node, env):
    if node.kind == "num":
        return node.value
    if node.kind == "var":
        return env[node.name]
    if node.kind == "param":
        return env[node.name]
    if node.kind == "neg":
        return -_eval_node(node.children[0], env)
    if node.kind == "pow":
        return _eval_node(node.children[0], env) ** int(node.value)
    if node.kind == "binary":
        a = _eval_node(node.children[0], env)
        b = _eval_node(node.children[1], env)
        return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[
            node.name
        ](a, b)
    if node.kind == "call":
        arg = _eval_node(node.children[0], env)
        plain, jet = _FUNCTIONS[node.name]
        return jet(arg) if isinstance(arg, TaylorScalar) else plain(arg)
    raise ValueError("bad node kind %r" % node.kind)


def eval_surface(spec, u0, v0, degree):
    """Evaluate a surface spec to five jets about the base point (u0, v0).

    Returns
    -------
    list of TaylorScalar
        The five coordinate jets, each of the requested degree.

    Raises
    ------
    ArithmeticFailure
        If a component jet is not finite (an overflow or a division by zero
        in floating point, which numpy is not left to warn about).
    """
    u, v = coordinate_jets(u0, v0, degree)
    env = {"u": u, "v": v}
    for k, val in spec.params.items():
        env[k] = TaylorScalar.constant(float(val), degree)
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, node in enumerate(spec.components):
            value = _eval_node(node, env)
            if not isinstance(value, TaylorScalar):
                value = TaylorScalar.constant(float(value), degree)
            if not np.isfinite(value.coeffs).all():
                raise ArithmeticFailure(
                    "surface component x%d is not finite at (u, v) = (%g, %g)" % (i, u0, v0)
                )
            out.append(value)
    return out


# ---------------------------------------------------------------------------
# Unparsing (used by tests to check print/parse round-trips)
# ---------------------------------------------------------------------------

_PREC = {"expr": 0, "term": 1, "neg": 2, "pow": 3, "atom": 4}


def _node_prec(node):
    if node.kind == "binary":
        return _PREC["expr"] if node.name in "+-" else _PREC["term"]
    if node.kind == "neg":
        return _PREC["neg"]
    if node.kind == "pow":
        return _PREC["pow"]
    return _PREC["atom"]


def _unparse(node, parent_prec):
    prec = _node_prec(node)
    if node.kind == "num":
        text = repr(node.value)
    elif node.kind in ("var", "param"):
        text = node.name
    elif node.kind == "call":
        text = "%s(%s)" % (node.name, _unparse(node.children[0], 0))
    elif node.kind == "neg":
        text = "-%s" % _unparse(node.children[0], prec)
    elif node.kind == "pow":
        text = "%s^%d" % (_unparse(node.children[0], prec + 1), int(node.value))
    elif node.kind == "binary":
        left = _unparse(node.children[0], prec)
        # left associativity: right operand needs strictly higher binding
        right = _unparse(node.children[1], prec + 1)
        text = "%s %s %s" % (left, node.name, right)
    else:
        raise ValueError("bad node kind %r" % node.kind)
    return "(%s)" % text if prec < parent_prec else text


def unparse(spec):
    """Render a SurfaceSpec back to source text that reparses identically."""
    return "; ".join(_unparse(node, 0) for node in spec.components)


# ---------------------------------------------------------------------------
# Built-in homogeneous example surfaces
# ---------------------------------------------------------------------------

BUILTIN_SURFACES = {
    "h2": (
        "(3*cosh(u)^2*cosh(v)^2 - 1)/2;"
        " sqrt(3)*sinh(u)*cosh(u)*cosh(v)^2;"
        " sqrt(3)*cosh(u)*sinh(v)*cosh(v);"
        " 3/2*(cosh(v)^2*(cosh(u)^2 - 2) + 1);"
        " 3*sinh(u)*sinh(v)*cosh(v)"
    ),
    "sphere": (
        "(3*cos(u)^2*cos(v)^2 - 1)/2;"
        " sqrt(3)*sin(u)*cos(u)*cos(v)^2;"
        " sqrt(3)*cos(u)*sin(v)*cos(v);"
        " 3/2*(cos(v)^2*(2 - cos(u)^2) - 1);"
        " 3*sin(u)*sin(v)*cos(v)"
    ),
    "s21": (
        "(3*cos(u)^2*(cosh(2*v) + 1) - 2)/4;"
        " sqrt(6)/4*cos(u)*(sin(u)*(cosh(2*v) + 1) + sinh(2*v));"
        " -sqrt(6)/4*cos(u)*(sin(u)*(cosh(2*v) + 1) - sinh(2*v));"
        " -3/8*(cos(u)^2*(cosh(2*v) + 1) - 2*(cosh(2*v) + sin(u)*sinh(2*v)));"
        " -3/8*(cos(u)^2*(cosh(2*v) + 1) - 2*(cosh(2*v) - sin(u)*sinh(2*v)))"
    ),
}


def builtin_surface(name):
    """Parsed SurfaceSpec for a built-in model ("h2", "sphere" or "s21")."""
    try:
        text = BUILTIN_SURFACES[name]
    except KeyError:
        raise UnknownModel(
            "unknown surface %r (built-ins: %s)" % (name, ", ".join(sorted(BUILTIN_SURFACES)))
        ) from None
    return parse_surface(text, name=name)


def load_surface_file(path):
    """Read a surface from a text file.

    Lines may carry '#' comments; the first line with content after comment
    stripping is parsed as the surface.
    """
    with open(path) as fh:
        for line in fh:
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                name = os.path.splitext(os.path.basename(path))[0]
                return parse_surface(stripped, name=name)
    raise SurfaceSyntaxError("file contains no surface expression", 1, 1)


def resolve_surface(arg):
    """Turn a CLI --surface argument into a SurfaceSpec.

    Accepts a built-in name, a path to a surface file, or (when the string
    contains a semicolon) inline surface text.
    """
    if arg in BUILTIN_SURFACES:
        return builtin_surface(arg)
    if ";" in arg:
        return parse_surface(arg, name="inline")
    if os.path.exists(arg):
        return load_surface_file(arg)
    raise UnknownModel(
        "surface %r is not a built-in, not a file, and not inline text" % arg
    )
