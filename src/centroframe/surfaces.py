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
``sin cos sinh cosh exp sqrt`` (``taylor.FUNCTIONS``) and ``neg``, or named
numeric parameters supplied at parse time.

Parsing is one regular-expression pass that splits the text into a flat
list of token strings, then one precedence-climbing loop over that list.
Line and column are worked out only when there is an error to report.  A
surface is compiled once: the parser hash-conses equal subtrees into one
node, so the five components form a DAG, and each :class:`SurfaceSpec`
turns that DAG into a straight-line program of shared subexpressions.
:func:`eval_surface` runs the program on the coefficient arrays of Taylor
jets (:mod:`centroframe.taylor`), computing each subexpression once for a
whole batch of base points, so every surface is automatically
differentiable to the chosen degree.
"""

import math
import os
import re
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import taylor
from .errors import (
    ArithmeticFailure, ArityError, SurfaceSyntaxError, UnknownIdentifier, UnknownModel,
    point_error, raise_where,
)
from .taylor import TaylorScalar

__all__ = [
    "ExprNode",
    "SurfaceSpec",
    "parse_surface",
    "eval_surface",
    "builtin_surface",
    "load_surface_file",
    "resolve_surface",
    "BUILTIN_SURFACES",
]

class ExprNode(NamedTuple):
    """Node of a parsed expression; a parse makes equal subtrees one node.

    kind is one of "num", "var", "param", "call", "binary", "neg", "pow";
    ``name`` carries the identifier or operator symbol, ``value`` the numeric
    literal or integer exponent, and ``children`` the operand nodes.  A
    named tuple, so that a parse builds its nodes at the cost of a tuple.
    """

    kind: str
    name: str = ""
    value: float = 0.0
    children: tuple = ()


@dataclass(frozen=True)
class SurfaceSpec:
    """Five parsed coordinate expressions plus parameter bindings.

    ``program`` is the straight-line form of the components that
    :func:`eval_surface` runs, compiled once here.
    """

    components: tuple
    name: str = ""
    params: dict = field(default_factory=dict)
    source: str = ""
    program: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "program", _compile(self.components, list(self.params)))


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

# The tokens of a surface: an operator symbol (tried first, as the most
# frequent), a number, a name, or any other character that is not blank (a
# bad character that the parse trips on).  \d admits every Unicode decimal
# digit, which float() reads.
_TOKEN_RE = re.compile(
    r"[-+*/^();,]"
    r"|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|[^ \t\r\n]"
)

# The positional scan: the same tokens with their kind, line and column, and
# an error at the first bad character.
_SCAN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^();,])"
    r"|(?P<newline>\n)"
    r"|[ \t\r]+"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _scan(text):
    tokens = []
    line, line_start = 1, 0
    for m in _SCAN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise SurfaceSyntaxError(
                "unexpected character %r" % m.group(), line, m.start() - line_start + 1
            )
        elif kind is not None:
            tokens.append((kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


def _error(text, at, message, cls=SurfaceSyntaxError):
    """The error to raise at token `at`: a bad character anywhere in the text
    is reported first, and a syntax error carries the token's position."""
    _, _, line, column = _scan(text)[at]
    return cls(message, line, column) if cls is SurfaceSyntaxError else cls(message)


# Binding strength of the token after an operand: + - and * / are binary
# operators, and anything else closes the expression, so it is weaker than
# both.  Unary minus binds tighter still, and open groups and calls are
# weakest.
_STRENGTH = {"+": 2, "-": 2, "*": 3, "/": 3}
_NEG = (4, "neg", None)

_node = tuple.__new__  # _node(ExprNode, fields): a node without NamedTuple's argument handling


def _parse(text, param_names):
    """The five component nodes of a surface text.

    One precedence-climbing loop over the flat token list.  `pending` holds
    binary operators with their left operand, unary minus, and the open
    groups (with the index of their "(") and calls (with their arguments so
    far).  Nodes are hash-consed: equal subtrees are one ExprNode, keyed on
    (kind, name, value, ids of the children), with a number keyed on its bit
    pattern because 0.0 == -0.0 but 1/0.0 != 1/-0.0.  So the five
    components form a DAG.

    A parenthesised group parses to the same node wherever it stands, so a
    group whose tokens repeat those of a group parsed before takes that
    group's node, and the loop skips its tokens: in a text of A.f, 20 of
    the 25 groups (f_j).  `groups` lists the parsed groups by the token
    after their "(".  A group that fails to parse is never listed, so an
    error is raised where the full parse raises it.
    """
    tokens = _TOKEN_RE.findall(text) + [""]
    nodes = {}
    leaves = {}  # token -> its number, coordinate or parameter node
    groups = {}  # token after "(" -> [(tokens of a parsed group, its node)]
    pending = []
    comps = []
    i = 0
    while True:
        # an operand: prefixes, then a number, a name or a group
        tok = tokens[i]
        i += 1
        node = leaves.get(tok)
        if node is None or tokens[i] == "(":
            if tok == "-":
                pending.append(_NEG)
                continue
            if tok == "(":  # a group: the node of an equal one parsed before, if any
                for seq, node in groups.get(tokens[i], ()):
                    if tokens[i - 1 : i - 1 + len(seq)] == seq:
                        i += len(seq) - 1
                        break
                else:
                    pending.append((0, i - 1, None))
                    continue
            elif tok.isidentifier() and tok.isascii():  # a non-ASCII letter is a bad character
                if tokens[i] == "(":
                    i += 1
                    pending.append((0, tok, []))
                    continue
                if tok != "u" and tok != "v" and tok not in param_names:
                    raise _error(text, 0, "unknown identifier %r" % tok, UnknownIdentifier)
                node = ExprNode("var" if tok == "u" or tok == "v" else "param", tok)
                node = leaves[tok] = nodes.setdefault((node.kind, tok, 0.0), node)
            else:
                try:
                    node = ExprNode("num", value=float(tok))
                except ValueError:
                    found = tok or "end of input"
                    message = "expected a number, name or '(', found %r" % found
                    raise _error(text, i - 1, message) from None
                key = ("num", "", struct.pack("<d", node.value))
                node = leaves[tok] = nodes.setdefault(key, node)
        # after an operand: "^" integer, then operators and closers
        while True:
            tok = tokens[i]
            if tok == "^":
                sign = -1 if tokens[i + 1] == "-" else 1
                i += 3 if sign < 0 else 2  # past "^", the sign and the digits
                tok = tokens[i - 1]
                if not tok.isdecimal():
                    raise _error(text, i - 1, "exponent must be an integer")
                key = ("pow", "", sign * int(tok), id(node))
                node = nodes.get(key) or nodes.setdefault(
                    key, _node(ExprNode, ("pow", "", key[2], (node,)))
                )
                tok = tokens[i]
            while pending and pending[-1] is _NEG:
                pending.pop()
                key = ("neg", "", 0.0, id(node))
                node = nodes.get(key) or nodes.setdefault(
                    key, _node(ExprNode, ("neg", "", 0.0, (node,)))
                )
            strength = _STRENGTH.get(tok, 1)
            while pending and pending[-1][0] >= strength:
                _, op, lhs = pending.pop()
                key = ("binary", op, 0.0, id(lhs), id(node))
                node = nodes.get(key) or nodes.setdefault(
                    key, _node(ExprNode, ("binary", op, 0.0, (lhs, node)))
                )
            i += 1
            if strength > 1:
                pending.append((strength, tok, node))
                break
            if pending:  # an open group or call
                _, name, args = pending[-1]
                if tok == "," and args is not None:
                    args.append(node)
                    break
                if tok != ")":
                    raise _error(text, i - 1, "expected ')', found %r" % (tok or "end of input"))
                pending.pop()
                if args is None:  # a group, which opened at token `name`
                    groups.setdefault(tokens[name + 1], []).append((tokens[name:i], node))
                    continue
                args.append(node)
                if name not in taylor.FUNCTIONS and name != "neg":
                    raise _error(text, 0, "unknown function %r" % name, UnknownIdentifier)
                if len(args) != 1:
                    message = "%s takes 1 argument, got %d" % (name, len(args))
                    raise _error(text, 0, message, ArityError)
                key = ("call", name, 0.0, id(node))
                node = nodes.get(key) or nodes.setdefault(
                    key, _node(ExprNode, ("call", name, 0.0, (node,)))
                )
                continue
            comps.append(node)
            if tok == ";":
                break
            if tok:
                raise _error(text, i - 1, "unexpected %r after expression" % tok)
            if len(comps) != 5:
                message = "surface needs exactly 5 components, found %d" % len(comps)
                raise _error(text, i - 1, message)
            return tuple(comps)


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
    comps = _parse(text, frozenset(params))
    return SurfaceSpec(components=comps, name=name, params=params, source=text)


# ---------------------------------------------------------------------------
# Compilation to a straight-line program, and evaluation
#
# A program is one (instructions, output slot) pair per component.  The
# instructions of component i are the nodes it reaches first, in depth-first
# post-order; each is (op, a, b) and appends op(values, a, b, degree) to the
# value list, which starts as [u, v, *params].  A value is a Python float
# where the subexpression has no u, v or parameter, and a coefficient vector
# otherwise, so each op does what the jet or float operator would.
# ---------------------------------------------------------------------------


def _literal(vals, a, b, degree):
    return a


def _constant_jet(vals, a, b, degree):
    return TaylorScalar.constant(float(vals[a]), degree).coeffs


def _neg(vals, a, b, degree):
    return -vals[a]


def _pow(vals, a, b, degree):
    return vals[a] ** b


def _jet_pow(vals, a, b, degree):
    return taylor.power(vals[a], b, degree)


def _call(vals, a, b, degree):
    return taylor.FUNCTIONS[b][0](vals[a])


def _jet_call(vals, a, b, degree):
    return taylor.apply(b, vals[a], degree)


def _add(vals, a, b, degree):
    return vals[a] + vals[b]


def _sub(vals, a, b, degree):
    return vals[a] - vals[b]


def _mul(vals, a, b, degree):  # numbers, or a jet (a) by a number (b)
    return vals[a] * vals[b]


def _div(vals, a, b, degree):  # numbers, or a jet (a) by a number (b)
    return vals[a] / vals[b]


def _jet_mul(vals, a, b, degree):
    return taylor.product(vals[a], vals[b], degree)


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _compile(components, param_names):
    """Straight-line program of a surface DAG; each node is computed once.

    Constant subexpressions are not folded: they run at evaluation time, so
    a bad one fails there as it would in a tree walk.
    """
    inputs = ["u", "v", *param_names]
    index = {name: k for k, name in enumerate(inputs)}  # a later name wins
    jet = [True] * len(inputs)  # per value: coefficient vector or number
    slots = {}  # id(node) -> value index
    promoted = {}  # index of a number -> index of its constant jet
    code = []

    def emit(op, a, b, is_jet):
        code.append((op, a, b))
        jet.append(is_jet)
        return len(jet) - 1

    def as_jet(k):
        if not jet[k] and k not in promoted:
            promoted[k] = emit(_constant_jet, k, None, True)
        return promoted.get(k, k)

    def visit(node):  # the value index of a node not visited before
        kind, name, value, children = node
        if kind == "num":
            return emit(_literal, value, None, False)
        if kind == "var" or kind == "param":
            return index[name]
        args = []
        for c in children:
            k = slots.get(id(c))
            if k is None:
                k = slots[id(c)] = visit(c)
            args.append(k)
        a = args[0]
        if kind == "neg" or (kind == "call" and name == "neg"):
            return emit(_neg, a, None, jet[a])
        if kind == "pow":
            return emit(_jet_pow if jet[a] else _pow, a, int(value), jet[a])
        if kind == "call":
            return emit(_jet_call if jet[a] else _call, a, name, jet[a])
        if kind != "binary":
            raise ValueError("bad node kind %r" % kind)
        b = args[1]
        if not (jet[a] or jet[b]):
            return emit(_BINARY[name], a, b, False)
        if name in "+-":  # a number operand becomes a constant jet
            return emit(_add if name == "+" else _sub, as_jet(a), as_jet(b), True)
        if name == "/":
            if not jet[b]:
                return emit(_div, a, b, True)
            b = emit(_jet_call, b, "reciprocal", True)  # jets divide as a * (1/b)
        if jet[a] and jet[b]:
            return emit(_jet_mul, a, b, True)
        return emit(_mul, a, b, True) if jet[a] else emit(_mul, b, a, True)

    program = []
    for node in components:
        k = slots.get(id(node))
        if k is None:
            k = slots[id(node)] = visit(node)
        out = as_jet(k)
        program.append((tuple(code), out))
        code.clear()
    return tuple(program)


def eval_surface(spec, u0, v0, degree):
    """Evaluate a surface spec to five jets about the base point (u0, v0).

    Runs the spec's compiled program: each shared subexpression is computed
    once, on coefficient arrays, and component i is checked as soon as its
    instructions have run.  `u0` and `v0` are floats, or arrays: 0-d for
    one point, 1-D for N base points run as one batch.

    Returns
    -------
    list of TaylorScalar, or ndarray
        The five coordinate jets, each of the requested degree; for arrays,
        their coefficients as one (5, n) array, or (N, 5, n) for a batch.

    Raises
    ------
    ArithmeticFailure
        If a component jet is not finite (an overflow or a division by zero
        in floating point, which numpy is not left to warn about), or if
        math fails at a jet's constant term or at a constant subexpression
        (cosh(800), 1/(2 - 2)), typed by `errors.point_error`.
    DomainError
        If a function is taken outside its real domain, of a jet or of a
        constant subexpression (sqrt(0 - 1), sin(1e308*10)).

    With a batch, a point's error comes as PointFailures; a constant
    subexpression that fails fails every point.
    """
    if degree < 1:
        raise ValueError("coordinate jets need degree >= 1")
    U, V = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    u, v = np.zeros((2,) + U.shape + (taylor.n_terms(degree),))
    u[..., 0], u[..., taylor.index_of(1, 0)] = U, 1.0
    v[..., 0], v[..., taylor.index_of(0, 1)] = V, 1.0
    vals = [u, v]
    vals += [TaylorScalar.constant(float(x), degree).coeffs for x in spec.params.values()]
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c, (code, k) in enumerate(spec.program):
            for op, a, b in code:
                try:
                    vals.append(op(vals, a, b, degree))
                except (ArithmeticError, ValueError) as exc:  # of a constant subexpression
                    error = point_error(exc, b, vals[a])  # a ValueError is math's, in _call
                    raise_where(np.ones(U.shape, dtype=bool), lambda i: error)
            x = vals[k] if vals[k].shape == u.shape else np.broadcast_to(vals[k], u.shape)
            if not math.isfinite(x.sum()):  # a finite sum has finite terms
                raise_where(~np.isfinite(x).all(axis=-1), lambda i: ArithmeticFailure(
                    "surface component x%d is not finite at (u, v) = (%g, %g)" % (c, U[i], V[i])))
            out.append(x)
    if isinstance(u0, np.ndarray):
        return taylor.stack(out, axis=-2)
    return [TaylorScalar(x) for x in out]


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
