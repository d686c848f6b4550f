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
Line and column are worked out only when there is an error to report.  The
loop is a one-pass compiler: it emits each operation's instruction as it
reduces it, numbering the values so that an equal subexpression is computed
once, and a :class:`SurfaceSpec` holds the resulting straight-line program.
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

import numpy as np

from . import taylor
from .errors import (
    ArithmeticFailure, ArityError, SurfaceSyntaxError, UnknownIdentifier, UnknownModel,
    point_error, raise_where,
)
from .taylor import TaylorScalar

__all__ = [
    "SurfaceSpec",
    "parse_surface",
    "eval_surface",
    "builtin_surface",
    "load_surface_file",
    "resolve_surface",
    "BUILTIN_SURFACES",
]


@dataclass(frozen=True)
class SurfaceSpec:
    """A parsed surface: its straight-line program plus parameter bindings.

    ``program`` is what :func:`eval_surface` runs: one (instructions,
    output slot) pair per coordinate expression.  The repr shows the source
    in its place.
    """

    program: tuple = field(repr=False)
    name: str = ""
    params: dict = field(default_factory=dict)
    source: str = ""


# ---------------------------------------------------------------------------
# The instructions of a program
#
# The instructions of component i are the operations it computes first, in
# the order the parse reduces them; each is (op, a, b) and appends
# op(values, a, b, degree) to the value list, which starts as
# [u, v, *params].  A value is a Python float where the subexpression has no
# u, v or parameter, and a coefficient vector otherwise, so each op does
# what the jet or float operator would.  Constant subexpressions are not
# folded: they run at evaluation time, so a bad one fails there as it would
# in a tree walk.
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

# A bad character: a one-character token that is not a symbol, an ASCII
# letter, "_" or a digit.
_BAD_CHAR_RE = re.compile(r"[^-+*/^();,A-Za-z_\d]")


def _error(text, at, message, cls=SurfaceSyntaxError):
    """The error to raise at token `at`: a bad character anywhere in the text
    is reported first, and a syntax error carries the token's position."""
    matches = list(_TOKEN_RE.finditer(text))
    for i, m in enumerate(matches):
        if _BAD_CHAR_RE.fullmatch(m.group()):
            at, message, cls = i, "unexpected character %r" % m.group(), SurfaceSyntaxError
            break
    if cls is not SurfaceSyntaxError:
        return cls(message)
    offset = matches[at].start() if at < len(matches) else len(text)
    line_start = text.rfind("\n", 0, offset) + 1
    return cls(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


# Binding strength of the token after an operand: + - and * / are binary
# operators, and anything else closes the expression, so it is weaker than
# both.  Unary minus binds tighter still, and open groups and calls are
# weakest.
_STRENGTH = {"+": 2, "-": 2, "*": 3, "/": 3}
_NEG = (4, "neg", None)


def _parse(text, param_names):
    """The program of a surface text: one (instructions, output slot) pair
    per component.

    One precedence-climbing loop over the flat token list, which emits the
    instructions of each operation as it reduces it.  An operand is the
    index of its value.  `pending` holds binary operators with their left
    operand, unary minus, and the open groups (with the index of their "(")
    and calls (with their arguments so far).  Values are numbered: an
    operation is keyed on its operator and its operands' indices, and a
    number on its bit pattern, because 0.0 == -0.0 but 1/0.0 != 1/-0.0.  A
    key seen before takes its value and emits nothing, so an equal
    subexpression is computed once, in the component where it first
    appears.  `neg(x)` and `-x` are two keys.

    A value is typed as a number or a jet when it is emitted.  An operation
    on a jet is a jet operation: a number operand of + or - is promoted to
    its constant jet first (once per number), and so is a component that is
    a number; a division by a jet multiplies by its reciprocal.

    A parenthesised group parses to the same value wherever it stands, so a
    group whose tokens repeat those of a group parsed before takes that
    group's value, and the loop skips its tokens: in a text of A.f, 20 of
    the 25 groups (f_j).  `groups` lists the parsed groups by the token
    after their "(".  A group that fails to parse is never listed, so an
    error is raised where the full parse raises it.
    """
    tokens = _TOKEN_RE.findall(text) + [""]
    index = {name: k for k, name in enumerate(["u", "v", *param_names])}  # a later name wins
    jet = [True] * (2 + len(param_names))  # per value: coefficient vector or number
    values = {}  # key of a number or an operation -> its value index
    promoted = {}  # index of a number -> index of its constant jet
    leaves = {}  # token -> the value of its number, coordinate or parameter
    groups = {}  # token after "(" -> [(tokens of a parsed group, its value)]
    pending = []
    code = []  # the instructions of the current component
    program = []

    def emit(op, a, b, is_jet):
        code.append((op, a, b))
        jet.append(is_jet)
        return len(jet) - 1

    def as_jet(k):
        if not jet[k] and k not in promoted:
            promoted[k] = emit(_constant_jet, k, None, True)
        return promoted.get(k, k)

    def binary(name, a, b):
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

    i = 0
    while True:
        # an operand: prefixes, then a number, a name or a group
        tok = tokens[i]
        i += 1
        k = leaves.get(tok)
        if k is None or tokens[i] == "(":
            if tok == "-":
                pending.append(_NEG)
                continue
            if tok == "(":  # a group: the value of an equal one parsed before, if any
                for seq, k in groups.get(tokens[i], ()):
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
                if tok not in index:
                    raise _error(text, 0, "unknown identifier %r" % tok, UnknownIdentifier)
                k = leaves[tok] = index[tok]
            else:
                try:
                    x = float(tok)
                except ValueError:
                    found = tok or "end of input"
                    message = "expected a number, name or '(', found %r" % found
                    raise _error(text, i - 1, message) from None
                key = struct.pack("<d", x)
                k = values.get(key)
                if k is None:
                    k = values[key] = emit(_literal, x, None, False)
                leaves[tok] = k
        # after an operand: "^" integer, then operators and closers
        while True:
            tok = tokens[i]
            if tok == "^":
                sign = -1 if tokens[i + 1] == "-" else 1
                i += 3 if sign < 0 else 2  # past "^", the sign and the digits
                tok = tokens[i - 1]
                if not tok.isdecimal():
                    raise _error(text, i - 1, "exponent must be an integer")
                a, n = k, sign * int(tok)
                k = values.get(("pow", n, a))
                if k is None:
                    k = values["pow", n, a] = emit(_jet_pow if jet[a] else _pow, a, n, jet[a])
                tok = tokens[i]
            while pending and pending[-1] is _NEG:
                pending.pop()
                a = k
                k = values.get(("neg", a))
                if k is None:
                    k = values["neg", a] = emit(_neg, a, None, jet[a])
            strength = _STRENGTH.get(tok, 1)
            while pending and pending[-1][0] >= strength:
                _, op, a = pending.pop()
                b = k
                k = values.get((op, a, b))
                if k is None:
                    k = values[op, a, b] = binary(op, a, b)
            i += 1
            if strength > 1:
                pending.append((strength, tok, k))
                break
            if pending:  # an open group or call
                _, name, args = pending[-1]
                if tok == "," and args is not None:
                    args.append(k)
                    break
                if tok != ")":
                    raise _error(text, i - 1, "expected ')', found %r" % (tok or "end of input"))
                pending.pop()
                if args is None:  # a group, which opened at token `name`
                    groups.setdefault(tokens[name + 1], []).append((tokens[name:i], k))
                    continue
                args.append(k)
                if name not in taylor.FUNCTIONS and name != "neg":
                    raise _error(text, 0, "unknown function %r" % name, UnknownIdentifier)
                if len(args) != 1:
                    message = "%s takes 1 argument, got %d" % (name, len(args))
                    raise _error(text, 0, message, ArityError)
                a = k
                k = values.get(("call", name, a))
                if k is None:
                    op, b = (_neg, None) if name == "neg" else (_jet_call if jet[a] else _call, name)
                    k = values["call", name, a] = emit(op, a, b, jet[a])
                continue
            out = as_jet(k)
            program.append((tuple(code), out))
            code.clear()
            if tok == ";":
                break
            if tok:
                raise _error(text, i - 1, "unexpected %r after expression" % tok)
            if len(program) != 5:
                message = "surface needs exactly 5 components, found %d" % len(program)
                raise _error(text, i - 1, message)
            return tuple(program)


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
    return SurfaceSpec(program=_parse(text, list(params)), name=name, params=params, source=text)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


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
