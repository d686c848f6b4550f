"""Tests for the surface expression language and built-in models."""

import math
import operator
import random
import re
import struct
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centroframe import surfaces, taylor
from centroframe.errors import (
    ArithmeticFailure,
    ArityError,
    CentroframeError,
    DomainError,
    SurfaceSyntaxError,
    UnknownIdentifier,
    UnknownModel,
    ZeroConstantTerm,
)
from centroframe.surfaces import (
    BUILTIN_SURFACES,
    builtin_surface,
    eval_surface,
    load_surface_file,
    parse_surface,
    resolve_surface,
)
from centroframe.taylor import TaylorScalar, coordinate_jets

MODELS = ("h2", "sphere", "s21")
NULL_FIXTURE = "1 + u^2/2 + v^2/2; u; v; u^2/2; u*v"


def _eval_at(text, u0, v0, degree=2, params=None):
    spec = parse_surface(text, params=params)
    return eval_surface(spec, u0, v0, degree)


def test_basic_components_and_coefficients():
    jets = _eval_at("u; v; u*v; u^2 - v; 2", 2.0, 3.0)
    assert [j.const for j in jets] == [2.0, 3.0, 6.0, 1.0, 2.0]
    prod = jets[2]
    assert prod.coefficient(1, 0) == 3.0
    assert prod.coefficient(0, 1) == 2.0
    assert prod.coefficient(1, 1) == 1.0
    quad = jets[3]
    assert quad.coefficient(1, 0) == 4.0
    assert quad.coefficient(0, 1) == -1.0
    assert quad.coefficient(2, 0) == 1.0


def test_operator_precedence_and_associativity():
    jets = _eval_at("-u^2; 2*u^2; 1 - u - 3; 12/u/2; u^-1", 3.0, 0.0)
    assert jets[0].const == -9.0  # unary minus binds below ^
    assert jets[1].const == 18.0
    assert jets[2].const == -5.0  # left-assoc subtraction
    assert jets[3].const == 2.0  # left-assoc division
    assert jets[4].const == pytest.approx(1.0 / 3.0)


def test_functions_and_nesting():
    jets = _eval_at(
        "sin(u); cos(u)*exp(v); sqrt(1 + u^2); neg(v); sinh(cosh(v))", 0.5, -0.25, 3
    )
    assert jets[0].const == pytest.approx(math.sin(0.5))
    assert jets[1].const == pytest.approx(math.cos(0.5) * math.exp(-0.25))
    assert jets[2].const == pytest.approx(math.sqrt(1.25))
    assert jets[3].const == 0.25
    assert jets[4].const == pytest.approx(math.sinh(math.cosh(-0.25)))


def test_syntax_error_carries_position():
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("u; v; u @ v; u; v")
    assert err.value.line == 1
    assert err.value.column == 9
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("u; v;\n (u; u; v")
    assert err.value.line == 2
    with pytest.raises(SurfaceSyntaxError, match=r"^unexpected character '\$' \(line 3, column 3\)$"):
        parse_surface("u;\nv;\n1 $ 2;u;v")
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("u;\nv;\n1 + 2;u")
    assert (err.value.line, err.value.column) == (3, 8)  # end of input


def test_component_count_enforced():
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("u; v")
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("u; v; u; v; u; v")


def test_unknown_identifier_and_arity():
    with pytest.raises(UnknownIdentifier):
        parse_surface("u; v; w; u; v")
    with pytest.raises(UnknownIdentifier):
        parse_surface("foo(u); v; u; u; v")
    with pytest.raises(ArityError):
        parse_surface("sin(u, v); v; u; u; v")


def test_parameters_bind_and_missing_params_fail():
    jets = _eval_at("a*u; a; v; u; v", 2.0, 0.0, params={"a": 2.5})
    assert jets[0].const == 5.0
    assert jets[1].const == 2.5
    with pytest.raises(UnknownIdentifier):
        parse_surface("a*u; a; v; u; v")


def test_integer_exponent_required():
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("u^2.5; v; u; u; v")


def _h2_reference(u, v):
    return [
        (3 * math.cosh(u) ** 2 * math.cosh(v) ** 2 - 1) / 2,
        math.sqrt(3) * math.sinh(u) * math.cosh(u) * math.cosh(v) ** 2,
        math.sqrt(3) * math.cosh(u) * math.sinh(v) * math.cosh(v),
        1.5 * (math.cosh(v) ** 2 * (math.cosh(u) ** 2 - 2) + 1),
        3 * math.sinh(u) * math.sinh(v) * math.cosh(v),
    ]


def test_builtins_at_origin():
    for name in ("h2", "sphere", "s21"):
        jets = eval_surface(builtin_surface(name), 0.0, 0.0, 2)
        assert np.allclose([j.const for j in jets], [1, 0, 0, 0, 0], atol=1e-14)


def test_h2_matches_reference_values():
    rng = np.random.default_rng(3)
    spec = builtin_surface("h2")
    for _ in range(10):
        u0, v0 = rng.uniform(-1.5, 1.5, size=2)
        jets = eval_surface(spec, u0, v0, 2)
        assert np.allclose([j.const for j in jets], _h2_reference(u0, v0), atol=1e-12)


def test_builtin_jets_match_finite_differences():
    h = 1e-5
    spec = builtin_surface("s21")
    u0, v0 = 0.3, -0.4
    jets = eval_surface(spec, u0, v0, 3)
    plus = eval_surface(spec, u0 + h, v0, 1)
    minus = eval_surface(spec, u0 - h, v0, 1)
    for jet, p, m in zip(jets, plus, minus):
        fd = (p.const - m.const) / (2 * h)
        assert abs(jet.coefficient(1, 0) - fd) < 1e-6 * max(1.0, abs(fd))


def test_unknown_builtin_raises():
    with pytest.raises(UnknownModel):
        builtin_surface("torus")
    with pytest.raises(UnknownModel):
        resolve_surface("not_a_file_or_model")


def test_file_loading(tmp_path):
    path = tmp_path / "plane_like.surf"
    path.write_text("# a synthetic quadratic graph\n\n1 + u*v; u; v; u^2; v^2  # trailing\n")
    spec = load_surface_file(str(path))
    assert spec.name == "plane_like"
    jets = eval_surface(spec, 1.0, 2.0, 2)
    assert jets[0].const == 3.0
    via_resolve = resolve_surface(str(path))
    assert repr(via_resolve.program) == repr(spec.program)
    inline = resolve_surface("u; v; 1; u; v")
    assert inline.name == "inline"
    with pytest.raises(SurfaceSyntaxError):
        empty = tmp_path / "empty.surf"
        empty.write_text("# nothing here\n")
        load_surface_file(str(empty))


# ---------------------------------------------------------------------------
# The compiled program against a tree walk
# ---------------------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_PLAIN = {"sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
          "exp": math.exp, "sqrt": math.sqrt, "neg": operator.neg}


def _tree_walk(node, env):
    """Reference evaluator: recurse on every subtree, repeated or not."""
    if node.kind == "num":
        return node.value
    if node.kind in ("var", "param"):
        return env[node.name]
    args = [_tree_walk(c, env) for c in node.children]
    if node.kind == "neg":
        return -args[0]
    if node.kind == "pow":
        return args[0] ** int(node.value)
    if node.kind == "binary":
        return _BINARY[node.name](*args)
    x = args[0]
    if not isinstance(x, TaylorScalar):
        return _PLAIN[node.name](x)
    return -x if node.name == "neg" else TaylorScalar(taylor.apply(node.name, x.coeffs, x.degree))


def _reference_jets(spec, u0, v0, degree):
    u, v = coordinate_jets(u0, v0, degree)
    env = {"u": u, "v": v}
    for name, value in spec.params.items():
        env[name] = TaylorScalar.constant(float(value), degree)
    out = []
    for node in _reference_parse(spec.source, spec.params):
        x = _tree_walk(node, env)
        out.append(x if isinstance(x, TaylorScalar) else TaylorScalar.constant(float(x), degree))
    return out


def _gl5_images(count, bump=True, seed=11):
    """(text, u, v) of images A.f built like the point_queries benchmark's:
    f a built-in, A = s U diag(sigma) V^T with orthogonal U, V, sigma in
    [0.25, 4] and s in [0.1, 10], every other one with c*u^2*v^2 added to x0."""
    rng = np.random.default_rng(seed)
    comps = {m: [c.strip() for c in BUILTIN_SURFACES[m].split(";")] for m in MODELS}
    for k in range(count):
        f = comps[MODELS[k % 3]]
        U, V = (np.linalg.qr(rng.standard_normal((5, 5)))[0] for _ in range(2))
        sigma = np.exp(rng.uniform(math.log(0.25), math.log(4.0), 5))
        A = math.exp(rng.uniform(math.log(0.1), math.log(10.0))) * U @ np.diag(sigma) @ V.T
        rows = [" + ".join("%r*(%s)" % (float(A[i, j]), f[j]) for j in range(5)) for i in range(5)]
        if bump and k % 2:
            rows[0] += " + %r*u^2*v^2" % float(rng.uniform(-0.05, 0.05))
        u, v = rng.uniform(-1.0, 1.0, 2)
        yield "; ".join(rows), float(u), float(v)


_CASES = (
    [(BUILTIN_SURFACES[m], None, 0.4, -0.3) for m in MODELS]
    + [(text, None, u, v) for text, u, v in _gl5_images(20)]
    + [
        (NULL_FIXTURE, None, 0.3, 0.2),
        ("a*u + b; a/(1 + u^2) - b; 2 - a*v; (u - b)^-2 + 1/a; -u + 3*b*sinh(a*v)",
         {"a": 1.5, "b": -0.25}, 0.6, -0.1),
    ]
)


_CASE_IDS = list(MODELS) + ["gl5-%d" % k for k in range(20)] + ["null", "params"]


@pytest.mark.parametrize("text, params, u0, v0", _CASES, ids=_CASE_IDS)
def test_program_matches_tree_walk_bitwise(text, params, u0, v0):
    spec = parse_surface(text, params=params)
    for degree in (1, 3, 5, 7):
        got = eval_surface(spec, u0, v0, degree)
        ref = _reference_jets(spec, u0, v0, degree)
        assert [j.degree for j in got] == [degree] * 5
        for a, b in zip(got, ref):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.coeffs.tobytes() == b.coeffs.tobytes()  # signs of zeros too


def _definitions(program, n_inputs):
    """Value slot -> its (op, a, b) instruction, over every component."""
    code = [instr for component, _ in program for instr in component]
    return dict(enumerate(code, start=n_inputs))


def _symbolic(program, inputs):
    """The value of every slot of a program as an expression tree of op
    names, literals and input names."""
    vals = list(inputs)
    for op, a, b in (instr for code, _ in program for instr in code):
        if op is surfaces._literal:
            vals.append(a)
        elif op in surfaces._BINARY.values() or op is surfaces._jet_mul:
            vals.append((op.__name__, vals[a], vals[b]))
        else:
            vals.append((op.__name__, vals[a], b))
    return vals


_COEFFICIENT = (surfaces._literal, surfaces._neg)  # the ops of a number c or -c


def test_gl5_image_shares_source_components():
    text = next(_gl5_images(1, bump=False))[0]
    program = parse_surface(text).program
    defs = _definitions(program, 2)
    rows = []
    for _, k in program:  # row i: A[i, 0]*(f_0) + ... + A[i, 4]*(f_4)
        summands = []
        while defs[k][0] is surfaces._add:
            _, k, last = defs[k]
            summands.append(last)
        products = [defs[m] for m in [k] + summands[::-1]]
        assert all(op is surfaces._mul and defs[b][0] in _COEFFICIENT for op, _, b in products)
        rows.append([a for _, a, _ in products])  # the slots of (f_0) ... (f_4)
    assert all(row == rows[0] for row in rows)
    # the groups are computed in row 0; each later row is its coefficients,
    # 5 products and 4 sums
    first_of_row1 = 2 + len(program[0][0])
    assert all(k < first_of_row1 for k in rows[0])
    for code, _ in program[1:]:
        ops = Counter(op for op, _, _ in code)
        assert (ops.pop(surfaces._mul), ops.pop(surfaces._add)) == (5, 4)
        assert ops.keys() <= set(_COEFFICIENT)
    source = builtin_surface(MODELS[0]).program
    want = _symbolic(source, ["u", "v"])
    got = _symbolic(program, ["u", "v"])
    assert [got[k] for k in rows[0]] == [want[k] for _, k in source]


def test_errors_are_raised_in_component_order():
    x0_overflows = "u/0; v; sqrt(u - 2); u; v"
    with pytest.raises(ArithmeticFailure, match="x0"):
        eval_surface(parse_surface(x0_overflows), 0.4, -0.3, 3)
    with pytest.raises(DomainError):
        eval_surface(parse_surface("sqrt(u - 2); v; u/0; u; v"), 0.4, -0.3, 3)
    with pytest.raises(ZeroConstantTerm):
        eval_surface(parse_surface("u; 1/(u - u); u/0; u; v"), 0.4, -0.3, 3)
    # constant subexpressions are not folded: a bad one fails when evaluated
    spec = parse_surface("u; v; 1/(2 - 2) + u; u; v")
    with pytest.raises(ArithmeticFailure, match="ZeroDivisionError"):
        eval_surface(spec, 0.4, -0.3, 3)


@pytest.mark.parametrize("bad", ["sqrt(0-1)", "sin(1e308*10)"])
def test_constant_outside_domain_is_domain_error(bad):
    # math raises ValueError on these constants; eval reports DomainError
    spec = parse_surface("u; v; %s + u; u*v; v^2" % bad)
    with pytest.raises(DomainError, match="outside its real domain"):
        eval_surface(spec, 0.5, 0.5, 5)


# ---------------------------------------------------------------------------
# The parser against a reference: a recursive-descent parse to a DAG, and a
# compile of that DAG to a program
# ---------------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^();,])"
    r"|(?P<newline>\n)"
    r"|[ \t\r]+"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _REF_TOKEN_RE.finditer(text):
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


class _Node(NamedTuple):
    """Node of a reference parse: kind is one of "num", "var", "param",
    "call", "binary", "neg", "pow"; `name` carries the identifier or operator
    symbol, `value` the numeric literal or integer exponent."""

    kind: str
    name: str = ""
    value: float = 0.0
    children: tuple = ()


class _Parser:
    """Reference: recursive descent over positional tokens, hash-consed, so
    equal subtrees are one node and the five components form a DAG."""

    def __init__(self, text, param_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.param_names = param_names
        self.nodes = {}

    def node(self, kind, name="", value=0.0, children=()):
        key = (kind, name, struct.pack("<d", value) if kind == "num" else value)
        key += tuple(id(c) for c in children)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = _Node(kind, name, value, children)
        return node

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
            node = self.node("binary", op, children=(node, self.parse_term()))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            op = self.next()[1]
            node = self.node("binary", op, children=(node, self.parse_factor()))
        return node

    def parse_factor(self):
        if self.at_sym("-"):
            self.next()
            return self.node("neg", children=(self.parse_factor(),))
        node = self.parse_base()
        if self.at_sym("^"):
            self.next()
            node = self.node("pow", value=self.parse_integer(), children=(node,))
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
            return self.node("num", value=float(value))
        if kind == "ident":
            if self.at_sym("("):
                self.next()
                args = [self.parse_expr()]
                while self.at_sym(","):
                    self.next()
                    args.append(self.parse_expr())
                self.expect_sym(")")
                if value not in _PLAIN:
                    raise UnknownIdentifier("unknown function %r" % value)
                if len(args) != 1:
                    raise ArityError("%s takes 1 argument, got %d" % (value, len(args)))
                return self.node("call", value, children=tuple(args))
            if value in ("u", "v"):
                return self.node("var", value)
            if value in self.param_names:
                return self.node("param", value)
            raise UnknownIdentifier("unknown identifier %r" % value)
        if kind == "sym" and value == "(":
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        raise SurfaceSyntaxError(
            "expected a number, name or '(', found %r" % (value or "end of input"), line, col
        )


def _compile(components, param_names):
    """Reference compiler: the straight-line program of a DAG, each node
    computed once, in depth-first post-order."""
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
            promoted[k] = emit(surfaces._constant_jet, k, None, True)
        return promoted.get(k, k)

    def visit(node):  # the value index of a node not visited before
        kind, name, value, children = node
        if kind == "num":
            return emit(surfaces._literal, value, None, False)
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
            return emit(surfaces._neg, a, None, jet[a])
        if kind == "pow":
            return emit(surfaces._jet_pow if jet[a] else surfaces._pow, a, int(value), jet[a])
        if kind == "call":
            return emit(surfaces._jet_call if jet[a] else surfaces._call, a, name, jet[a])
        assert kind == "binary", kind
        b = args[1]
        if not (jet[a] or jet[b]):
            return emit(surfaces._BINARY[name], a, b, False)
        if name in "+-":  # a number operand becomes a constant jet
            return emit(surfaces._BINARY[name], as_jet(a), as_jet(b), True)
        if name == "/":
            if not jet[b]:
                return emit(surfaces._div, a, b, True)
            b = emit(surfaces._jet_call, b, "reciprocal", True)  # jets divide as a * (1/b)
        if jet[a] and jet[b]:
            return emit(surfaces._jet_mul, a, b, True)
        return emit(surfaces._mul, a, b, True) if jet[a] else emit(surfaces._mul, b, a, True)

    program = []
    for node in components:
        k = slots.get(id(node))
        if k is None:
            k = slots[id(node)] = visit(node)
        out = as_jet(k)
        program.append((tuple(code), out))
        code.clear()
    return tuple(program)


def _outcome(parse, text, params):
    """The parse's result, or the error's type, message, line and column."""
    try:
        return "ok", parse(text, params)
    except CentroframeError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _reference_parse(text, params):
    return _Parser(text, frozenset(params)).parse_surface()


def _reference_program(text, params):
    """repr of the reference compile of the reference parse."""
    return repr(_compile(_reference_parse(text, params), list(params)))


def _parse_program(text, params):
    return repr(parse_surface(text, params=params).program)


# Pieces of fuzz strings: well-formed fragments and the inputs where a flat
# tokenizer most easily parts from the positional one.
_FUZZ_PIECES = (
    "u", "v", "a", "x", "_b1", "e", "e5", "sin", "cosh", "sqrt", "neg", "foo",
    "0", "1", "2", "3", "10", "2.5", "0.0", "-0.0", "1e3", "1E-2", "2.", ".5", ".5e", "1e",
    "1e+", ".", "..", "1.2.3", "+", "-", "*", "/", "^", "^-", "(", ")", ",", ";", ";",
    " ", "  ", "\t", "\r", "\n", "\f", "\v", "$", "#", "é", "π", "٣", "١", "١.٥",
    "２", "\u3000", "（", "x^2.0", "x^-3", "u^-3", "u^2", "u^0", "^2", "^(2)", "sin(u, v)", "(u)", "foo(u)", "u(v)",
)


def _fuzz_expr(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.35:
        return rng.choice(["u", "v", "a", "1", "2.5", "3", ".5", "0.0"])
    if r < 0.55:
        return "%s %s %s" % (_fuzz_expr(rng, depth + 1), rng.choice("+-*/"),
                             _fuzz_expr(rng, depth + 1))
    if r < 0.65:
        return "-" + _fuzz_expr(rng, depth + 1)
    if r < 0.75:
        return "(%s)^%s" % (_fuzz_expr(rng, depth + 1), rng.choice(["2", "-1", "0", "3"]))
    if r < 0.9:
        return "%s(%s)" % (rng.choice(["sin", "cosh", "exp", "sqrt", "neg"]),
                           _fuzz_expr(rng, depth + 1))
    return "(%s)" % _fuzz_expr(rng, depth + 1)


def _fuzz_strings(count, seed=19):
    """Seeded strings: surfaces with a few pieces inserted, replaced or
    deleted, and strings of pieces alone."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.6:
            parts = list(re.split(r"(\W)", "; ".join(_fuzz_expr(rng) for _ in range(5))))
            for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                k = rng.randrange(len(parts) + 1)
                action = rng.random()
                if action < 0.4:
                    parts.insert(k, rng.choice(_FUZZ_PIECES))
                elif action < 0.7 and k < len(parts):
                    parts[k] = rng.choice(_FUZZ_PIECES)
                elif k < len(parts):
                    del parts[k]
            text = "".join(parts)
        else:
            text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(1, 30)))
        yield text, ({"a": 1.5} if rng.random() < 0.7 else {})


def test_parser_matches_recursive_descent_on_fuzz():
    outcomes = Counter()
    for text, params in _fuzz_strings(20000):
        want = _outcome(_reference_program, text, params)
        got = _outcome(_parse_program, text, params)
        assert got == want, (text, params)
        outcomes["ok" if want[0] == "ok" else want[1].split(" ")[0]] += 1
    # the battery reaches every error of the grammar, and valid surfaces
    assert outcomes["ok"] >= 2000
    assert outcomes.keys() >= {"unexpected", "expected", "exponent", "surface", "unknown", "sin"}


@pytest.mark.parametrize("text, params, ok", [
    ("u + ١.٥; v; u; v; u*v", {}, True),
    ("é; u; v; u; v", {"é": 1.0}, False),
    ("u; v;\u3000u; v; u*v", {}, False),
    ("（u); v; u; v; u*v", {}, False),
])
def test_non_ascii_text_parses_as_the_reference(text, params, ok):
    # a Unicode digit is a digit; a non-ASCII letter, even one named as a
    # parameter, a non-ASCII blank and a non-ASCII bracket are bad characters
    want = _outcome(_reference_program, text, params)
    assert _outcome(_parse_program, text, params) == want
    assert want[0] == "ok" if ok else want[0] is SurfaceSyntaxError


def test_parser_compiles_gl5_images_to_the_reference_program():
    for text, _, _ in _gl5_images(200, seed=19):
        assert _parse_program(text, {}) == _reference_program(text, {})


# ---------------------------------------------------------------------------
# Group reuse: a parse takes the node of a group it has parsed before
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from(["u", "v", "a", "1", "2.5", "3", ".5", "0.0", "1e-3"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        inner.map("-{}".format),
        st.tuples(inner, st.sampled_from(["2", "-1", "0", "3"])).map(lambda t: "(%s)^%s" % t),
        st.tuples(st.sampled_from(["sin", "cosh", "exp", "sqrt", "neg"]), inner).map(lambda t: "%s(%s)" % t),
        inner.map("({})".format),
    )


_EXPRS = st.recursive(_LEAVES, _compound, max_leaves=10)
_COEFFS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _image_texts(draw):
    """A.f as point_queries writes it: every (f_j) group appears five times."""
    f = draw(st.lists(_EXPRS, min_size=5, max_size=5))
    A = draw(st.lists(_COEFFS, min_size=25, max_size=25))
    return "; ".join(" + ".join("%r*(%s)" % (A[5 * i + j], f[j]) for j in range(5)) for i in range(5))


@st.composite
def _substituted_texts(draw):
    """A surface with parenthesised expressions put in for u and v."""
    base = draw(st.sampled_from(sorted(BUILTIN_SURFACES.values()))
                | st.lists(_EXPRS, min_size=5, max_size=5).map("; ".join))
    p, q = draw(_EXPRS), draw(_EXPRS)
    return re.sub(r"\b[uv]\b", lambda m: "(%s)" % (p if m.group() == "u" else q), base)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_image_texts(), _substituted_texts()))
def test_group_reuse_keeps_components_sharing_and_program(text):
    # a program names the value slots each instruction reads, so equal
    # programs share their values alike
    params = {"a": 1.5}
    assert _outcome(_parse_program, text, params) == _outcome(_reference_program, text, params)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRS, st.data())
def test_a_bad_repeated_group_fails_as_the_full_parse(expr, data):
    # every group repeats; one piece of the text is inserted, replaced or
    # deleted, in a first occurrence or a later one
    pieces = re.split(r"(\W)", "; ".join("%d*(%s) + (%s)" % (k, expr, expr) for k in range(5)))
    k = data.draw(st.integers(0, len(pieces) - 1))
    action = data.draw(st.sampled_from(["insert", "replace", "delete"]))
    if action == "delete":
        del pieces[k]
    else:
        pieces[k : k + (action == "replace")] = [data.draw(st.sampled_from(_FUZZ_PIECES))]
    text = "".join(pieces)
    params = {"a": 1.5}
    assert _outcome(_parse_program, text, params) == _outcome(_reference_program, text, params)
