"""The vector tape of ``lambdify``, the scalar code of ``lambdify_ode``,
the printer, the rules the constructors apply, the constant folds, the
loops of ``diff`` and ``subst``, the parser and ``wcalc``'s ring builder
against the code they replaced: a generated-source vector compiler, the
scalar compiler's own forward walk, a recursive printer, the recursive
interpreter that once evaluated a tree at a point, the recursive
simplifier, the recursive walkers of the two passes, a parser that
tokenized the whole text first and a builder that made a Const node of
every number, all kept here verbatim as references.  The simplifier runs
on raw trees, nested tuples that no constructor has seen, so it does not
build through the rules it checks.  The tape and the scalar code must give
the same bits, the printer the same text, a fold the same constant where
the interpreter gave a finite value and none elsewhere, the constructors
the tree the reference simplifier makes of a raw one, each pass and the
builder the very node the reference gave, and the parser the same node or
the same error at the same offset."""

import builtins
import dataclasses
import json
import math
import operator
import re
import tracemalloc
from itertools import groupby
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdplin import colehopf, expr, lienard, wcalc
from vdplin.colehopf import (bundle_from_json, bundle_to_json, solve_chain,
                             verify_printed_coeffs)
from vdplin.cli import run as cli_run
from vdplin.expr import (FUNCTIONS, ONE, ZERO, _SCALAR_NS, Add, Const, Div,
                         Expr, Fun, Mul, Neg, Param, ParseError, Pow, Sub,
                         UnboundParameterError, Var, X, _postorder,
                         _pow_scalar, diff, free_params, lambdify,
                         lambdify_ode, parse, parser, subst, to_str)
from vdplin.lienard import lienard_coeffs, riccati_u

from conftest import general_instances, vdp_coefficients
from test_acceptance import CRITERION_8_INVOCATIONS

# ---------------------------------------------------------------------------
# references


def _ref_vectorized(fn):
    def vector_fn(xs):
        arr = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(arr)
        if np.ndim(out) == 0:
            out = np.full(arr.shape, float(out))
        return out

    return vector_fn


_REF_VECTOR_NS = {
    "_exp": np.exp, "_log": np.log, "_sin": np.sin, "_cos": np.cos,
    "_tan": np.tan, "_sinh": np.sinh, "_cosh": np.cosh, "_sqrt": np.sqrt,
    "_pow": np.power,
}


def ref_lambdify(e, env=None):
    """The vector compiler as it was: Python source with constants inlined
    as float literals, one assignment per distinct node, ``compile`` and
    ``exec``."""
    if env:
        e = subst(e, env)
    missing = free_params(e)
    if missing:
        raise UnboundParameterError(sorted(missing)[0])

    lines = []
    tokens = {}
    counter = [0]

    def tok(node):
        key = id(node)
        if key in tokens:
            return tokens[key]
        if isinstance(node, Const):
            t = repr(node.value)
        elif isinstance(node, Var):
            t = "x"
        else:
            t = _emit(node)
        tokens[key] = t
        return t

    def _emit(node):
        if isinstance(node, Neg):
            rhs = f"-({tok(node.arg)})"
        elif isinstance(node, Add):
            rhs = f"({tok(node.left)}) + ({tok(node.right)})"
        elif isinstance(node, Sub):
            rhs = f"({tok(node.left)}) - ({tok(node.right)})"
        elif isinstance(node, Mul):
            rhs = f"({tok(node.left)}) * ({tok(node.right)})"
        elif isinstance(node, Div):
            rhs = f"({tok(node.left)}) / ({tok(node.right)})"
        elif isinstance(node, Pow):
            ex = node.exponent
            if isinstance(ex, Const) and float(ex.value).is_integer():
                rhs = f"({tok(node.base)}) ** ({int(ex.value)})"
            else:
                rhs = f"_pow({tok(node.base)}, {tok(ex)})"
        elif isinstance(node, Fun):
            rhs = f"_{node.name}({tok(node.arg)})"
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        counter[0] += 1
        name = f"v{counter[0]}"
        lines.append(f"    {name} = {rhs}")
        return name

    order = []
    seen = set()
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, Neg):
            stack.append((node.arg, False))
        elif isinstance(node, Fun):
            stack.append((node.arg, False))
        elif isinstance(node, Pow):
            stack.append((node.exponent, False))
            stack.append((node.base, False))
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append((node.right, False))
            stack.append((node.left, False))
    for node in order:
        tok(node)

    code = "def _compiled(x):\n" + "\n".join(lines) + f"\n    return {tok(e)}\n"
    ns = dict(_REF_VECTOR_NS)
    exec(compile(code, "<lambdify>", "exec"), ns)
    return _ref_vectorized(ns.pop("_compiled"))


def ref_scalar_code(order, args=(), results=()):
    """The scalar compiler as it was: a forward walk that gives each node a
    token in a table keyed by ``id(node)``, with its own dispatch over the
    node types."""
    lines: list[str] = []
    tokens: dict[int, str] = {}
    ns = dict(_SCALAR_NS)
    params = [Param(name) for name in args]  # alive while ids are keys
    for i, node in enumerate(params):
        tokens[id(node)] = f"a{i}"
    if params:
        lines.append("    " + "".join(f"a{i}, " for i in range(len(params)))
                     + "= args")

    def tok(node: Expr) -> str:
        return tokens[id(node)]

    for node in order:
        if id(node) in tokens:
            continue
        if isinstance(node, Const):
            tokens[id(node)] = name = f"c{len(ns)}"
            ns[name] = node.value
            continue
        if isinstance(node, Var):
            tokens[id(node)] = "x"
            continue
        if isinstance(node, Neg):
            rhs = f"-({tok(node.arg)})"
        elif isinstance(node, Add):
            rhs = f"({tok(node.left)}) + ({tok(node.right)})"
        elif isinstance(node, Sub):
            rhs = f"({tok(node.left)}) - ({tok(node.right)})"
        elif isinstance(node, Mul):
            rhs = f"({tok(node.left)}) * ({tok(node.right)})"
        elif isinstance(node, Div):
            rhs = f"({tok(node.left)}) / ({tok(node.right)})"
        elif isinstance(node, Pow):
            ex = node.exponent
            if isinstance(ex, Const) and float(ex.value).is_integer():
                rhs = f"({tok(node.base)}) ** ({int(ex.value)})"
            else:
                rhs = f"_pow({tok(node.base)}, {tok(ex)})"
        elif isinstance(node, Fun):
            rhs = f"_{node.name}({tok(node.arg)})"
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        name = f"v{len(lines) + 1}"
        lines.append(f"    {name} = {rhs}")
        tokens[id(node)] = name

    out = (f"({', '.join(map(tok, results))},)" if results
           else tok(order[-1]))
    code = (f"def _compiled(x{', args' if params else ''}):\n"
            + "\n".join(lines) + f"\n    return {out}\n")
    exec(compile(code, "<lambdify>", "exec"), ns)
    return ns.pop("_compiled")  # so fn and its globals form no cycle


class RefDomainError(ArithmeticError):
    """What ``ref_eval`` raises where evaluation leaves the real domain or
    overflows; its args are the message, the node and the x."""


def ref_eval(e, x, env=None):
    """The interpreter as it was: a recursion over the tree that raises
    RefDomainError at the first node giving inf or leaving the domain."""
    return _ref_eval(e, float(x), env or {}, {})


def _ref_eval(node, x, env, memo):
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, Const):
        val = node.value
    elif isinstance(node, Var):
        val = x
    elif isinstance(node, Param):
        if node.name not in env:
            raise UnboundParameterError(node.name)
        val = float(env[node.name])
    elif isinstance(node, Neg):
        val = -_ref_eval(node.arg, x, env, memo)
    elif isinstance(node, Add):
        val = _ref_eval(node.left, x, env, memo) + _ref_eval(node.right, x, env, memo)
    elif isinstance(node, Sub):
        val = _ref_eval(node.left, x, env, memo) - _ref_eval(node.right, x, env, memo)
    elif isinstance(node, Mul):
        val = _ref_eval(node.left, x, env, memo) * _ref_eval(node.right, x, env, memo)
    elif isinstance(node, Div):
        den = _ref_eval(node.right, x, env, memo)
        if den == 0.0:
            raise RefDomainError("division by zero", node, x)
        val = _ref_eval(node.left, x, env, memo) / den
    elif isinstance(node, Pow):
        val = _ref_eval_pow(node, x, env, memo)
    elif isinstance(node, Fun):
        val = _ref_eval_fun(node, x, env, memo)
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if isinstance(val, float) and math.isinf(val):
        raise RefDomainError("overflow", node, x)
    memo[key] = val
    return val


def _ref_eval_pow(node, x, env, memo):
    base = _ref_eval(node.base, x, env, memo)
    expo = _ref_eval(node.exponent, x, env, memo)
    if float(expo).is_integer():
        n = int(expo)
        if base == 0.0 and n < 0:
            raise RefDomainError("zero raised to a negative power", node, x)
        try:
            return float(base ** n)
        except OverflowError:
            raise RefDomainError("overflow", node, x) from None
    if base > 0.0:
        try:
            return math.exp(expo * math.log(base))
        except OverflowError:
            raise RefDomainError("overflow", node, x) from None
    if base == 0.0 and expo > 0.0:
        return 0.0
    raise RefDomainError("fractional power of a nonpositive base", node, x)


def _ref_eval_fun(node, x, env, memo):
    a = _ref_eval(node.arg, x, env, memo)
    try:
        if node.name == "exp":
            return math.exp(a)
        if node.name == "log":
            if a <= 0.0:
                raise RefDomainError("log of a nonpositive value", node, x)
            return math.log(a)
        if node.name == "sqrt":
            if a < 0.0:
                raise RefDomainError("sqrt of a negative value", node, x)
            return math.sqrt(a)
        return getattr(math, node.name)(a)
    except OverflowError:
        raise RefDomainError("overflow", node, x) from None


def ref_print(node, ctx=0):
    """The printer as it was: a plain recursion, one visit per use."""
    P = expr
    if isinstance(node, Const):
        s = P._fmt_number(node.value)
    elif isinstance(node, Var):
        s = "x"
    elif isinstance(node, Param):
        s = node.name
    elif isinstance(node, Fun):
        s = f"{node.name}({ref_print(node.arg, 0)})"
    elif isinstance(node, Neg):
        s = "-" + ref_print(node.arg, P._PREC_NEG)
    elif isinstance(node, Add):
        s = (ref_print(node.left, P._PREC_ADD) + "+"
             + ref_print(node.right, P._PREC_ADD + 1))
    elif isinstance(node, Sub):
        s = (ref_print(node.left, P._PREC_ADD) + "-"
             + ref_print(node.right, P._PREC_ADD + 1))
    elif isinstance(node, Mul):
        s = (ref_print(node.left, P._PREC_MUL) + "*"
             + ref_print(node.right, P._PREC_MUL + 1))
    elif isinstance(node, Div):
        s = (ref_print(node.left, P._PREC_MUL) + "/"
             + ref_print(node.right, P._PREC_MUL + 1))
    elif isinstance(node, Pow):
        s = (ref_print(node.base, P._PREC_POW + 1) + "^"
             + ref_print(node.exponent, P._PREC_NEG))
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if P._prec(node) < ctx:
        return "(" + s + ")"
    return s


def ref_diff(e):
    """Differentiation as it was: a recursion over the tree, memoized by
    node id, building through the constructors, which simplify each node
    as they make it."""
    return _diff(e, {})


def _diff(node: Expr, memo: dict) -> Expr:
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, (Const, Param)):
        d = ZERO
    elif isinstance(node, Var):
        d = ONE
    elif isinstance(node, Neg):
        d = Neg(_diff(node.arg, memo))
    elif isinstance(node, Add):
        d = Add(_diff(node.left, memo), _diff(node.right, memo))
    elif isinstance(node, Sub):
        d = Sub(_diff(node.left, memo), _diff(node.right, memo))
    elif isinstance(node, Mul):
        d = Add(Mul(_diff(node.left, memo), node.right),
                Mul(node.left, _diff(node.right, memo)))
    elif isinstance(node, Div):
        d = Div(Sub(Mul(_diff(node.left, memo), node.right),
                    Mul(node.left, _diff(node.right, memo))),
                Pow(node.right, Const(2.0)))
    elif isinstance(node, Pow):
        d = _diff_pow(node, memo)
    elif isinstance(node, Fun):
        d = _diff_fun(node, memo)
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    memo[key] = d
    return d


def _diff_pow(node: Pow, memo: dict) -> Expr:
    base, expo = node.base, node.exponent
    db = _diff(base, memo)
    if isinstance(expo, Const) and float(expo.value).is_integer():
        n = expo.value
        if n == 0.0:
            return ZERO
        return Mul(Mul(Const(n), Pow(base, Const(n - 1.0))), db)
    # general case via b^e = exp(e log b); domain restricted to b > 0
    de = _diff(expo, memo)
    return Mul(node, Add(Mul(de, Fun("log", base)), Div(Mul(expo, db), base)))


def _diff_fun(node: Fun, memo: dict) -> Expr:
    a = node.arg
    da = _diff(a, memo)
    if node.name == "exp":
        return Mul(node, da)
    if node.name == "log":
        return Div(da, a)
    if node.name == "sin":
        return Mul(Fun("cos", a), da)
    if node.name == "cos":
        return Neg(Mul(Fun("sin", a), da))
    if node.name == "tan":
        return Mul(Add(ONE, Pow(node, Const(2.0))), da)
    if node.name == "sinh":
        return Mul(Fun("cosh", a), da)
    if node.name == "cosh":
        return Mul(Fun("sinh", a), da)
    if node.name == "sqrt":
        return Div(da, Mul(Const(2.0), node))
    raise TypeError(f"unknown function {node.name!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# raw trees: a node class and its fields as a nested tuple, (Const, v),
# (Var,), (Param, name), (Neg, a), (Fun, name, a), (Pow, base, exponent),
# (Add, left, right) and so on; no Expr, so no rule has seen one

_LEAVES = (Const, Var, Param)


def build(t: tuple) -> Expr:
    """t through the constructors, which simplify each node they make."""
    return _make(t, lambda cls, *args: cls(*args), {})


def raw(t: tuple) -> Expr:
    """t as nodes no rule has seen: made by ``type.__call__``, past the
    intern table, over interned leaves.  Each is shared with no other
    tree, and ``ref_eval``, ``ref_print`` and ``lambdify`` read it as they
    read any node."""
    return _make(t, type.__call__, {})


def _make(t: tuple, make, memo: dict) -> Expr:
    key = id(t)
    if key not in memo:
        cls, *args = t
        args = [_make(a, make, memo) if type(a) is tuple else a
                for a in args]
        memo[key] = cls(*args) if cls in _LEAVES else make(cls, *args)
    return memo[key]


def fields(e: Expr) -> tuple:
    """The raw tree of e's nodes."""
    out: dict[Expr, tuple] = {}
    for node in _postorder(e):
        out[node] = (type(node), *(
            out[v] if isinstance(v, Expr) else v
            for v in (getattr(node, f.name)
                      for f in dataclasses.fields(node))))
    return out[e]


def same_tree(a: tuple, b: tuple) -> bool:
    """Raw trees equal field by field, constants by their bits: the repr
    of a float is exact and tells -0.0 from 0.0."""
    return repr(a) == repr(b)


def ref_simplify(t: tuple) -> tuple:
    """Simplification as it was, over a raw tree: a recursion that gives
    the simplified raw tree.  It cached each result on the node; a memo
    by id stands in for that slot here."""
    return _simplify(t, {})


def _simplify(t: tuple, memo: dict) -> tuple:
    key = id(t)
    if key not in memo:
        memo[key] = _simplify_node(t, memo)
    return memo[key]


def _is(t: tuple, v: float) -> bool:
    return t[0] is Const and t[1] == v


def _neg_of(t: tuple) -> tuple:
    if t[0] is Const:
        return (Const, -t[1])
    if t[0] is Neg:
        return t[1]
    if t[0] is Mul and t[1][0] is Const:
        return (Mul, (Const, -t[1][1]), t[2])
    return (Neg, t)


def _fold(fn, *args: float) -> tuple | None:
    """fn of finite constants as a constant, if the call succeeds with a
    finite value."""
    if not all(map(math.isfinite, args)):
        return None
    try:
        v = fn(*args)
    except (ArithmeticError, ValueError):
        return None
    return (Const, v) if math.isfinite(v) else None


_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
        Div: operator.truediv}


def _simplify_node(t: tuple, memo: dict) -> tuple:
    cls = t[0]
    if cls in _LEAVES:
        return t

    if cls is Neg:
        a = _simplify(t[1], memo)
        if a[0] is Const or a[0] is Neg:
            return _neg_of(a)
        return (Neg, a)

    if cls is Fun:
        a = _simplify(t[2], memo)
        if a[0] is Const:
            folded = _fold(getattr(math, t[1]), a[1])
            if folded is not None:
                return folded
        return (Fun, t[1], a)

    a, b = _simplify(t[1], memo), _simplify(t[2], memo)
    if cls is Pow:
        if _is(b, 0.0):
            return (Const, 1.0)
        if _is(b, 1.0):
            return a
        if _is(a, 1.0):
            return (Const, 1.0)
        if a[0] is Const and b[0] is Const:
            folded = _fold(_pow_scalar, a[1], b[1])
            if folded is not None:
                return folded
        return (Pow, a, b)

    if a[0] is Const and b[0] is Const and not (cls is Div and b[1] == 0.0):
        v = _OPS[cls](a[1], b[1])
        if math.isfinite(v):  # an overflow stays unfolded
            return (Const, v)
    if cls is Add:
        if _is(a, 0.0):
            return b
        if _is(b, 0.0):
            return a
    elif cls is Sub:
        if _is(b, 0.0):
            return a
        if _is(a, 0.0):
            return _neg_of(b)
    elif cls is Mul:
        if _is(a, 0.0) or _is(b, 0.0):
            return (Const, 0.0)
        if _is(a, 1.0):
            return b
        if _is(b, 1.0):
            return a
        if _is(a, -1.0):
            return _neg_of(b)
        if _is(b, -1.0):
            return _neg_of(a)
    else:  # Div
        if _is(a, 0.0):
            return (Const, 0.0)
        if _is(b, 1.0):
            return a
        if _is(b, -1.0):
            return _neg_of(a)
    return (cls, a, b)


def ref_subst(e, values):
    """Substitution as it was: a recursion over the tree, memoized by
    node id, that keeps a node whose children came back unchanged."""
    return _subst(e, values, {})


def _subst(node: Expr, values: Mapping[str, float], memo: dict) -> Expr:
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, Param) and node.name in values:
        out = Const(float(values[node.name]))
    elif isinstance(node, (Const, Var, Param)):
        out = node
    elif isinstance(node, Neg):
        a = _subst(node.arg, values, memo)
        out = node if a is node.arg else Neg(a)
    elif isinstance(node, Fun):
        a = _subst(node.arg, values, memo)
        out = node if a is node.arg else Fun(node.name, a)
    elif isinstance(node, Pow):
        b = _subst(node.base, values, memo)
        ex = _subst(node.exponent, values, memo)
        out = node if (b is node.base and ex is node.exponent) else Pow(b, ex)
    else:
        a = _subst(node.left, values, memo)
        b = _subst(node.right, values, memo)
        out = node if (a is node.left and b is node.right) else type(node)(a, b)
    memo[key] = out
    return out


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_factor())
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if math.isinf(value):
                raise ParseError(f"number {val} overflows a float", pos)
            return Const(value)
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Fun(val, arg)
            if val == "x":
                return X
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} used without arguments", pos)
            return Param(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def ref_parse(text: str) -> Expr:
    """The parser as it was: the whole text tokenized first, then every
    token parsed, a repeated group as often as it is printed."""
    p = _Parser(text)
    node = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


def ref_expr(p, values):
    """p at the generators' values.  A monomial's coefficient and its
    Const values multiply into one number, summed over the monomials that
    share their other values, and the constructors fold that number unless
    it overflows; a negative one is subtracted."""
    groups: dict[tuple, Expr] = {}
    for m, k in p.items():
        num, rest = Const(float(k)), []
        for g in m:
            v = values[g]
            if type(v) is Const:
                num = num * v
            else:
                rest.append(v)
        key = tuple(rest)
        groups[key] = groups[key] + num if key in groups else num
    total = ZERO
    for rest, num in groups.items():
        minus = type(num) is Const and num.value < 0
        term = Const(-num.value) if minus else num
        for v, run in groupby(rest):
            n = len(tuple(run))
            term = term * (v ** n if n > 1 else v)
        total = total - term if minus else total + term
    return total


# ---------------------------------------------------------------------------
# random DAGs

_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-3, 1e300,
                     -1e300, 710.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
_KINDS = ("neg", "add", "sub", "mul", "div", "int_pow", "frac_pow",
          "pow", "fun")
_BINARY = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}


@st.composite
def _raw_trees(draw, max_ops=14, params=(), kinds=_KINDS, extra=()):
    """Each new node takes its operands from the nodes made before it, so
    subtrees are shared, and constants meet constants often enough to give
    constant-only subtrees (1/0, 0^-1, 1e300*1e300, ...).  The leaves are x,
    the constants and a parameter of each name in ``params``, and the raw
    trees in ``extra`` are operands too; the nodes are of the ``kinds``
    given."""
    pool = [(Var,), *((Param, p) for p in params), *extra] + [
        (Const, v) for v in draw(st.lists(_CONSTANTS, min_size=1,
                                          max_size=4))]
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.sampled_from(pool))
        if kind == "neg":
            t = (Neg, a)
        elif kind in _BINARY:
            t = (_BINARY[kind], a, draw(st.sampled_from(pool)))
        elif kind == "int_pow":
            k = draw(st.integers(min_value=-3, max_value=4))
            t = (Pow, a, (Const, float(k)))
        elif kind == "frac_pow":
            t = (Pow, a, (Const, draw(st.sampled_from([0.5, -0.5, 1.5,
                                                       1 / 3, -2.25]))))
        elif kind == "pow":
            t = (Pow, a, draw(st.sampled_from(pool)))
        else:
            t = (Fun, draw(st.sampled_from(FUNCTIONS)), a)
        pool.append(t)
    return pool[-1]


def _dags(**kwargs):
    """Raw trees of ``_raw_trees`` built through the constructors."""
    return _raw_trees(**kwargs).map(build)


# raw subtrees at the edges of the rules: ones no rule leaves as they are
# (-0, --x, 1+2, x*1, 0-2*x, (-(-0))^3, exp(0)) and ones no fold may
# touch (1/0, 1e300*1e300)
_X = (Var,)
_RAW_EDGES = ((Neg, (Const, 0.0)), (Neg, (Neg, _X)),
              (Add, (Const, 1.0), (Const, 2.0)), (Mul, _X, (Const, 1.0)),
              (Sub, (Const, 0.0), (Mul, (Const, 2.0), _X)),
              (Pow, (Neg, (Const, -0.0)), (Const, 3.0)),
              (Fun, "exp", (Const, 0.0)), (Div, (Const, 1.0), (Const, 0.0)),
              (Mul, (Const, 1e300), (Const, 1e300)))


_XS = np.array([-2.5, -1.0, -0.0, 0.0, 1e-8, 0.3, 1.0, 2.0, 7.5, 40.0])


def _same_bits(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(got), nan):
        return False
    return np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))


@settings(max_examples=400, deadline=None)
@given(_dags(), st.lists(st.floats(allow_nan=False, width=64), max_size=4))
def test_tape_matches_the_generated_code_bit_for_bit(e, extra):
    xs = np.concatenate([_XS, np.array(extra, dtype=float)])
    got = lambdify(e)(xs)
    got_scalar = lambdify(e)(0.3)
    assert to_str(e) == ref_print(e)
    try:
        want = ref_lambdify(e)(xs)
        want_scalar = ref_lambdify(e)(0.3)
    except (ZeroDivisionError, OverflowError):
        # the generated code evaluated constant subtrees on Python floats,
        # which raise; the tape maps them to inf/nan like any other point
        assert got.shape == xs.shape and got.dtype == np.float64
        return
    assert _same_bits(got, want)
    assert _same_bits(got_scalar, want_scalar)


@settings(max_examples=400, deadline=None)
@given(_dags(params=("a", "b")), st.sampled_from([0.0, -0.0, 1.0, -2.5]))
def test_passes_return_the_node_of_the_recursive_walkers(e, a):
    # a is bound and b left alone; every node a pass makes is its own
    # simplified form
    d = diff(e)
    assert d is ref_diff(e)
    s = subst(e, {"a": a})
    assert s is ref_subst(e, {"a": a})
    for t in (e, d, s, diff(d)):
        assert same_tree(ref_simplify(fields(t)), fields(t))
        assert to_str(t) == ref_print(t)


# operands at the edges of every rule: the constants of the identities,
# of either sign, non-finite ones, and the nodes _neg_of reads
_UNITS = tuple((Const, v) for v in (0.0, -0.0, 1.0, -1.0))
_OPERANDS = (_X, (Param, "a"), (Neg, _X), (Mul, (Const, 2.0), _X), *_UNITS,
             *((Const, v) for v in (2.0, -0.5, 1e300, math.inf, math.nan)),
             (Mul, (Const, 1e300), (Const, 1e300)),
             (Div, (Const, 1.0), (Const, 0.0)))


def test_construction_matches_the_reference_simplifier_on_every_pair():
    for a in _OPERANDS:
        trees = [(Neg, a), *((Fun, name, a) for name in FUNCTIONS)]
        trees += [(t, a, b) for t in (Add, Sub, Mul, Div, Pow)
                  for b in _OPERANDS]
        for t in trees:
            assert same_tree(fields(build(t)), ref_simplify(t)), raw(t)


@settings(max_examples=400, deadline=None)
@given(_raw_trees(params=("a",), extra=_RAW_EDGES + _UNITS))
def test_construction_matches_the_reference_simplifier(t):
    # the constructors, applying the rules of one node as they make it
    # bottom-up, build the tree a walk of the reference over the raw tree
    # makes; the reference's output is its own simplified form, and
    # building it again changes nothing
    s = ref_simplify(t)
    assert same_tree(fields(build(t)), s)
    assert same_tree(ref_simplify(s), s)
    assert same_tree(fields(build(s)), s)


@settings(max_examples=400, deadline=None)
@given(_dags(params=("a",), extra=_RAW_EDGES))
def test_derivative_returns_the_node_of_the_simplified_reference(e):
    # the reference derivative is built through the constructors too
    d = diff(e)
    assert d is ref_diff(e)
    assert diff(d) is ref_diff(d)


@settings(max_examples=400, deadline=None)
@given(_dags(params=("a",)))
def test_a_printed_dag_parses_back_to_its_node(e):
    assert parse(to_str(e)) is e


def test_general_p_jets_are_the_simplified_reference_derivatives():
    for _, P in general_instances(4, seed=29):
        P, dP, ddP = wcalc.jet(P)
        assert dP is ref_diff(P)
        assert ddP is ref_diff(dP)


# contexts a shared subtree prints in: bare, as an operand of each
# precedence, left and right
_CONTEXTS = (lambda e: e, Neg, lambda e: Pow(e, Const(2.0)),
             lambda e: Pow(X, e), lambda e: Sub(X, e), lambda e: Add(e, X),
             lambda e: Div(e, X), lambda e: Mul(Const(-2.0), e),
             lambda e: Fun("sin", e))


@settings(max_examples=300, deadline=None)
@given(_dags(), st.lists(_dags(max_ops=6), max_size=3),
       st.lists(st.sampled_from(_CONTEXTS), min_size=2, max_size=6),
       st.data())
def test_roots_sharing_a_subtree_print_as_the_reference(shared, others,
                                                        wraps, data):
    # the roots share one subtree, printed first in whatever context and
    # order the draw puts first, and the other DAGs may share nodes with
    # it; the text a call keeps on a node is what any later call reads
    roots = [wrap(shared) for wrap in wraps] + [Mul(o, shared) for o in others]
    for e in data.draw(st.permutations(roots)):
        text = to_str(e)
        assert text == ref_print(e)
        assert to_str(e) is text is e._text[0]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_every_function_matches_the_reference(name):
    xs = np.linspace(-3.0, 3.0, 61)
    e = Fun(name, X * Const(0.75) - Const(0.25))
    assert _same_bits(lambdify(e)(xs), ref_lambdify(e)(xs))


def _same_outcome(fn, ref, *args):
    """fn returns ref's value bit for bit, or raises ref's exception with
    its message."""
    try:
        want = ref(*args)
    except Exception as err:
        with pytest.raises(Exception) as got:
            fn(*args)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        assert _same_bits(fn(*args), want)


@settings(max_examples=400, deadline=None)
@given(_dags(params=("p", "q")),
       st.lists(st.floats(width=64), min_size=2, max_size=6))
def test_scalar_code_matches_the_token_walk_bit_for_bit(e, draws):
    # p and q are the state of lambdify_ode, whose x part runs before its
    # state part: the token walk takes the nodes that read neither first,
    # in their order, so where steps of both parts raise, it raises the x
    # part's error too
    p, q, *extra = draws
    order = _postorder(e)
    reads = {n for n in order if free_params(n) & {"p", "q"}}
    x_first = sorted(order, key=lambda n: n in reads)  # a stable sort
    ref_ode = ref_scalar_code(x_first, ("p", "q"), (Param("q"), e))
    ode = lambdify_ode(e, "p", "q")
    for x in [*_XS.tolist(), *extra]:
        _same_outcome(ode, ref_ode, x, (p, q))


@settings(max_examples=400, deadline=None)
@given(_dags(kinds=("neg", "add", "sub", "mul", "div")),
       st.lists(st.floats(width=64), max_size=4))
def test_scalar_and_vector_forms_agree_on_arithmetic(e, extra):
    # integer powers are left out: libm's pow and numpy's power may differ
    # by an ulp (x^4 at 0.3 is 0.0081 scalar, 0.008099999999999998 vector)
    xs = np.concatenate([_XS, np.array(extra, dtype=float)])
    ode = lambdify_ode(e, "u", "du")
    for x, want in zip(xs.tolist(), lambdify(e)(xs)):
        try:
            _, got = ode(x, (0.0, 0.0))
        except ZeroDivisionError:
            continue  # numpy gives inf or nan where Python floats raise
        assert _same_bits(got, want)


# ---------------------------------------------------------------------------
# constant folds


def _ref_fold(e):
    """What the fold of e is when the interpreter is asked: the bits of
    its value if that is finite, else None (left unfolded)."""
    try:
        v = ref_eval(e, 0.0)
    except RefDomainError:
        return None
    return v.hex() if math.isfinite(v) else None


def _bits(e: Expr):
    return e.value.hex() if isinstance(e, Const) else None


def _pow(a: float, b: float) -> tuple:
    return (Pow, (Const, a), (Const, b))


def _fun(name: str, a: float) -> tuple:
    return (Fun, name, (Const, a))


_INF, _NAN = math.inf, math.nan
_EDGE_FOLDS = [
    _pow(0.0, -1.0), _pow(-0.0, -3.0), _pow(-8.0, 1 / 3), _pow(0.0, 0.5),
    _pow(0.0, -0.5), _pow(2.0, 1e20), _pow(0.5, 1e20), _pow(-2.0, 3.0),
    _pow(2.0, 0.5), _pow(1e200, 2.0), _pow(10.0, 400.5), _pow(-1.0, 1e300),
    _fun("exp", 710.0), _fun("exp", 709.0), _fun("log", 0.0),
    _fun("log", -0.0), _fun("log", -1.0), _fun("sqrt", -0.0),
    _fun("sqrt", -1e-300), _fun("sqrt", 2.0), _fun("cosh", 800.0),
    _fun("sinh", -800.0), _fun("tan", 1e300), _fun("sin", 1e300),
    # non-finite operands are never folded
    _fun("exp", _INF), _fun("exp", -_INF), _fun("exp", _NAN),
    _fun("log", _INF), _fun("sqrt", _NAN), _fun("sin", _INF),
    _fun("tan", _NAN), _pow(_INF, 2.0), _pow(2.0, -_INF), _pow(0.5, _INF),
    _pow(_NAN, 0.5), _pow(2.0, _NAN), _pow(-_INF, 3.0),
]


@pytest.mark.parametrize("e", _EDGE_FOLDS, ids=lambda t: repr(raw(t)))
def test_fold_matches_the_interpreter_at_the_edges(e):
    # the constructor's fold against the interpreter on the raw node
    assert _bits(build(e)) == _ref_fold(raw(e))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUNCTIONS + ("pow",)),
       st.floats(width=64), st.floats(width=64))
def test_fold_matches_the_interpreter(name, a, b):
    if name == "pow":
        e = _pow(a, b)
        if b in (0.0, 1.0) or a == 1.0:
            return  # x^0, x^1 and 1^x are identities, not folds
    else:
        e = _fun(name, a)
    assert _bits(build(e)) == _ref_fold(raw(e))


# ---------------------------------------------------------------------------
# the chain's bundles


def test_general_bundles_print_and_serialize_as_the_reference(monkeypatch):
    for params, P in general_instances(4, seed=23):
        b = solve_chain(P, params)
        b = b.with_entries(verify_printed_coeffs(b.P, b.U, params, b.v, b.h,
                                                 b.g, b.f))
        for name in ("P", "U", "g", "h", "v", "f"):
            e = getattr(b, name)
            assert to_str(e) == ref_print(e), name
        text = bundle_to_json(b)
        xs = np.linspace(0.0, 5.0, 201)
        values = [lambdify(a)(xs) for a in vdp_coefficients(b)]

        with monkeypatch.context() as m:
            m.setattr(colehopf, "to_str", ref_print)
            m.setattr(colehopf, "lambdify", ref_lambdify)
            ref = solve_chain(P, params)
            ref = ref.with_entries(verify_printed_coeffs(
                ref.P, ref.U, params, ref.v, ref.h, ref.g, ref.f))
            assert bundle_to_json(ref) == text
        for got, a in zip(values, vdp_coefficients(ref)):
            assert _same_bits(got, ref_lambdify(a)(xs))


# ---------------------------------------------------------------------------
# the ring builder

# every polynomial wcalc builds Exprs from
_RING = [*wcalc._reduced(), *wcalc._chain().values(), *wcalc._restoring(),
         *(gap for kind in ("vdp", "forcing", "lienard")
           for gap in wcalc._gaps(kind)),
         # the forms themselves, as a ledger text is instantiated
         *(wcalc._ordered(wcalc._read(parse(text)))
           for texts in wcalc._REFERENCE_FORMS.values() for text in texts)]
# values whose sums and products round, overflow, cancel to inf - inf or
# meet 0 * inf, of either sign of zero
_GENERATOR_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1 / 3, -2.5, 1e200,
                     -1e200, 1e-200, 1e155, 1.7e308, math.inf, -math.inf,
                     math.nan]),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def _generator_values(draw):
    """A value for each generator but w: a Const, or one of a few DAGs, so
    that generators share values."""
    dags = draw(st.lists(_dags(max_ops=4), min_size=1, max_size=3))
    values = [None]
    for _ in range(wcalc.B4):
        if draw(st.booleans()):
            values.append(Const(draw(_GENERATOR_CONSTANTS)))
        else:
            values.append(draw(st.sampled_from(dags)))
    return values


@settings(max_examples=300, deadline=None)
@given(_generator_values())
def test_ring_builder_returns_the_node_of_the_reference(values):
    for p in _RING:
        assert wcalc._expr(p, values) is ref_expr(p, values)


# ---------------------------------------------------------------------------
# slot reuse on the fine grid

_FINE = np.linspace(0.0, 5.0, 20001)


def test_bundle_tapes_match_the_reference_on_the_fine_grid():
    # heavily shared DAGs, before and after the JSON round trip, where the
    # tape reuses many slots
    for params, P in general_instances(3, seed=41):
        b = solve_chain(P, params)
        b2 = bundle_from_json(bundle_to_json(b))
        for bundle in (b, b2):
            for name in ("g", "h", "v", "U", "f"):
                e = getattr(bundle, name)
                assert _same_bits(lambdify(e)(_FINE),
                                  ref_lambdify(e)(_FINE)), name


def test_riccati_lienard_tapes_match_the_reference_on_the_fine_grid():
    (_, P), = general_instances(1, seed=43)
    for Pc in (P, parse("0.3 - 0.2*x + 0.15*x^2")):
        spec = lienard_coeffs([Const(0.25), Const(-0.4), Const(0.1)], Pc,
                              riccati_u(Pc))
        for i, b in enumerate(spec.b):
            assert _same_bits(lambdify(b)(_FINE), ref_lambdify(b)(_FINE)), i


def test_tape_memory_is_bounded_by_the_live_values():
    # a chain of 240 computed values, each read once: every step may
    # write over its operand, so the call holds a few arrays, not 240
    e = X
    for k in range(120):
        e = Fun("sin", e) + Const(k + 0.125)
    fn = lambdify(e)
    tracemalloc.start()
    try:
        vals = fn(_FINE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_bits(vals, ref_lambdify(e)(_FINE))
    assert peak < 16 * _FINE.nbytes


# ---------------------------------------------------------------------------
# compilation


def test_vector_lambdify_never_compiles(monkeypatch):
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args)
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(expr, "compile", counting_compile, raising=False)
    # a constant no other test uses, so nothing is cached on these nodes
    c = Const(math.pi / 977.0)
    e = Fun("sin", X * c) + Pow(X, Const(3.0)) / (Const(1.0) + X * X)
    vals = lambdify(e)(np.linspace(0.0, 1.0, 11))
    assert np.all(np.isfinite(vals))
    assert calls == []
    lambdify(subst(e, {"unused": 1.0}))
    assert calls == []
    # the scalar code of lambdify_ode still compiles, so the patch is seen
    lambdify_ode(e, "u", "du")
    assert len(calls) == 1


@pytest.mark.parametrize("compiler", [
    lambdify, lambda e: lambdify_ode(e, "u", "du")],
    ids=["lambdify", "lambdify_ode"])
def test_unbound_error_names_the_first_parameter(compiler):
    e = parse("zeta*x + mu*b + sin(a2*x) + a1")
    with pytest.raises(UnboundParameterError) as err:
        compiler(e)
    assert err.value.name == "a1"
    with pytest.raises(UnboundParameterError) as err:
        compiler(subst(e, {"a1": 1.0, "a2": 2.0}))
    assert err.value.name == "b"


# ---------------------------------------------------------------------------
# the parser


def _same_parse(text, parse=parse):
    """parse gives the reference's node, or its error at its offset."""
    try:
        want = ref_parse(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (str(got.value), got.value.offset) == (str(err), err.offset)
    else:
        assert parse(text) is want


_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\x0b", "\xa0", "\u3000"])


@st.composite
def _spaced(draw, text):
    """text with whitespace put in at random places, inside tokens too."""
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(_SPACES) + text[at:]
    return text


@st.composite
def _corrupted(draw, text):
    """text with one fault: a parenthesis dropped or added, an operator
    doubled, a function renamed, or a character no token starts with."""
    parens = [i for i, c in enumerate(text) if c in "()"]
    ops = [i for i, c in enumerate(text) if c in "+-*/^"]
    funs = [m.start() for m in re.finditer("|".join(FUNCTIONS), text)]
    kinds = ["extra", "stray"] + ["drop"] * bool(parens) \
        + ["double"] * bool(ops) + ["rename"] * bool(funs)
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    if kind == "extra":
        return text[:at] + draw(st.sampled_from("()")) + text[at:]
    if kind == "stray":
        return text[:at] + draw(st.sampled_from("$._,;e1")) + text[at:]
    if kind == "drop":
        i = draw(st.sampled_from(parens))
        return text[:i] + text[i + 1:]
    if kind == "double":
        i = draw(st.sampled_from(ops))
        return text[:i] + text[i] + text[i:]
    i = draw(st.sampled_from(funs))
    return text[:i] + "foo" + text[i + 3:]


@st.composite
def _parse_inputs(draw):
    """Printed DAGs (whose shared subtrees print as repeated groups),
    spaced out, repeated as groups of a larger text with one copy
    corrupted or none, or corrupted outright."""
    text = to_str(draw(_dags()))
    kind = draw(st.sampled_from(["printed", "spaced", "repeated",
                                 "corrupted"]))
    if kind == "spaced":
        return draw(_spaced(text))
    if kind == "corrupted":
        return draw(_corrupted(text))
    if kind == "repeated":
        copies = [text] * draw(st.integers(min_value=2, max_value=4))
        bad = draw(st.integers(min_value=-1, max_value=len(copies) - 1))
        if bad >= 0:  # the second or a later copy can hold the fault
            copies[bad] = draw(_corrupted(text))
        ops = draw(st.lists(st.sampled_from(["+", "-", "*", "/", "^", "*exp",
                                             "-sin"]),
                            min_size=len(copies) - 1,
                            max_size=len(copies) - 1))
        out = f"({copies[0]})"
        for op, copy in zip(ops, copies[1:]):
            out += f"{op}({copy})"
        return out
    return text


@settings(max_examples=600, deadline=None)
@given(_parse_inputs())
def test_parse_matches_the_reference(text):
    _same_parse(text)


@st.composite
def _document_fields(draw):
    """The texts of one document: a printed DAG, then texts that print it
    again as a group, as it is, spaced out or with one fault."""
    text = to_str(draw(_dags()))
    fields = [text]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        copy = draw(st.one_of(st.just(text), _spaced(text),
                              _corrupted(text)))
        fields.append(draw(st.sampled_from(["({})", "x*({})", "sin({})^2",
                                            "({})-({})"])).format(copy, text))
    return fields


@settings(max_examples=300, deadline=None)
@given(_document_fields())
def test_a_shared_parser_parses_each_field_as_the_reference(fields):
    # a group met in an earlier field is looked up, not parsed again, and
    # changes no node and no error
    shared = parser()
    for text in fields:
        _same_parse(text, shared)


@pytest.mark.parametrize("text", [
    "(x+1)*(x+1", "(x+1)*(x+)", "(x+1)*(x+1)$", "exp(x+1)*(x+1)+foo(x+1)",
    "(x+1)*((x+1)", "(x+1))*(x+1)", "((x+1)*(x+1))*((x+1)*(x+1 )",
    "(1e999)*(1e999)", "(x+1)*(x+1)^", "((((x)))", "(x+1)*(x+1) + $ + (",
    "(x)(x)", "sin(x)*sin", "", "   ", "x + 1 ", "(\t(x+1)\n)*( (x+1))",
])
def test_parse_matches_the_reference_on_repeated_groups(text):
    _same_parse(text)


@pytest.mark.parametrize("value", [3, None, b"x+1", ["x"]])
def test_parse_refuses_what_is_not_text(value):
    with pytest.raises(TypeError):
        ref_parse(value)
    with pytest.raises(TypeError):
        parse(value)


def test_parse_nests_as_deep_as_the_reference():
    # a group costs the recursion as many frames as in the reference parser
    text = "(" * 220 + "x" + ")" * 220
    assert parse(text) is ref_parse(text) is X
    text = "sin(" * 220 + "x" + ")" * 220
    assert parse(text) is ref_parse(text)


def test_a_group_printed_65536_times_parses_once(monkeypatch):
    e = X + Const(1.0)
    for _ in range(16):
        e = e * e
    text = to_str(e)
    assert text.count("(x+1)") == 2 ** 16
    calls = [0]
    scan = expr._Parser.scan

    def counting(self, pos):
        calls[0] += 1
        return scan(self, pos)
    monkeypatch.setattr(expr._Parser, "scan", counting)
    assert parse(text) is e
    # each distinct group is scanned once, not each of its copies
    assert calls[0] < 1000


def test_criterion_8_documents_parse_as_the_reference(tmp_path):
    count = 0
    for name, argv in CRITERION_8_INVOCATIONS.items():
        out = tmp_path / name
        assert cli_run(argv + ["--out", str(out)]) == 0, name
        spec = "lienard.json" if name == "lienard" else "bundle.json"
        doc = json.loads((out / spec).read_text())
        exprs = [doc[k] for k in ("P", "U", "g", "h", "v", "f") if k in doc]
        exprs += doc.get("c", []) + doc.get("b", [])
        for text in exprs:
            assert parse(text) is ref_parse(text), (name, text)
        # a reference is printed forms, two joined by " ; ", or prose
        for entry in doc["ledger"]:
            for text in entry["reference"].split(" ; "):
                _same_parse(text)
        count += len(exprs)
    assert count == 5 * 6 + 3 + 5 + 2
