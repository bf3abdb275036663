"""Tiny symbolic expression engine for real functions of one variable.

An ``Expr`` is an immutable tree built from real constants, the independent
variable ``x``, named parameters, arithmetic, powers and the elementary
functions exp/log/sin/cos/tan/sinh/cosh/sqrt.  It supports exact
differentiation, conservative simplification (constant folding and identity
removal, no canonical forms), a printer whose output re-parses to an
equivalent tree, and compilation to callables: one lowering to a tape of
steps.  There is no tree interpreter: ``lambdify`` runs the tape as numpy
calls, on a grid or at a point, and ``lambdify_ode`` prints the tape of
the right-hand side of a second-order equation as Python code over
floats in two parts, split at the steps that read the state (the two
parameters that name it): an x part looped over the abscissae it is
given, and a state part over (u, u') and the x part's values at one
abscissa; a function or a power of constants is folded with the
``math`` functions that code calls.  A named parameter gets a value
only from ``subst``: ``lambdify`` refuses a tree that still holds one.  The
tape writes each result into a slot whose value has had its last read, so
a call on a grid holds only as many arrays as values are live at once, and
the buffers numpy frees are reused rather than new pages faulted in.

Nodes are hash-consed and born simplified (smart constructors over a
hash-consing table; Filliatre & Conchon, *Type-Safe Modular
Hash-Consing*, ML Workshop 2006): every constructor call goes through a
weak intern table, and a call that misses it applies the rewrite rules of
that one node first, so a node is made and interned only where no rule
applies.  Structurally equal trees are the same object, equality and
hashing are identity, a tree printed and re-parsed is the same node again,
and no raw tree ever exists: ``simplify`` only coerces a number, and
``diff``, ``subst``, the parser and ``wcalc``'s ring builder build through
the constructors.  ``parser`` shares its memo of groups across the fields
of one document.  The ``lambdify`` result is cached on the node it was
compiled for, and ``to_str`` keeps the text of a root or a shared subtree
on its node.

Every pass except ``parse`` is one loop over ``_postorder``, the distinct
nodes of the DAG each after its children, filling a map from node to
result, so no pass recurses and a tree of any depth can be differentiated,
substituted into, printed and compiled.  ``parse`` recurses once per level
of nesting in the text.

There are no syntactic normal forms: a rule never changes the value of a
node anywhere its unsimplified form is defined, and equal interned nodes
are the one exact test of equality.  Downstream, a bundle the chain
derived is verified by that identity, since ``wcalc`` derives its fields
exactly, and any other expression by evaluation at sample points.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Param", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Fun", "X", "as_expr", "parse", "parser", "diff", "simplify",
    "subst", "free_params", "lambdify", "lambdify_ode", "OdeRhs", "to_str",
    "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "sqrt",
    "ExprError", "ParseError", "UnboundParameterError",
    "FUNCTIONS",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sinh", "cosh", "sqrt")

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnboundParameterError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"parameter '{name}' is not bound")
        self.name = name


class _Interned(type):
    """Metaclass of Expr: a constructor call returns the live node with the
    same type, payload and children if there is one.  Children are already
    interned, so the key holds them by identity.  A Const is keyed by its
    value's bits, so 0.0 and -0.0 stay apart and a NaN finds its node.  On
    a miss, a node that is not a leaf is first offered to ``_rewrite``:
    the result of a rule that applies is returned and leaves no key in the
    table.  A node enters the table only after its field checks have
    passed.  The table is a plain dict of weak references to the nodes;
    the callback of each drops its entry when the node dies, so the table
    holds no node alive."""

    def __call__(cls, *args):
        if cls is Const:
            key = (cls, struct.pack("<d", float(args[0])))
        else:
            key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            if cls is not Const and cls is not Var and cls is not Param:
                out = _rewrite(cls, *args)
                if out is not None:
                    return out
            node = type.__call__(cls, *args)
            _NODES[key] = weakref.ref(node, partial(_drop, key))
        return node


def _drop(key: tuple, ref: weakref.ref) -> None:
    """Drop the entry of a dead node, unless a new node has the key."""
    if _NODES.get(key) is ref:
        del _NODES[key]


_NODES: dict[tuple, weakref.ref] = {}  # key -> weak reference to the node


class Expr(metaclass=_Interned):
    """Base node.  Instances are immutable, simplified and interned,
    through a dict of weak references whose callbacks drop the entries of
    dead nodes: building a tree equal to a live one returns that very
    object, so ``==`` and ``hash`` are identity.  Arithmetic operators
    build new trees (numbers are coerced to constants).  ``_vector_fn``
    holds the cached ``lambdify`` callable, which runs a tape of numpy
    steps and references no node, so caching makes no reference cycle.
    ``_text`` holds the node's printed text, unparenthesized, and its
    precedence, set by ``to_str`` on the root of a call and on each node
    that call reached through two parents; a string holds no node either.
    Both are unset until first computed."""

    __slots__ = ("__weakref__", "_vector_fn", "_text")

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, other):
        return Pow(self, as_expr(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        # keep builtin floats so repr stays grammar-compatible
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True, eq=False)
class Var(Expr):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Param(Expr):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name) or self.name == "x":
            raise ValueError(f"invalid parameter name {self.name!r}")


@dataclass(frozen=True, slots=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Fun(Expr):
    name: str  # checked by _rewrite, which every Fun call runs first
    arg: Expr


X = Var()

_BINARY_NODES = (Add, Sub, Mul, Div)

ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot interpret {v!r} as an expression")


def exp(e) -> Fun:
    return Fun("exp", as_expr(e))


def log(e) -> Fun:
    return Fun("log", as_expr(e))


def sin(e) -> Fun:
    return Fun("sin", as_expr(e))


def cos(e) -> Fun:
    return Fun("cos", as_expr(e))


def tan(e) -> Fun:
    return Fun("tan", as_expr(e))


def sinh(e) -> Fun:
    return Fun("sinh", as_expr(e))


def cosh(e) -> Fun:
    return Fun("cosh", as_expr(e))


def sqrt(e) -> Fun:
    return Fun("sqrt", as_expr(e))


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr) -> Expr:
    """Exact derivative with respect to x; parameters are constants.

    One pass over e's nodes builds the derivative the rules give through
    the constructors, which simplify each node as they make it, so the
    result needs no walk of its own.  Shared subtrees stay shared in the
    output, and since nodes are interned, a derivative equal to an
    existing tree is that tree.  Nothing is kept across calls."""
    d: dict[Expr, Expr] = {}  # node -> its derivative
    for node in _postorder(e):
        t = type(node)
        if t is Const or t is Param or t is Var:
            out = ONE if t is Var else ZERO
        elif t is Neg:
            out = Neg(d[node.arg])
        elif t is Add or t is Sub:
            out = t(d[node.left], d[node.right])
        elif t is Mul:
            out = Add(Mul(d[node.left], node.right),
                      Mul(node.left, d[node.right]))
        elif t is Div:
            out = Div(Sub(Mul(d[node.left], node.right),
                          Mul(node.left, d[node.right])),
                      Pow(node.right, Const(2.0)))
        elif t is Pow:
            out = _diff_pow(node, d)
        else:
            out = _diff_fun(node, d)
        d[node] = out
    return d[e]


def _diff_pow(node: Pow, d: Mapping[Expr, Expr]) -> Expr:
    """The derivative of base^exponent from the derivatives (d) of its
    children.  The rule is chosen by the exponent as written."""
    base, expo = node.base, node.exponent
    if isinstance(expo, Const) and float(expo.value).is_integer():
        n = expo.value
        if n == 0.0:
            return ZERO
        return Mul(Mul(Const(n), Pow(base, Const(n - 1.0))), d[base])
    # general case via b^e = exp(e log b); domain restricted to b > 0
    return Mul(node, Add(Mul(d[expo], Fun("log", base)),
                         Div(Mul(expo, d[base]), base)))


def _diff_fun(node: Fun, d: Mapping[Expr, Expr]) -> Expr:
    """The derivative of name(arg) from the derivative (d) of its
    argument."""
    a, da = node.arg, d[node.arg]
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
# simplification

def _is_const(e: Expr, v: float) -> bool:
    return type(e) is Const and e.value == v


def simplify(e: Expr) -> Expr:
    """e as an Expr (a number becomes a constant).  Nodes are born
    simplified: every constructor call applies the rules of ``_rewrite``
    (constant folding, 0/1 identities, double-negation removal) to the
    node it is asked for, so there is no raw tree left to simplify."""
    return as_expr(e)


def _neg_of(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Mul) and isinstance(e.left, Const):
        return Mul(Const(-e.left.value), e.right)
    return Neg(e)


def _rewrite(t: type, a, b: Expr | None = None) -> Expr | None:
    """What a rule makes of the node t(a, b) (t(a) for a Neg; a Fun's a is
    its name), or None if no rule applies.  The children are simplified,
    as every node is, so one step of the rules gives a node that is its
    own simplified form.  Each rule keeps the value of the node at every
    x where it is defined.  A Fun's name is checked first."""
    if t is Neg:
        if type(a) is Const or type(a) is Neg:
            return _neg_of(a)
        return None

    if t is Fun:
        if a not in FUNCTIONS:
            raise ValueError(f"unknown function {a!r}")
        if type(b) is Const:
            return _fold(_SCALAR_NS["_" + a], b.value)
        return None

    if t is Pow:
        if _is_const(b, 0.0):
            return ONE
        if _is_const(b, 1.0):
            return a
        if _is_const(a, 1.0):
            return ONE
        if type(a) is Const and type(b) is Const:
            return _fold(_pow_scalar, a.value, b.value)
        return None

    if type(a) is Const and type(b) is Const and not (
            t is Div and b.value == 0.0):
        v = _VECTOR_BINARY[t](a.value, b.value)
        if math.isfinite(v):  # an overflow stays unfolded
            return Const(v)
    if t is Add:
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    elif t is Sub:
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return _neg_of(b)
    elif t is Mul:
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return ZERO
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, -1.0):
            return _neg_of(b)
        if _is_const(b, -1.0):
            return _neg_of(a)
    else:  # Div
        if _is_const(a, 0.0):
            return ZERO
        if _is_const(b, 1.0):
            return a
        if _is_const(b, -1.0):
            return _neg_of(a)
    return None


def _fold(fn: Callable, *args: float) -> Const | None:
    """fn of finite constants, as the scalar code calls it, if the call
    succeeds with a finite value; None leaves the node unfolded."""
    if not all(map(math.isfinite, args)):
        return None
    try:
        v = fn(*args)
    except (ArithmeticError, ValueError):
        return None
    return Const(v) if math.isfinite(v) else None


# ---------------------------------------------------------------------------
# substitution and queries

def subst(e: Expr, values: Mapping[str, float]) -> Expr:
    """Replace named parameters with numeric constants.  Parameters not in
    ``values`` are left alone.  Every node is rebuilt from its children's
    images through the constructors, so the result is simplified as it is
    rebuilt (a bound constant folds, an identity it makes goes), and,
    nodes being interned, an unchanged subtree is the same node."""
    out: dict[Expr, Expr] = {}  # node -> its image
    for node in _postorder(e):
        t = type(node)
        if t is Param and node.name in values:
            new = Const(float(values[node.name]))
        elif t is Const or t is Var or t is Param:
            new = node
        elif t is Neg:
            new = Neg(out[node.arg])
        elif t is Fun:
            new = Fun(node.name, out[node.arg])
        elif t is Pow:
            new = Pow(out[node.base], out[node.exponent])
        else:
            new = t(out[node.left], out[node.right])
        out[node] = new
    return out[e]


def free_params(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in _postorder(e) if isinstance(n, Param))


def _postorder(e: Expr, skip: Callable[[Expr], bool] | None = None,
               shared: set[Expr] | None = None) -> list[Expr]:
    """The distinct nodes under e, each after its children (left before
    right, base before exponent).  A node for which ``skip`` is true is
    neither listed nor walked into, and a node reached again, through
    another parent or as both operands of one, is added to ``shared``.
    Iterative, so deep trees cannot hit the recursion limit; a None on the
    stack marks that the node below it has had its children listed."""
    order: list[Expr] = []
    seen: set[Expr] = set()
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is None:
            order.append(stack.pop())
            continue
        if node in seen:
            if shared is not None:
                shared.add(node)
            continue
        seen.add(node)
        if skip is not None and skip(node):
            continue
        stack += (node, None)
        t = type(node)
        if t in _BINARY_NODES:
            stack += (node.right, node.left)
        elif t is Neg or t is Fun:
            stack.append(node.arg)
        elif t is Pow:
            stack += (node.exponent, node.base)
    return order


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 50
_PREC = {Const: _PREC_ATOM, Var: _PREC_ATOM, Param: _PREC_ATOM,
         Fun: _PREC_ATOM, Neg: _PREC_NEG, Add: _PREC_ADD, Sub: _PREC_ADD,
         Mul: _PREC_MUL, Div: _PREC_MUL, Pow: _PREC_POW}
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _prec(node: Expr) -> int:
    if type(node) is Const and math.copysign(1.0, node.value) < 0:
        return _PREC_NEG  # -0.0 prints with its sign, as "-0"
    return _PREC[type(node)]


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):  # no literal reads back as inf or nan
        raise ExprError(f"constant {v!r} is not finite")
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # exact, and "-0" for -0.0
    return repr(v)


def to_str(e: Expr) -> str:
    """Print in the input grammar; the output re-parses to a tree that is
    pointwise equal (and, for parser-produced trees, the same node).  The
    DAG prints as a tree, but parsing it shares equal subtrees again.

    One walk lists the nodes under e that have no text yet, each after its
    children, and notes those it reaches twice; a node that has text is
    not walked into.  Each listed node's text is built once from its
    children's, in parentheses where the context binds tighter.  It is
    kept in the node's ``_text`` slot, with its precedence, when the node
    is e or was reached twice: a later call that meets the node reads it
    there, so the fields of a document print P's text once, and a
    document printed again reprints nothing.  The text of a node reached
    once is handed to its one parent and dropped, so a deep unshared chain
    keeps only its root's text.  A node's text depends on the node alone,
    so every result is the same whatever was printed before."""
    done = getattr(e, "_text", None)
    if done is not None:
        return done[0]
    shared: set[Expr] = set()
    passed: dict[Expr, tuple[str, int]] = {}  # text its parent has not read

    def sub(node: Expr, ctx: int) -> str:
        s, p = passed.pop(node, None) or node._text
        return "(" + s + ")" if p < ctx else s

    for node in _postorder(e, lambda n: hasattr(n, "_text"), shared):
        t, p = type(node), _prec(node)
        if t is Const:
            s = _fmt_number(node.value)
        elif t is Var:
            s = "x"
        elif t is Param:
            s = node.name
        elif t is Fun:
            s = f"{node.name}({sub(node.arg, 0)})"
        elif t is Neg:
            s = "-" + sub(node.arg, _PREC_NEG)
        elif t is Pow:
            s = (sub(node.base, _PREC_POW + 1) + "^"
                 + sub(node.exponent, _PREC_NEG))
        else:
            s = sub(node.left, p) + _INFIX[t] + sub(node.right, p + 1)
        if node is e or node in shared:
            object.__setattr__(node, "_text", (s, p))
        else:
            passed[node] = s, p
    return e._text[0]


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)
_PAREN_RE = re.compile(r"[()]")


class _Parser:
    """Recursive descent over tokens scanned as needed; a copy of a group
    already parsed is looked up by its text and skipped (see ``parse``)."""

    def __init__(self, text: str, groups: dict[str, Expr]):
        self.text = text
        self.close = {}  # offset of each matched "(" -> offset of its ")"
        opens = []
        for m in _PAREN_RE.finditer(text):
            if m.group() == "(":
                opens.append(m.start())
            elif opens:
                self.close[opens.pop()] = m.start()
        self.groups = groups  # group text -> node inside it
        self.tok = self.scan(0)

    def scan(self, pos: int) -> tuple[str, str, int, int]:
        """(kind, text, offset, end) of the token after ``pos`` and spaces."""
        op = self.text[pos:pos + 1]
        if op and op in "+-*/^()":
            return ("op", op, pos, pos + 1)
        m = _TOKEN_RE.match(self.text, pos)
        if m is None:
            stripped = self.text[pos:].lstrip()
            at = len(self.text) - len(stripped)
            if not stripped:
                return ("eof", "", at, at)
            raise ParseError(f"unexpected character {self.text[at]!r}", at)
        kind = m.lastgroup
        start, end = m.span(kind)
        return (kind, self.text[start:end], start, end)

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tok
        self.tok = self.scan(tok[3])
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _, _ = self.tok
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, _, _ = self.tok
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, val, _, _ = self.tok
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_factor())
        node = self.parse_atom()
        kind, val, _, _ = self.tok
        if kind == "op" and val == "^":
            self.advance()
            return Pow(node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, val, pos, _ = self.tok
        fun = None
        if kind == "ident":
            self.advance()
            if self.tok[1] != "(":
                if val == "x":
                    return X
                if val in FUNCTIONS:
                    raise ParseError(f"function {val!r} used without arguments", pos)
                return Param(val)
            if val not in FUNCTIONS:
                raise ParseError(f"unknown function {val!r}", pos)
            fun = val
        elif val != "(":
            self.advance()
            if kind == "num":
                value = float(val)
                if math.isinf(value):
                    raise ParseError(f"number {val} overflows a float", pos)
                return Const(value)
            raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)
        # a "(" group, inline so that a level of nesting costs four frames
        start = self.tok[2]
        # an unmatched "(" keys the rest of the text, and its parse fails
        end = self.close.get(start, len(self.text))
        key = self.text[start:end + 1]
        node = self.groups.get(key)
        if node is None:
            self.advance()
            node = self.parse_expr()
            if self.tok[1] != ")":  # else it stands at ``end``
                raise ParseError("expected ')'", self.tok[2])
            self.groups[key] = node
        self.tok = self.scan(end + 1)
        return node if fun is None else Fun(fun, node)


def parse(text: str) -> Expr:
    """Parse ``text`` to an Expr under the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := "-" factor | atom ("^" factor)?
        atom   := number | ident | ident "(" expr ")" | "(" expr ")"

    ``x`` is the independent variable; any other identifier is a named
    parameter unless it is a function call.  The cost is one pass over the
    parentheses, one slice and hash per group met, and one scan and parse
    per distinct group text.  A character that starts no token is the error
    wherever it stands, before any error of grammar."""
    return parser()(text)


def parser() -> Callable[[str], Expr]:
    """A ``parse`` whose calls share one memo of groups, for the fields of
    one document: a group printed again in a later field (P's, inside U,
    h, v and f) is parsed once.  A group's text fixes its node, so every
    result and every error is the one ``parse`` gives."""
    groups: dict[str, Expr] = {}

    def parse_text(text: str) -> Expr:
        p = _Parser(text, groups)
        try:
            node = p.parse_expr()
            kind, val, pos, _ = p.tok
            if kind != "eof":
                raise ParseError(f"unexpected trailing input {val!r}", pos)
        except (ParseError, RecursionError):
            tok = p.tok
            while tok[0] != "eof":  # raises at the first bad character
                tok = p.scan(tok[3])
            raise
        return node

    return parse_text


# ---------------------------------------------------------------------------
# compilation

def _pow_scalar(a: float, b: float) -> float:
    if float(b).is_integer():
        return a ** int(b)
    if a > 0.0:
        return math.exp(b * math.log(a))
    if a == 0.0 and b > 0.0:
        return 0.0
    raise ValueError("fractional power of a nonpositive base")


_SCALAR_NS = {
    "_exp": math.exp, "_log": math.log, "_sin": math.sin, "_cos": math.cos,
    "_tan": math.tan, "_sinh": math.sinh, "_cosh": math.cosh,
    "_sqrt": math.sqrt, "_pow": _pow_scalar,
}

# steps: each binary node maps to its operator, each function to the numpy
# ufunc of that name; the scalar code prints each step function as its
# source over floats
_VECTOR_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                  Div: operator.truediv}
_VECTOR_FUNS = {name: getattr(np, name) for name in FUNCTIONS}
_SCALAR_SOURCE = {
    operator.add: "{} + {}", operator.sub: "{} - {}",
    operator.mul: "{} * {}", operator.truediv: "{} / {}",
    operator.neg: "-{}", operator.pow: "{} ** {}", np.power: "_pow({}, {})",
    **{fn: f"_{name}({{}})" for name, fn in _VECTOR_FUNS.items()},
}


def lambdify(e: Expr) -> Callable:
    """Compile to a callable f(x).

    ``_lower`` walks the expression DAG once into a tape of steps, one per
    distinct subtree, so common subexpressions are evaluated once; a tree
    that still holds a parameter raises UnboundParameterError (the first
    by name), since only ``subst`` gives parameters values.  A small
    interpreter runs the steps as numpy and ``operator`` calls, with no
    ``compile``; the callable accepts floats or numpy arrays and returns
    arrays, mapping domain violations to nan/inf silently (constant
    subtrees included) so callers can mask them.  The tape is cached on
    the node it was built for and holds no node, so compiling an equal
    tree again returns it.
    """
    fn = getattr(e, "_vector_fn", None)
    if fn is None:
        init, steps, (result,) = _lower(_postorder(e), (X,), (e,))
        fn = _vectorized(init, steps, result)
        object.__setattr__(e, "_vector_fn", fn)
    return fn


class OdeRhs(NamedTuple):
    """The right-hand side f(x, (u, u')) = (u', rate) that ``lambdify_ode``
    compiles, in two parts.  ``x_part(xs)`` runs the steps that read only x
    and constants once for each abscissa of the sequence xs and returns a
    list of one tuple per abscissa, the values the rest reads;
    ``state_part(y, v)`` runs the steps that read the state over the pair y
    and one such tuple v and returns (u', rate).  Calling the pair is f."""

    x_part: Callable
    state_part: Callable

    def __call__(self, x, y):
        return self.state_part(y, self.x_part((x,))[0])


def lambdify_ode(rate: Expr, y: str, dy: str) -> OdeRhs:
    """Compile the second-order equation u'' = rate(x, u, u') to the
    right-hand side f(x, (u, u')) = (u', rate) of its first-order system,
    split where the tape stops reading x alone: the steps that read only x
    and constants are the x part, the ones that read the parameters named
    y and dy, the state, directly or through another step are the state
    part, each printed as a Python function over floats, both in one
    ``compile``.  An integrator evaluates the x part once for all the
    abscissae of a step and the state part once a stage.  Each part runs
    its steps in tape order on the same operands, so the split changes no
    bit of a result; a domain error of the x part is raised before any
    step of the state part runs.  The state may be any pair that unpacks,
    a tuple or a numpy array.  Any other parameter raises
    UnboundParameterError, so a caller that builds rate from expressions
    of its own must first make sure that they hold no parameter, or one
    would be taken for the state.  Not cached: rate is typically built for
    the call."""
    order = _postorder(rate)
    state = (Param(y), Param(dy))
    reads = set(state)  # the nodes that read the state
    x_order, state_order = [], []
    for node in order:
        if node in reads or not reads.isdisjoint(_children(node)):
            reads.add(node)
            state_order.append(node)
        else:
            x_order.append(node)
    # the values of the x part that the state part's steps and roots read,
    # bar constants, which it binds as names
    roots = (state[1], rate)
    operands = [c for node in state_order for c in _children(node)]
    passed = tuple(dict.fromkeys(
        c for c in operands + list(roots)
        if c not in reads and type(c) is not Const))
    return _scalar_code(_lower(x_order, (X,), passed),
                        _lower(state_order, (*state, *passed), roots))


def _children(node: Expr) -> tuple[Expr, ...]:
    t = type(node)
    if t in _BINARY_NODES:
        return (node.left, node.right)
    if t is Neg or t is Fun:
        return (node.arg,)
    if t is Pow:
        return (node.base, node.exponent)
    return ()


def _lower(order: list[Expr], leaves: tuple[Expr, ...],
           roots: tuple[Expr, ...]) -> tuple[tuple, tuple, tuple[int, ...]]:
    """Lower the post-ordered nodes (root last) to a tape: the slots'
    initial values, the steps and the slot of each root (a node in
    ``order`` or a leaf).  Slots 0..k-1 hold the k ``leaves``, in that
    order, all filled by the caller: x, or the state and the values an
    earlier tape passed on; any parameter not among them raises
    UnboundParameterError (the first by name).  A constant's slot starts
    with its value, as a float, and the slot of a computed value with
    None.  Each step ``(fn, out, a, b)`` stores ``fn`` of slots a and b (b
    None for unary steps) in slot ``out``: an ``operator`` function or a
    numpy ufunc.  An integer power is ``operator.pow`` with b a slot
    holding the exponent as an int, any other power ``np.power``.  The
    tape holds values and functions only, never a node.

    Slots of computed values are reused, as registers are in linear-scan
    allocation (Poletto & Sarkar, ACM TOPLAS 21(5), 1999).  One walk from
    the roots back gives each value its slot at its last read and frees
    that slot at the step that makes the value, so an operand read for
    the last time takes the result's slot and the step writes over it.  A
    call thus needs no more slots than values are live at once (a chain
    of any length runs in two arrays besides x), and numpy gets back the
    buffers it has just freed instead of faulting in new pages.  The
    steps make the same calls on the same operands in the same order as
    the nodes come in ``order``, so reuse changes no bit of any result."""
    home: dict[Expr, int] = {leaf: s for s, leaf in enumerate(leaves)}
    missing = [n.name for n in order if type(n) is Param and n not in home]
    if missing:
        raise UnboundParameterError(min(missing))
    init: list = [None] * len(leaves)
    free: list[int] = []

    def slot(node: Expr) -> int:
        s = home.get(node)
        if s is None:  # the last read of node: take a slot for it
            if type(node) is Const:
                s = len(init)
                init.append(node.value)
            elif free:
                s = free.pop()
            else:
                s = len(init)
                init.append(None)
            home[node] = s
        return s

    results = tuple(map(slot, roots))  # the caller reads the roots
    steps: list[tuple] = []
    for node in reversed(order):
        t = type(node)
        if t is Const or t is Var or t is Param:
            continue
        out = home[node]
        free.append(out)  # no earlier step reads what this one writes
        if t in _BINARY_NODES:
            fn, a, b = _VECTOR_BINARY[t], slot(node.left), slot(node.right)
        elif t is Neg:
            fn, a, b = operator.neg, slot(node.arg), None
        elif t is Fun:
            fn, a, b = _VECTOR_FUNS[node.name], slot(node.arg), None
        else:  # Pow
            ex = node.exponent
            a = slot(node.base)
            if type(ex) is Const and ex.value.is_integer():
                fn, b = operator.pow, len(init)
                init.append(int(ex.value))
            else:
                fn, b = np.power, slot(ex)
        steps.append((fn, out, a, b))
    steps.reverse()
    return tuple(init), tuple(steps), results


def _scalar_code(x_tape: tuple, state_tape: tuple) -> OdeRhs:
    """Print the two tapes of ``lambdify_ode``, each made by ``_lower``, as
    the Python functions over floats of its ``OdeRhs``, one assignment per
    step, constants bound as names (the repr of inf or nan is not a Python
    literal) and integer exponents as literals, and compile them in one
    ``compile``.  The x part runs its tape, whose one leaf is x, once for
    each abscissa it is given and keeps the roots of each run; the state
    part's leaves are the state and then those roots, and it returns its
    own two roots.  Domain violations raise, as ``math`` does."""
    ns = dict(_SCALAR_NS)

    def printed(part: str, tape: tuple, indent: str):
        """The names of the tape's slots, each constant's bound in ns
        under the part's own prefix, its steps as lines and its roots as
        a tuple display."""
        init, steps, out = tape
        names = []
        for s, v in enumerate(init):
            if type(v) is float:
                ns[f"{part}{s}"] = v
            names.append(f"{part}{s}" if type(v) is float
                         else repr(v) if type(v) is int else f"v{s}")
        lines = [f"{indent}{names[o]} = " + _SCALAR_SOURCE[fn].format(
            *((names[a],) if b is None else (names[a], names[b])))
            for fn, o, a, b in steps]
        return names, lines, "(" + "".join(names[s] + ", " for s in out) + ")"

    names, lines, roots = printed("c", x_tape, " " * 8)
    code = [f"def _x_part(xs):\n    out = []\n    for {names[0]} in xs:",
            *lines, f"        out.append({roots})\n    return out"]
    names, lines, roots = printed("k", state_tape, " " * 4)
    passed = names[2:2 + len(x_tape[2])]
    code += ["def _state_part(args, passed):",
             f"    {names[0]}, {names[1]}, = args",
             *([f"    {', '.join(passed)}, = passed"] if passed else []),
             *lines, f"    return {roots}\n"]
    exec(compile("\n".join(code), "<lambdify>", "exec"), ns)
    # popped, so the functions and their globals form no cycle
    return OdeRhs(ns.pop("_x_part"), ns.pop("_state_part"))


def _vectorized(init: tuple, steps: tuple, result: int) -> Callable:
    """Run the tape of ``_lower`` on numpy arrays.  Slot 0 holds x and
    every constant an ``np.float64``, so constant subtrees follow numpy
    semantics as well; an integer power is ``a ** k`` with k a Python
    int."""
    init = tuple(np.float64(v) if type(v) is float else v for v in init)

    def vector_fn(xs):
        arr = np.asarray(xs, dtype=float)
        vals = list(init)
        vals[0] = arr
        with np.errstate(all="ignore"):
            for fn, out, a, b in steps:
                vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        out = vals[result]
        if np.ndim(out) == 0:
            out = np.full(arr.shape, float(out))
        return out

    return vector_fn
