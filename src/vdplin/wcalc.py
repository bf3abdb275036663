"""Reduction of the Lienard equation to a polynomial in w = phi'/phi.

Substituting psi = P + w into psi'' + (c0 + c1 psi + c2 psi^2) psi'
+ sum_i b_i psi^i = 0 and rewriting phi'' = U phi turns it into an identity
sum_i a_i w^i = 0.  That is done once per process, exactly, over
polynomials in w, P, P', P'', U, U', c0..c2 and b0..b4 with the derivation
D(w) = U - w^2, D(P) = P', D(P') = P'', D(U) = U' (Ritt, *Differential
Algebra*, 1950), and so are two back substitutions: the b that annihilate
a_4..a_0, and the Van der Pol chain, where at c1 = 0 and a given b1,
a_4..a_1 fix b4, b3, b2 and U and become the zero polynomial and a_0 fixes
b0.  An instance only puts P's jet, U and the coefficients in.  This is
the source of truth for the reference formulas checked against it: the
twelve that are polynomials (a_0..a_4, U and f of the chain, the Lienard
b_0..b_4) are kept here as printed text, read into the ring once, and each
kept beside its gap, derived minus reference, which an instance evaluates.
An instance asks for P's jet and for its chain several times, so both
come from one weak memo that holds no node alive: a hit lasts while
something else, such as a bundle, holds what the memo found.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import cache, reduce
from itertools import accumulate, groupby
from typing import Callable, Sequence

from .expr import (ZERO, Add, Const, Div, Expr, Mul, Neg, Param, Pow, Sub,
                   as_expr, diff, parse)

__all__ = ["reduce_vdp", "reduce_lienard", "restoring_coeffs", "vdp_chain",
           "reference_gaps", "jet"]

# the generators, numbered in the order a monomial lists them
W, DDP, DP, P, DU, U, C0, C1, C2, B0, B1, B2, B3, B4 = range(14)
C, B = (C0, C1, C2), (B0, B1, B2, B3, B4)

# A polynomial maps each monomial, the sorted tuple of its generators with
# repeats, to its coefficient: an int, or half of one once U is divided by
# its pivot -2, which float arithmetic keeps exact at these sizes.
Poly = dict


def _add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for m, k in p.items():
            out[m] = out.get(m, 0) + k
    return {m: k for m, k in out.items() if k}


def _mul(p: Poly, q: Poly) -> Poly:
    return _add(*({tuple(sorted(m + n)): k * j}
                  for m, k in p.items() for n, j in q.items()))


# D on the generators that are not its constants (the c_i and b_i); D(P'')
# and D(U') are never needed, and asking for them is a KeyError
_D = {W: {(U,): 1, (W, W): -1}, P: {(DP,): 1}, DP: {(DDP,): 1},
      U: {(DU,): 1}}


def _derive(p: Poly) -> Poly:
    """D(p), by the Leibniz rule."""
    return _add(*(_mul({m[:i] + m[i + 1:]: k}, _D[g])
                  for m, k in p.items() for i, g in enumerate(m) if g < C0))


def _subst(p: Poly, env: dict[int, Poly]) -> Poly:
    """p with each generator in env replaced by its polynomial."""
    return _add(*(reduce(_mul, [env[g] for g in m if g in env],
                         {tuple(g for g in m if g not in env): k})
                  for m, k in p.items()))


def _solve(eq: Poly, u: int) -> Poly:
    """The u that makes eq = p*u + r vanish: -r/p, for a constant pivot
    p of +-1 or +-2 and an r free of u."""
    p = eq.get((u,), 0)
    r = {m: k for m, k in eq.items() if m != (u,)}
    assert p in (1, -1, 2, -2) and not any(u in m for m in r), (u, eq)
    return {m: -k / p if p % 2 == 0 else -k * p for m, k in r.items()}


def _ordered(p: Poly) -> Poly:
    # highest degree in P, U and their derivatives first
    return dict(sorted(p.items(),
                       key=lambda t: (-sum(g < C0 for g in t[0]), t[0])))


@cache
def _reduced() -> tuple[Poly, ...]:
    """a_0..a_4 of the Lienard equation with free c, b, P and U."""
    psi = {(P,): 1, (W,): 1}
    dpsi = _derive(psi)
    powers = list(accumulate([psi] * 4, _mul, initial={(): 1}))
    damping = _add(*(_mul({(g,): 1}, pw) for g, pw in zip(C, powers)))
    restoring = _add(*(_mul({(g,): 1}, pw) for g, pw in zip(B, powers)))
    a: list[Poly] = [{} for _ in range(5)]
    for m, k in _add(_derive(dpsi), _mul(damping, dpsi), restoring).items():
        n = m.count(W)  # W sorts first
        a[n][m[n:]] = k
    return tuple(map(_ordered, a))


@cache
def _restoring() -> tuple[Poly, ...]:
    """b_0..b_4 that annihilate a_4..a_0, top degree first: b_i enters a_i
    with coefficient 1 and a_j, j > i, not at all."""
    a, b = _reduced(), {}
    for i in range(4, -1, -1):
        b[B[i]] = _solve(_subst(a[i], b), B[i])
    return tuple(_ordered(b[g]) for g in B)


@cache
def _chain() -> dict[str, Poly]:
    """The Van der Pol chain: c1 = 0, b1 given, the rest solved for."""
    a, env = _reduced(), {C1: {}}
    for i, u in ((4, B4), (3, B3), (2, B2), (1, U)):
        env[u] = _solve(_subst(a[i], env), u)
    env[B2] = _subst(env[B2], {U: env[U]})
    env[DU] = _derive(env[U])
    assert not any(_subst(a[i], env) for i in range(1, 5))
    env[B0] = _solve(_subst(a[0], env), B0)
    # read off through _NAMED, which states VdpParams.lienard's map
    # b = (-f, alpha, -v, -h, -g) once
    return {name: _ordered(_subst(_NAMED[name], env))
            for name in ("U", "g", "h", "v", "f")}


# The transcribed reference forms the derivation is checked against, as
# printed: over the generators' names and the aliases VdpParams.lienard
# fixes (_NAMED)
_REFERENCE_FORMS = {
    # a_0..a_4 of the Van der Pol equation, c1 = 0
    "vdp": ("ddP + (mu*P^2 - mb)*dP + dU - g*P^4 - h*P^3 + (mu*U - v)*P^2"
            " + alpha*P - mb*U - f",
            "-4*g*P^3 - 3*h*P^2 + (2*mu*dP - 2*v + 2*mu*U)*P - 2*U + alpha",
            "mu*dP - (6*g + mu)*P^2 - 3*h*P - v + mu*U + mb",
            "-(2*mu + 4*g)*P - h + 2",
            "-mu - g"),
    # the forcing f of the Van der Pol chain
    "forcing": ("ddP - 2*mb*dP + (6*dP + alpha + mb^2)*P + 4*(P - mb)*P^2"
                " - mb*alpha/2",),
    # the potential U of the chain, the seeded construction's; P -> mb/3 - P
    # leaves it unchanged
    "seed": ("3*P^2 - mb*P + alpha/2",),
    # the Lienard b_0..b_4 that annihilate a_0..a_4
    "lienard": ("ddP - c0*dP + dU - 2*P^3 + 2*P*U + c0*(P^2 - U)",
                "(6 + c1)*P^2 - 2*c0*P - c1*dP - (c1 + 2)*U",
                "c2*P^2 - 2*(3 - c1)*P - c2*(dP - U) + c0",
                "c1 - 2*c2*P + 2",
                "c2"),
}
_NAMED = {**{name: {(g,): 1} for g, name in enumerate(
              "w ddP dP P dU U c0 c1 c2 b0 b1 b2 b3 b4".split())},
          "mu": {(C2,): 1}, "mb": {(C0,): -1}, "alpha": {(B1,): 1},
          "v": {(B2,): -1}, "h": {(B3,): -1}, "g": {(B4,): -1},
          "f": {(B0,): -1}}


def _read(e: Expr) -> Poly:
    """The polynomial a parsed reference form is: sums, products, whole
    powers and quotients by numbers of the names in _NAMED."""
    t = type(e)
    if t is Const:
        return {(): e.value} if e.value else {}
    if t is Param:
        return _NAMED[e.name]
    if t is Neg:
        return _mul({(): -1}, _read(e.arg))
    if t is Pow:
        return reduce(_mul, [_read(e.base)] * int(e.exponent.value), {(): 1})
    p, q = _read(e.left), _read(e.right)
    if t is Div:
        q = {(): 1 / q[()]}
    elif t is Sub:
        q = _mul({(): -1}, q)
    return _mul(p, q) if t is Mul or t is Div else _add(p, q)


@cache
def _gaps(kind: str) -> tuple[tuple[Poly, Poly], ...]:
    """(reference, derived - reference) of each form of a kind."""
    derived = {"vdp": lambda: [_subst(a, {C1: {}}) for a in _reduced()],
               "forcing": lambda: [_chain()["f"]],
               "seed": lambda: [_chain()["U"]],
               "lienard": _restoring}[kind]()
    refs = [_read(parse(text)) for text in _REFERENCE_FORMS[kind]]
    return tuple((_ordered(r), _add(d, _mul({(): -1}, r)))
                 for d, r in zip(derived, refs))


def _memo(table: weakref.WeakKeyDictionary, node: Expr, key,
          compute: Callable[[], tuple[Expr, ...]]) -> tuple[Expr, ...]:
    """compute(), the nodes derived from node at key, or the ones table
    kept while all of them live.  It holds node weakly, with one key, and
    the derived nodes by weak references, since one of them can hold node
    (the derivative of exp(2*x)*2 is (exp(2*x)*2)*2), so it keeps no node
    alive."""
    hit = table.get(node)
    if hit is not None and hit[0] == key:
        out = tuple(ref() for ref in hit[1])
        if None not in out:
            return out
    out = compute()
    table[node] = key, tuple(map(weakref.ref, out))
    return out


# node -> diff(node); P -> the chain of vdp_chain, keyed by
# the parameters' bits (float.hex tells 0.0 from -0.0)
_DERIVATIVES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CHAINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _derivative(e: Expr) -> Expr:
    """diff(e), from the memo while it is alive; the same ``_memo`` keeps
    the chains of ``vdp_chain``."""
    return _memo(_DERIVATIVES, e, None, lambda: (diff(e),))[0]


def jet(P: Expr) -> tuple[Expr, Expr, Expr]:
    """P, P' and P''."""
    P = as_expr(P)
    dP = _derivative(P)
    return P, dP, _derivative(dP)


def _values(P: Expr, U: Expr, c: Sequence, b: Sequence) -> list:
    """The Expr of each generator: P's and U's jets, then c and b."""
    if len(c) != 3:
        raise ValueError(f"need 3 damping coefficients, got {len(c)}")
    if len(b) != 5:
        raise ValueError(f"need 5 restoring coefficients, got {len(b)}")
    P, dP, ddP = jet(P)
    U = as_expr(U)
    return [None, ddP, dP, P, _derivative(U), U, *map(as_expr, (*c, *b))]


def _expr(p: Poly, values: list) -> Expr:
    """p at the generators' values.  A monomial's coefficient and its
    Const values multiply into one number, summed over the monomials that
    share their other values; a negative one is subtracted.  The number
    is folded as floats, as the constructors fold Consts, while it stays
    finite, and built on as nodes from the first step that is not.  The
    constructors simplify each node as they make it, so the tree is the
    one they make of the sum with a Const for every number."""
    groups: dict[tuple, float | Expr] = {}
    for m, k in p.items():
        num, rest = float(k), []
        for g in m:
            v = values[g]
            if type(v) is Const:
                num = _combine(Mul, num, v.value)
            else:
                rest.append(v)
        key = tuple(rest)
        groups[key] = (_combine(Add, groups[key], num)
                       if key in groups else num)
    total = ZERO
    for rest, num in groups.items():
        if type(num) is float:
            num = Const(num)
        minus = type(num) is Const and num.value < 0
        term = Const(-num.value) if minus else num
        for v, run in groupby(rest):
            n = len(tuple(run))
            term = Mul(term, Pow(v, Const(n)) if n > 1 else v)
        total = (Sub if minus else Add)(total, term)
    return total


_FLOAT_OPS = {Add: operator.add, Mul: operator.mul}


def _combine(t: type, a: float | Expr, b: float | Expr) -> float | Expr:
    """a + b or a * b (t is Add or Mul) as a float if a and b are floats
    and it is finite, else the node t over them."""
    if type(a) is float and type(b) is float:
        v = _FLOAT_OPS[t](a, b)
        if math.isfinite(v):
            return v
    return t(as_expr(a), as_expr(b))


def reduce_vdp(P: Expr, U: Expr, params, v: Expr, h: Expr, g: Expr,
               f: Expr) -> tuple[Expr, ...]:
    """a_0..a_4 of psi'' - mu (beta - psi^2) psi' + alpha psi - v psi^2
    - h psi^3 - g psi^4 - f: the Lienard reduction at the coefficients
    ``params.lienard(v, h, g, f)``."""
    return reduce_lienard(P, U, *params.lienard(v, h, g, f))


def reduce_lienard(P: Expr, U: Expr, c: Sequence[Expr],
                   b: Sequence[Expr]) -> tuple[Expr, ...]:
    """a_0..a_4 of psi'' + (c0 + c1 psi + c2 psi^2) psi' + sum_i b_i psi^i
    for damping c (3 entries) and restoring b (5 entries): the identity
    a4 w^4 + a3 w^3 + a2 w^2 + a1 w + a0 = 0 in w = phi'/phi."""
    values = _values(P, U, c, b)
    return tuple(_expr(a, values) for a in _reduced())


def restoring_coeffs(c: Sequence[Expr], P: Expr, U: Expr) -> tuple[Expr, ...]:
    """The b_0..b_4 that make a_0..a_4 vanish for damping c and the pair
    (P, U), derived exactly."""
    values = _values(P, U, c, (0.0,) * 5)
    return tuple(_expr(b, values) for b in _restoring())


def vdp_chain(P: Expr, params) -> dict[str, Expr]:
    """U, g, h, v and f for the shift P, derived exactly at the c and b_1
    of ``params.lienard``, which do not depend on v, h, g and f.  The
    chain of a P and parameters is derived once while its nodes live."""
    P = as_expr(P)

    def derive() -> tuple[Expr, ...]:
        c, b = params.lienard(0.0, 0.0, 0.0, 0.0)
        assert c[1] == 0.0, "the chain is solved at c1 = 0"
        values = _values(P, 0.0, c, b)
        return tuple(_expr(p, values) for p in _chain().values())

    key = (params.mu.hex(), params.beta.hex(), params.alpha.hex())
    return dict(zip(_chain(), _memo(_CHAINS, P, key, derive)))


def reference_gaps(kind: str, P: Expr, U: Expr, c: Sequence,
                   b: Sequence) -> list[tuple[Expr, Expr]]:
    """Each transcribed form of ``kind`` ("vdp", "forcing", "seed" or
    "lienard") and its gap, derived minus reference, at the pair (P, U) and
    the coefficients c and b.  The gap is exact: one that folds to a number
    decides its check."""
    values = _values(P, U, c, b)
    return [(_expr(r, values), _expr(g, values)) for r, g in _gaps(kind)]
