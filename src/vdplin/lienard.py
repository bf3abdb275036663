"""Lienard equations psi'' + f(psi) psi' + g(psi) = 0 with quadratic
damping polynomial f and quartic restoring polynomial g, classified by the
same substitution psi = P + phi'/phi.

Given damping coefficients c0..c2 and a pair (P, U), the reduced
coefficients a_4..a_0 are linear in the restoring coefficients b_4..b_0
with a triangular structure, so annihilating them is plain back
substitution.  The b_i produced that way are authoritative; the transcribed
reference forms are evaluated against them and the outcome recorded, since
several of them are known to disagree.  The choice U = P^2 - P' (a Riccati
relation: -P is then a logarithmic derivative of a linear solution) kills
b_0 identically with the constant damping term left free.  The Van der
Pol equation is the instance c = (-mu beta, 0, mu), b = (-f, alpha, -v,
-h, -g); ``odesolve.lienard_residual`` measures a trajectory against a
spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .colehopf import PRINTED_COEFF_TOL, LedgerEntry, compare_forms
from .expr import Const, Expr, as_expr, diff, parse, simplify, to_str
from .wcalc import psi_poly, psi_powers, reduce_lienard

__all__ = ["LienardSpec", "lienard_coeffs", "riccati_u",
           "reference_restoring_forms", "lienard_spec_to_json",
           "lienard_spec_from_json"]

_ZERO = Const(0.0)


@dataclass(frozen=True)
class LienardSpec:
    """One linearizable Lienard instance: damping coefficients c, derived
    restoring coefficients b, the pair (P, U) and the cross-check ledger."""

    c: tuple[Expr, Expr, Expr]
    b: tuple[Expr, Expr, Expr, Expr, Expr]
    P: Expr
    U: Expr
    ledger: tuple[LedgerEntry, ...] = field(default_factory=tuple)


def reference_restoring_forms(c: Sequence[Expr], P: Expr,
                              U: Expr) -> tuple[Expr, ...]:
    """Transcribed reference closed forms for b_0..b_4; checks only."""
    c0, c1, c2 = (as_expr(ci) for ci in c)
    dP = diff(P)
    ddP = diff(dP)
    dU = diff(U)
    b4 = c2
    b3 = c1 - 2.0 * c2 * P + 2.0
    b2 = c2 * P ** 2 - 2.0 * (3.0 - c1) * P - c2 * (dP - U) + c0
    b1 = (6.0 + c1) * P ** 2 - 2.0 * c0 * P - c1 * dP - (c1 + 2.0) * U
    b0 = ddP - c0 * dP + dU - 2.0 * P ** 3 + 2.0 * P * U + c0 * (P ** 2 - U)
    return (b0, b1, b2, b3, b4)


def lienard_coeffs(c: Sequence[Expr], P: Expr, U: Expr,
                   grid=None) -> LienardSpec:
    """Solve the engine-derived annihilation conditions for b_4..b_0.

    The coefficient of b_j in a_i is the w^i coefficient of psi^j (a power
    of P times a binomial), zero for i > j, so back substitution from the
    top degree down is exact.  Reference forms are evaluated against the
    derived b and ledgered."""
    if len(c) != 3:
        raise ValueError(f"need 3 damping coefficients, got {len(c)}")
    c = tuple(simplify(as_expr(ci)) for ci in c)
    P = simplify(as_expr(P))
    U = simplify(as_expr(U))

    zeros = [_ZERO] * 5
    base = reduce_lienard(P, U, c, zeros).as_tuple()
    powers = psi_powers(psi_poly(P))

    def psi_pow_coeff(j: int, i: int) -> Expr:
        cs = powers[j].coeffs
        return cs[i] if i < len(cs) else _ZERO

    b: list[Expr] = [_ZERO] * 5
    for i in range(4, -1, -1):
        acc = base[i]
        for j in range(i + 1, 5):
            acc = acc + psi_pow_coeff(j, i) * b[j]
        b[i] = simplify(-acc)

    refs = reference_restoring_forms(c, P, U)
    entries = [compare_forms(f"restoring-coefficient-b{i}", b[i], refs[i],
                             grid, tol=PRINTED_COEFF_TOL)
               for i in range(5)]
    return LienardSpec(c=c, b=tuple(b), P=P, U=U, ledger=tuple(entries))


def riccati_u(P: Expr) -> Expr:
    """U = P^2 - P'.  Substituted into the bottom annihilation condition
    this makes the derived b_0 vanish identically, leaving the constant
    damping coefficient free."""
    P = as_expr(P)
    return simplify(P ** 2 - diff(P))


# ---------------------------------------------------------------------------
# serialization

def lienard_spec_to_dict(spec: LienardSpec) -> dict:
    return {
        "c": [to_str(ci) for ci in spec.c],
        "b": [to_str(bi) for bi in spec.b],
        "P": to_str(spec.P),
        "U": to_str(spec.U),
        "ledger": [e.to_dict() for e in spec.ledger],
    }


def lienard_spec_to_json(spec: LienardSpec) -> str:
    return json.dumps(lienard_spec_to_dict(spec), indent=2) + "\n"


def lienard_spec_from_json(text: str) -> LienardSpec:
    d = json.loads(text)
    return LienardSpec(
        c=tuple(parse(s) for s in d["c"]),
        b=tuple(parse(s) for s in d["b"]),
        P=parse(d["P"]), U=parse(d["U"]),
        ledger=tuple(LedgerEntry.from_dict(e) for e in d.get("ledger", [])),
    )
