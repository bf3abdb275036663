"""Lienard equations psi'' + f(psi) psi' + g(psi) = 0 with quadratic
damping polynomial f and quartic restoring polynomial g, classified by the
same substitution psi = P + phi'/phi.

Given damping coefficients c0..c2 and a pair (P, U), the reduced
coefficients a_4..a_0 are linear in the restoring coefficients b_4..b_0
with a triangular structure, so ``wcalc`` derives them exactly, once, by
back substitution.  They are authoritative; the transcribed reference
forms are checked against them by their gaps in the same ring, and the
outcome recorded: b_4 agrees and b_3 is off by -4, exactly, and the gaps
of b_2..b_0, polynomials in P's and U's jets, are sampled wherever they
depend on x.  The choice U = P^2 - P' (a Riccati
relation: -P is then a logarithmic derivative of a linear solution) makes
the derived b_0 the zero polynomial, with the damping left free.  The Van der
Pol equation is one instance, with the c and b of
``colehopf.VdpParams.lienard``; ``odesolve.lienard_residual`` measures a
trajectory against a spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .colehopf import (PRINTED_COEFF_TOL, LedgerEntry, gap_entries,
                       reading_document)
from .expr import Expr, as_expr, diff, parse, simplify, to_str
from .wcalc import reference_gaps, restoring_coeffs

__all__ = ["LienardSpec", "lienard_coeffs", "riccati_u",
           "lienard_spec_to_json", "lienard_spec_from_json"]


@dataclass(frozen=True)
class LienardSpec:
    """One linearizable Lienard instance: damping coefficients c, derived
    restoring coefficients b, the pair (P, U) and the cross-check ledger."""

    c: tuple[Expr, Expr, Expr]
    b: tuple[Expr, Expr, Expr, Expr, Expr]
    P: Expr
    U: Expr
    ledger: tuple[LedgerEntry, ...] = field(default_factory=tuple)


def lienard_coeffs(c: Sequence[Expr], P: Expr, U: Expr,
                   grid=None) -> LienardSpec:
    """The b_0..b_4 that annihilate a_0..a_4, derived exactly by the
    reduction's back substitution; the reference forms are checked against
    them by their gaps (``colehopf.gap_entries``) and ledgered."""
    c = tuple(simplify(as_expr(ci)) for ci in c)
    P = simplify(as_expr(P))
    U = simplify(as_expr(U))
    b = restoring_coeffs(c, P, U)
    gaps = reference_gaps("lienard", P, U, c, (0.0,) * 5)
    ledger = gap_entries([f"restoring-coefficient-b{i}" for i in range(5)],
                         gaps, grid, PRINTED_COEFF_TOL)
    return LienardSpec(c=c, b=b, P=P, U=U, ledger=tuple(ledger))


def riccati_u(P: Expr) -> Expr:
    """U = P^2 - P'.  Substituted into the bottom annihilation condition
    this makes the derived b_0 vanish identically, leaving the damping
    coefficients free."""
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
    """Rebuild a spec; a document of the wrong shape raises
    ``BundleFormatError``, an expression that does not parse ``ParseError``."""
    d = json.loads(text)
    with reading_document(d, "lienard spec"):
        return LienardSpec(
            c=tuple(parse(s) for s in d["c"]),
            b=tuple(parse(s) for s in d["b"]),
            P=parse(d["P"]), U=parse(d["U"]),
            ledger=tuple(map(LedgerEntry.from_dict, d.get("ledger", []))),
        )
