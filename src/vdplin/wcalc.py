"""Reduction of polynomial second-order ODEs to polynomials in w = phi'/phi.

Substituting psi = P + w into an equation polynomial in psi and psi', and
rewriting phi'' as U*phi at every step (so that w' = U - w^2), turns the
equation into an identity sum_i a_i(x) w^i = 0.  The coefficients a_i are
produced here by plain polynomial arithmetic over Expr coefficients; no
closed-form coefficient expression is ever transcribed.  This makes the
module the machine source of truth against which transcribed reference
formulas are checked elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import Const, Expr, as_expr, diff, simplify

__all__ = ["WPoly", "CoeffSet", "WDegreeError", "wpoly", "psi_poly",
           "psi_powers", "w_derive", "reduce_vdp", "reduce_lienard",
           "MAX_DEGREE"]

# psi'' contributes w^3 and (psi^2)psi' at most w^4; anything above 6 means
# the equation assembly is malformed
MAX_DEGREE = 6

_ZERO = Const(0.0)


class WDegreeError(Exception):
    """Internal degree cap exceeded; the assembled equation is malformed."""


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


@dataclass(frozen=True)
class WPoly:
    """Polynomial in w with Expr coefficients, coeffs[i] multiplying w^i."""

    coeffs: tuple[Expr, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "WPoly") -> "WPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else _ZERO
            b = other.coeffs[i] if i < len(other.coeffs) else _ZERO
            out.append(a + b)
        return wpoly(out)

    def __mul__(self, other: "WPoly") -> "WPoly":
        deg = self.degree + other.degree
        if deg > MAX_DEGREE:
            raise WDegreeError(f"degree {deg} exceeds cap {MAX_DEGREE}")
        out: list[Expr] = [_ZERO] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if _is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return wpoly(out)

    def scale(self, factor: Expr) -> "WPoly":
        return wpoly([factor * c for c in self.coeffs])


def wpoly(coeffs: Sequence[Expr | float]) -> WPoly:
    """Build a WPoly, simplifying coefficients and trimming a leading run of
    literal zeros so the stored degree is canonical."""
    cs = [simplify(as_expr(c)) for c in coeffs]
    while len(cs) > 1 and _is_zero(cs[-1]):
        cs.pop()
    if not cs:
        cs = [_ZERO]
    return WPoly(tuple(cs))


def psi_poly(P: Expr) -> WPoly:
    """psi = P + w as a polynomial in w."""
    return wpoly([P, 1.0])


def psi_powers(psi: WPoly) -> list[WPoly]:
    """psi^0, ..., psi^4, each the previous times psi."""
    powers = [wpoly([Const(1.0)])]
    for _ in range(4):
        powers.append(powers[-1] * psi)
    return powers


def w_derive(p: WPoly, U: Expr) -> WPoly:
    """d/dx of p(x, w) along solutions of phi'' = U*phi.

    Uses w' = U - w^2, so d/dx (c_n w^n) = c_n' w^n + n c_n U w^(n-1)
    - n c_n w^(n+1).  Degree grows by at most one.
    """
    if p.degree + 1 > MAX_DEGREE:
        raise WDegreeError(f"degree {p.degree + 1} exceeds cap {MAX_DEGREE}")
    out: list[Expr] = [_ZERO] * (len(p.coeffs) + 1)
    for n, c in enumerate(p.coeffs):
        out[n] = out[n] + diff(c)
        if n > 0:
            nc = Const(float(n)) * c
            out[n - 1] = out[n - 1] + nc * U
            out[n + 1] = out[n + 1] - nc
    return wpoly(out)


@dataclass(frozen=True)
class CoeffSet:
    """The five coefficient functions of the reduced identity
    a4 w^4 + a3 w^3 + a2 w^2 + a1 w + a0 = 0."""

    a0: Expr
    a1: Expr
    a2: Expr
    a3: Expr
    a4: Expr

    def as_tuple(self) -> tuple[Expr, Expr, Expr, Expr, Expr]:
        return (self.a0, self.a1, self.a2, self.a3, self.a4)


def _coeff_set(poly: WPoly) -> CoeffSet:
    if poly.degree > 4:
        raise WDegreeError(f"reduced equation has degree {poly.degree} > 4")
    cs = list(poly.coeffs) + [_ZERO] * (5 - len(poly.coeffs))
    return CoeffSet(*cs)


def reduce_vdp(P: Expr, U: Expr, params, v: Expr, h: Expr, g: Expr,
               f: Expr) -> CoeffSet:
    """Coefficients in w of

        psi'' - mu (beta - psi^2) psi' + alpha psi
              - v psi^2 - h psi^3 - g psi^4 - f

    after substituting psi = P + w and rewriting phi'' = U phi: the
    Lienard reduction at the coefficients ``params.lienard(v, h, g, f)``."""
    return reduce_lienard(P, U, *params.lienard(v, h, g, f))


def reduce_lienard(P: Expr, U: Expr, c: Sequence[Expr],
                   b: Sequence[Expr]) -> CoeffSet:
    """Coefficients in w of

        psi'' + (c0 + c1 psi + c2 psi^2) psi' + sum_i b_i psi^i

    after the same substitution.  c has exactly 3 entries (damping
    polynomial), b exactly 5 (restoring polynomial)."""
    if len(c) != 3:
        raise ValueError(f"need 3 damping coefficients, got {len(c)}")
    if len(b) != 5:
        raise ValueError(f"need 5 restoring coefficients, got {len(b)}")

    psi = psi_poly(P)
    dpsi = w_derive(psi, U)
    ddpsi = w_derive(dpsi, U)
    powers = psi_powers(psi)

    damping = wpoly([0.0])
    for i, ci in enumerate(c):
        damping = damping + powers[i].scale(as_expr(ci))
    restoring = wpoly([0.0])
    for i, bi in enumerate(b):
        restoring = restoring + powers[i].scale(as_expr(bi))

    poly = ddpsi + damping * dpsi + restoring
    return _coeff_set(poly)
