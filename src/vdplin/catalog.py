"""Closed-form solution families for the unforced case (f = 0).

The general shift P annihilating the forcing is a ratio of three
exponentials with two free constants C1, C2 and decay rate k, where
k^2 = mu^2 beta^2 - 4 alpha; it is the Cole-Hopf form of its denominator,
so f = 0 holds identically and is not sampled.  Three classical specializations are built
here compositionally: the constant-P family (C1 = C2 = 0), the degenerate
k = 0 family, and the alpha = 0 logistic family.  Each states only its
shift, the constants of p_general it specializes, its transcribed
reference rows and its basis; one builder runs the solve chain, checks the
shift against the general P and the rows against the chain on a grid,
checks the basis, and records every comparison in the bundle ledger.  At
least two of the transcribed reference forms are known to disagree with
the derivation, so the ledger is part of the deliverable, not a log line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colehopf import (LedgerEntry, TransformBundle, VdpParams, compare_forms,
                       solve_chain)
from .expr import (Const, Expr, Param, X, cos, exp, lambdify, sin, sqrt,
                   to_str)
from .wcalc import derivative

__all__ = [
    "ClosedFormSolution", "CatalogError", "ComplexKError",
    "KZeroInconsistentError", "AlphaNonzeroError", "p_general", "case1",
    "case2", "case3", "linear_basis", "CONSTANT_U_TOL",
]

CONSTANT_U_TOL = 1e-12

C3 = Param("C3")
C4 = Param("C4")


class CatalogError(Exception):
    pass


class ComplexKError(CatalogError):
    """mu^2 beta^2 < 4 alpha: the decay rate k is imaginary and the
    catalog refuses; arbitrary real P still works through solve_chain."""


class KZeroInconsistentError(CatalogError):
    """k = 0 forces alpha = mu^2 beta^2 / 4."""


class AlphaNonzeroError(CatalogError):
    """The logistic family requires alpha = 0."""


@dataclass(frozen=True)
class ClosedFormSolution:
    """A bundle plus the two independent solutions phi_basis of the linear
    equation when they are available and verified."""

    bundle: TransformBundle
    phi_basis: tuple[Expr, Expr] | None

    @property
    def phi(self) -> Expr | None:
        """The closed-form linear solution C3 phi_1 + C4 phi_2, with free
        constants C3 and C4, when there is a basis."""
        if self.phi_basis is None:
            return None
        return C3 * self.phi_basis[0] + C4 * self.phi_basis[1]


def _power(name: str, value: float, exponent: int) -> float:
    """``value ** exponent`` for a reference constant; float ``**`` raises
    on overflow, and the refusal names the power."""
    try:
        return value ** exponent
    except OverflowError:
        raise CatalogError(f"{name}^{exponent} = {value!r}^{exponent} "
                           "overflows a float") from None


def _k_value(params: VdpParams, k_sign: int) -> float:
    mb = params.mu * params.beta
    radicand = mb * mb - 4.0 * params.alpha
    if radicand == math.inf:
        raise CatalogError("mu^2 beta^2 - 4 alpha overflows a float")
    if radicand < 0.0:
        raise ComplexKError(
            f"mu^2 beta^2 - 4 alpha = {radicand:g} < 0; no real decay rate")
    if k_sign not in (1, -1):
        raise ValueError(f"k_sign must be +1 or -1, got {k_sign!r}")
    return k_sign * math.sqrt(radicand)


def p_general(params: VdpParams, C1: float, C2: float, k_sign: int = 1) -> Expr:
    """The general f = 0 shift

        P = (2 C1 mb e^{mb x/2} + C2 (mb+k) e^{k x/2} + (mb-k) e^{-k x/2})
            / (4 (C1 e^{mb x/2} + C2 e^{k x/2} + e^{-k x/2}))

    with mb = mu*beta and k = k_sign * sqrt(mu^2 beta^2 - 4 alpha).  P is
    the Cole-Hopf form mb/4 + D'/(2D) of its denominator D, which solves
    the third-order linear equation with roots mb/2 and +-k/2, so the
    forcing f vanishes identically: with D's third derivative rewritten by
    that equation, D^3 f is the zero polynomial in D, D', D'' and the
    parameters, as ``tests/test_catalog.py::
    test_general_shift_annihilates_the_forcing`` proves in the ring.  A
    constant that is not finite, or overflows a float in the numerator, is
    refused by name.  At C1 = C2 = 0 the quotient is the constant
    (mb - k)/4 wherever it is defined, and that constant is returned."""
    k = _k_value(params, k_sign)
    mb = params.mu * params.beta
    if C1 == 0.0 and C2 == 0.0:
        return Const((mb - k) / 4.0)
    e_mb = exp(Const(mb / 2.0) * X)
    e_k = exp(Const(k / 2.0) * X)
    e_mk = exp(Const(-k / 2.0) * X)
    num = (_scaled("C1", C1, 2.0 * C1 * mb) * e_mb
           + _scaled("C2", C2, C2 * (mb + k)) * e_k + Const(mb - k) * e_mk)
    den = Const(C1) * e_mb + Const(C2) * e_k + e_mk
    return num / (4.0 * den)


def _scaled(name: str, value: float, term: float) -> Const:
    """``Const(term)`` for a numerator term of the free constant ``value``;
    float ``*`` gives inf or nan instead of raising, and the refusal names
    the constant."""
    if not math.isfinite(value):
        raise CatalogError(f"{name} = {value!r} is not finite")
    if not math.isfinite(term):
        raise CatalogError(f"{name} = {value!r} overflows a float in the "
                           f"numerator of P ({term!r})")
    return Const(term)


def linear_basis(u0: float) -> tuple[Expr, Expr]:
    """Real solution basis of phi'' = u0 phi for constant u0: exponentials
    for u0 > 0, {1, x} at u0 = 0, trigonometric for u0 < 0."""
    if u0 > CONSTANT_U_TOL:
        nu = math.sqrt(u0)
        return exp(Const(nu) * X), exp(Const(-nu) * X)
    if u0 < -CONSTANT_U_TOL:
        om = math.sqrt(-u0)
        return cos(Const(om) * X), sin(Const(om) * X)
    return Const(1.0), X


def _basis_residual_entry(name: str, basis: tuple[Expr, Expr],
                          U: Expr) -> LedgerEntry:
    """Check |phi'' - U phi| <= tol * max(1, |phi|) for both basis
    functions on 501 points of [0, 5], tol = 1e-9; a point counts where
    the residual and the scale are both finite."""
    xs = np.linspace(0.0, 5.0, 501)
    rel = []
    for b in basis:
        resid = np.abs(lambdify(derivative(derivative(b)) - U * b)(xs))
        scale = np.maximum(1.0, np.abs(lambdify(b)(xs)))
        rel.append(np.divide(resid, scale, out=np.full_like(xs, np.nan),
                             where=np.isfinite(resid) & np.isfinite(scale)))
    return LedgerEntry.from_samples(name, np.concatenate(rel), 1e-9,
                                    " ; ".join(map(to_str, basis)))


def _family(name: str, params: VdpParams, P: Expr, C1: float, k_sign: int,
            basis, rows) -> ClosedFormSolution:
    """The solution of a family with shift P = p_general(params, C1, 0,
    k_sign).  After solve_chain's entry its ledger checks that P, the
    family's transcribed ``rows(bundle, u0)``, each (check, derived,
    reference, tol) or an entry decided already, and the basis.  With
    ``basis`` None the potential must be a constant u0, whose real basis
    is taken; a transcribed basis is kept only if it solves the linear
    equation, else phi is left to integration."""
    bundle = solve_chain(P, params)
    entries = [compare_forms(f"{name}-P-from-general-P",
                             p_general(params, C1, 0.0, k_sign), P)]
    U = bundle.U
    if basis is None and not isinstance(U, Const):
        raise CatalogError(f"{name} potential did not fold to a constant: "
                           f"{to_str(U)}")
    u0 = U.value if basis is None else None
    entries += [row if isinstance(row, LedgerEntry)
                else compare_forms(*row[:3], tol=row[3])
                for row in rows(bundle, u0)]
    if basis is None:
        basis = linear_basis(u0)
        entries.append(_basis_residual_entry(
            f"{name}-basis-solves-linear-eq", basis, bundle.U))
    else:
        entries.append(_basis_residual_entry(
            f"{name}-reference-phi-solves-linear-eq", basis, bundle.U))
        if entries[-1].agrees is not True:
            basis = None
            entries.append(LedgerEntry(
                f"{name}-phi-fallback", False, None, 1e-9, 0, "",
                "reference phi inconsistent with derived potential; "
                "integrate the linear equation numerically"))
    return ClosedFormSolution(bundle.with_entries(entries), basis)


def case1(params: VdpParams, k_sign: int = 1) -> ClosedFormSolution:
    """Constant-shift family, C1 = C2 = 0: P = (mu*beta - k)/4.

    The induced potential folds to the constant ((mu*beta - k)/4)^2, always
    nonnegative, so the real linear basis is exponential (degenerating to
    {1, x} at k = mu*beta).  The reference trigonometric form's frequency
    satisfies omega^2 = -U and is recorded as such in the ledger."""
    k = _k_value(params, k_sign)
    mu, beta, alpha = params.mu, params.beta, params.alpha
    mb = mu * beta
    return _family("case1", params, Const((mb - k) / 4.0), 0.0, k_sign, None,
                   lambda b, u0: [
        ("case1-reference-U", b.U,
         Const(alpha / 2.0 + (3 * k + mb) * (k - mb) / 16.0), 1e-9),
        ("case1-reference-v", b.v,
         Const(-_power("mu", mu, 3) * _power("beta", beta, 2) / 8.0
               + mu / 2.0 * (alpha - beta + k * k / 4.0) + 3.0 * k / 2.0),
         1e-9),
        ("case1-reference-h", b.h, Const(mu / 2.0 * (mb - k) + 2.0), 1e-9),
        ("case1-reference-omega-squared-vs-minus-U",
         Const((mb * mb + 2.0 * mb * k - 3.0 * k * k - 8.0 * alpha) / 16.0),
         Const(-u0), 1e-12)])


def case2(params: VdpParams) -> ClosedFormSolution:
    """Degenerate-rate family, k = 0 and C1 = 0, which forces
    alpha = mu^2 beta^2 / 4 and P = mu*beta/4.

    The reference solution is written trigonometrically with
    omega = sqrt(mu^2 beta^2 - 8 alpha)/4, but omega^2 = -mu^2 beta^2/16
    is nonpositive for every real parameter set, so the real basis is
    hyperbolic; the discrepancy is recorded in the ledger."""
    mu, beta, alpha = params.mu, params.beta, params.alpha
    mb = mu * beta
    if abs(alpha - mb * mb / 4.0) > 1e-12:
        raise KZeroInconsistentError(
            f"k = 0 needs alpha = mu^2 beta^2/4 = {mb * mb / 4.0:g}, "
            f"got {alpha:g}")
    trig = LedgerEntry(
        "case2-reference-trig-basis", False, None, 0.0, 0,
        "cos/sin with omega^2 = (mu^2 beta^2 - 8 alpha)/16",
        "omega^2 = -U <= 0 for real parameters; the real basis is "
        "exponential with rate |mu*beta|/4")
    return _family("case2", params, Const(mb / 4.0), 0.0, 1, None,
                   lambda b, u0: [
        ("case2-reference-U", b.U, Const(alpha / 2.0 - mb * mb / 16.0), 1e-9),
        ("case2-reference-h", b.h,
         Const(_power("mu", mu, 2) * beta / 2.0 + 2.0), 1e-9),
        ("case2-reference-v", b.v,
         Const(mu / 2.0 * (alpha - beta - mb * mb / 4.0)), 1e-9),
        ("case2-reference-omega-squared-vs-minus-U",
         Const((mb * mb - 8.0 * alpha) / 16.0), Const(-u0), 1e-12),
        *([trig] if u0 > 0 else [])])


def case3(params: VdpParams, c: float) -> ClosedFormSolution:
    """Logistic family, alpha = 0, k = +mu*beta.

    The general P collapses to P = c mu beta / (2 (c + e^{-mu beta x})),
    c = C1 + C2.  The transcribed reference forms for P and U disagree with
    this derivation (both recorded); the reference v, h and the reference
    linear solution

        phi = (C3 + C4 (c e^{mb x} + mb x)) / sqrt(1 + c e^{mb x})

    are checked too, and phi is kept only if it actually solves the linear
    equation for the derived potential, otherwise trajectories must be
    produced numerically."""
    if params.alpha != 0.0:
        raise AlphaNonzeroError(f"this family needs alpha = 0, got {params.alpha:g}")
    mb = params.mu * params.beta
    e_neg, e_pos, cc = exp(Const(-mb) * X), exp(Const(mb) * X), Const(c)
    P = Const(c * mb) / (2.0 * (cc + e_neg))
    root = sqrt(Const(1.0) + cc * e_pos)
    basis = (Const(1.0) / root, (cc * e_pos + Const(mb) * X) / root)
    return _family("case3", params, P, c, 1 if mb >= 0 else -1, basis,
                   lambda b, u0: [
        ("case3-reference-P", P,
         Const(c * mb) * exp(Const(mb / 2.0) * X) / (cc + e_neg), 1e-9),
        ("case3-reference-U", b.U,
         -(Const(c * mb * mb) * (e_neg - cc)) / (e_neg + cc) ** 2, 1e-9),
        ("case3-reference-v", b.v,
         Const(mb) * (e_neg - Const(2.0 * c)) / (e_neg + cc), 1e-9),
        ("case3-reference-h", b.h,
         2.0 + (Const(_power("mu", params.mu, 2) * params.beta * c)
                / (e_neg + cc)), 1e-9)])
