"""Closed-form solution families for the unforced case (f = 0).

The general shift P annihilating the forcing is a ratio of three
exponentials with two free constants C1, C2 and decay rate k, where
k^2 = mu^2 beta^2 - 4 alpha.  Three classical specializations are built
here compositionally: the constant-P family (C1 = C2 = 0), the degenerate
k = 0 family, and the alpha = 0 logistic family.  Every printed reference
specialization is re-derived from the general P plus the solve chain and
the comparison recorded in the bundle ledger; at least two of the
transcribed reference forms are known to disagree with the derivation, so
the ledger is part of the deliverable, not a log line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colehopf import (LedgerEntry, TransformBundle, VdpParams, compare_forms,
                       solve_chain)
from .expr import (Const, Expr, Param, X, cos, diff, exp, lambdify, simplify,
                   sin, sqrt, to_str)
from .wcalc import vdp_chain

__all__ = [
    "CatalogConstants", "ClosedFormSolution", "CatalogError", "ComplexKError",
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
class CatalogConstants:
    """Free constants of a catalog solution.  k is stored nonnegative with
    the sign choice exposed separately; omega_sq = -U and nu = sqrt(U) are
    only set in the constant-U families."""

    C1: float
    C2: float
    k: float
    k_sign: int
    c: float
    omega_sq: float | None = None
    nu: float | None = None


@dataclass(frozen=True)
class ClosedFormSolution:
    """A bundle plus the closed-form linear solution phi (with free
    constants C3, C4) when one is available and verified; phi_basis holds
    the two independent solutions separately."""

    bundle: TransformBundle
    phi: Expr | None
    phi_basis: tuple[Expr, Expr] | None
    constants: CatalogConstants


def _power(name: str, value: float, exponent: int) -> float:
    """``value ** exponent`` for a reference constant; float ``**`` raises
    on overflow, and the refusal names the power."""
    try:
        return value ** exponent
    except OverflowError:
        raise CatalogError(f"{name}^{exponent} = {value!r}^{exponent} "
                           "overflows a float") from None


def _k_value(params: VdpParams, k_sign: int) -> tuple[float, float]:
    mb = params.mu * params.beta
    radicand = mb * mb - 4.0 * params.alpha
    if radicand == math.inf:
        raise CatalogError("mu^2 beta^2 - 4 alpha overflows a float")
    if radicand < 0.0:
        raise ComplexKError(
            f"mu^2 beta^2 - 4 alpha = {radicand:g} < 0; no real decay rate")
    if k_sign not in (1, -1):
        raise ValueError(f"k_sign must be +1 or -1, got {k_sign!r}")
    k = math.sqrt(radicand)
    return k, k_sign * k


def p_general(params: VdpParams, C1: float, C2: float, k_sign: int = 1,
              check: bool = True) -> Expr:
    """The general f = 0 shift

        P = (2 C1 mb e^{mb x/2} + C2 (mb+k) e^{k x/2} + (mb-k) e^{-k x/2})
            / (4 (C1 e^{mb x/2} + C2 e^{k x/2} + e^{-k x/2}))

    with mb = mu*beta and k = k_sign * sqrt(mu^2 beta^2 - 4 alpha).  With
    ``check`` on, the induced forcing is evaluated away from zeros of the
    denominator and must vanish to 1e-9."""
    _, k = _k_value(params, k_sign)
    mb = params.mu * params.beta
    e_mb = exp(Const(mb / 2.0) * X)
    e_k = exp(Const(k / 2.0) * X)
    e_mk = exp(Const(-k / 2.0) * X)
    num = (Const(2.0 * C1 * mb) * e_mb + Const(C2 * (mb + k)) * e_k
           + Const(mb - k) * e_mk)
    den = Const(C1) * e_mb + Const(C2) * e_k + e_mk
    P = simplify(num / (4.0 * den))
    if check:
        _check_general_forcing(P, den, params, C1, C2, k)
    return P


def _check_general_forcing(P: Expr, den: Expr, params: VdpParams,
                           C1: float, C2: float, k: float) -> None:
    # mask points close to denominator zeros: there the algebraic zero of f
    # is swamped by catastrophic cancellation
    xs = np.linspace(0.0, 5.0, 801)
    mb = params.mu * params.beta
    dvals = lambdify(den)(xs)
    scale = (abs(C1) * np.exp(mb * xs / 2.0) + abs(C2) * np.exp(k * xs / 2.0)
             + np.exp(-k * xs / 2.0))
    mask = np.isfinite(dvals) & (np.abs(dvals) >= 0.1 * scale)
    if not mask.any():
        return
    f = vdp_chain(P, params)["f"]
    fvals = lambdify(f)(xs[mask])
    worst = float(np.max(np.abs(fvals[np.isfinite(fvals)])))
    if worst > 1e-9:
        raise CatalogError(
            f"general P does not annihilate the forcing: max|f| = {worst:g}")


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


def _phi_from_basis(basis: tuple[Expr, Expr]) -> Expr:
    return simplify(C3 * basis[0] + C4 * basis[1])


def _constant_value(e: Expr, what: str) -> float:
    e = simplify(e)
    if not isinstance(e, Const):
        raise CatalogError(f"{what} did not fold to a constant: {to_str(e)}")
    return e.value


def _basis_residual_entry(name: str, basis: tuple[Expr, Expr],
                          U: Expr) -> tuple[LedgerEntry, bool]:
    """Check |phi'' - U phi| <= tol * max(1, |phi|) for both basis
    functions on 501 points of [0, 5], tol = 1e-9; returns the ledger
    entry and whether the check passed."""
    xs = np.linspace(0.0, 5.0, 501)
    tol = 1e-9
    worst = 0.0
    points = 0
    for b in basis:
        resid = lambdify(simplify(diff(diff(b)) - U * b))(xs)
        scale = np.maximum(1.0, np.abs(lambdify(b)(xs)))
        ok = np.isfinite(resid) & np.isfinite(scale)
        if ok.any():
            worst = max(worst, float(np.max(np.abs(resid[ok]) / scale[ok])))
            points += int(ok.sum())
    passed = points > 0 and worst <= tol
    note = "" if points else "not evaluated: no regular grid points"
    ref = " ; ".join(to_str(simplify(b)) for b in basis)
    return (LedgerEntry(name, passed if points else None,
                        worst if points else None, tol, points, ref, note),
            passed)


def case1(params: VdpParams, k_sign: int = 1) -> ClosedFormSolution:
    """Constant-shift family, C1 = C2 = 0: P = (mu*beta - k)/4.

    The induced potential folds to the constant ((mu*beta - k)/4)^2, always
    nonnegative, so the real linear basis is exponential (degenerating to
    {1, x} at k = mu*beta).  The reference trigonometric form's frequency
    satisfies omega^2 = -U and is recorded as such in the ledger."""
    k_abs, k = _k_value(params, k_sign)
    mb = params.mu * params.beta
    P = Const((mb - k) / 4.0)
    bundle = solve_chain(P, params)

    entries = [
        compare_forms("case1-P-from-general-P",
                      p_general(params, 0.0, 0.0, k_sign, check=False), P),
        compare_forms("case1-reference-U", bundle.U,
                      Const(params.alpha / 2.0 + (3 * k + mb) * (k - mb) / 16.0)),
        compare_forms("case1-reference-v", bundle.v,
                      Const(-_power("mu", params.mu, 3)
                            * _power("beta", params.beta, 2) / 8.0
                            + params.mu / 2.0 * (params.alpha - params.beta
                                                 + k * k / 4.0)
                            + 3.0 * k / 2.0)),
        compare_forms("case1-reference-h", bundle.h,
                      Const(params.mu / 2.0 * (mb - k) + 2.0)),
    ]
    u0 = _constant_value(bundle.U, "case1 potential")
    omega_sq_ref = (mb * mb + 2.0 * mb * k - 3.0 * k * k
                    - 8.0 * params.alpha) / 16.0
    entries.append(compare_forms(
        "case1-reference-omega-squared-vs-minus-U",
        Const(omega_sq_ref), Const(-u0), tol=1e-12))

    basis = linear_basis(u0)
    basis_entry, _ = _basis_residual_entry("case1-basis-solves-linear-eq",
                                           basis, bundle.U)
    entries.append(basis_entry)

    constants = CatalogConstants(C1=0.0, C2=0.0, k=k_abs, k_sign=k_sign,
                                 c=0.0, omega_sq=-u0,
                                 nu=math.sqrt(u0) if u0 > 0 else 0.0)
    return ClosedFormSolution(bundle=bundle.with_entries(entries),
                              phi=_phi_from_basis(basis), phi_basis=basis,
                              constants=constants)


def case2(params: VdpParams) -> ClosedFormSolution:
    """Degenerate-rate family, k = 0 and C1 = 0, which forces
    alpha = mu^2 beta^2 / 4 and P = mu*beta/4.

    The reference solution is written trigonometrically with
    omega = sqrt(mu^2 beta^2 - 8 alpha)/4, but omega^2 = -mu^2 beta^2/16
    is nonpositive for every real parameter set, so the real basis is
    hyperbolic; the discrepancy is recorded in the ledger."""
    mb = params.mu * params.beta
    if abs(params.alpha - mb * mb / 4.0) > 1e-12:
        raise KZeroInconsistentError(
            f"k = 0 needs alpha = mu^2 beta^2/4 = {mb * mb / 4.0:g}, "
            f"got {params.alpha:g}")
    P = Const(mb / 4.0)
    bundle = solve_chain(P, params)

    entries = [
        compare_forms("case2-P-from-general-P",
                      p_general(params, 0.0, 0.0, 1, check=False), P),
        compare_forms("case2-reference-U", bundle.U,
                      Const(params.alpha / 2.0 - mb * mb / 16.0)),
        compare_forms("case2-reference-h", bundle.h,
                      Const(_power("mu", params.mu, 2) * params.beta / 2.0
                            + 2.0)),
        compare_forms("case2-reference-v", bundle.v,
                      Const(params.mu / 2.0 * (params.alpha - params.beta
                                               - mb * mb / 4.0))),
    ]
    u0 = _constant_value(bundle.U, "case2 potential")
    omega_sq_ref = (mb * mb - 8.0 * params.alpha) / 16.0
    entries.append(compare_forms(
        "case2-reference-omega-squared-vs-minus-U",
        Const(omega_sq_ref), Const(-u0), tol=1e-12))
    if u0 > 0:
        entries.append(LedgerEntry(
            "case2-reference-trig-basis", False, None, 0.0, 0,
            "cos/sin with omega^2 = (mu^2 beta^2 - 8 alpha)/16",
            "omega^2 = -U <= 0 for real parameters; the real basis is "
            "exponential with rate |mu*beta|/4"))

    basis = linear_basis(u0)
    basis_entry, _ = _basis_residual_entry("case2-basis-solves-linear-eq",
                                           basis, bundle.U)
    entries.append(basis_entry)

    constants = CatalogConstants(C1=0.0, C2=0.0, k=0.0, k_sign=1, c=0.0,
                                 omega_sq=-u0,
                                 nu=math.sqrt(u0) if u0 > 0 else 0.0)
    return ClosedFormSolution(bundle=bundle.with_entries(entries),
                              phi=_phi_from_basis(basis), phi_basis=basis,
                              constants=constants)


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
    k_sign = 1 if mb >= 0 else -1

    e_neg = exp(Const(-mb) * X)
    P = simplify(Const(c * mb) / (2.0 * (Const(c) + e_neg)))
    bundle = solve_chain(P, params)

    e_pos = exp(Const(mb) * X)
    ref_P = Const(c * mb) * exp(Const(mb / 2.0) * X) / (Const(c) + e_neg)
    ref_U = -(Const(c * mb * mb) * (e_neg - Const(c))) / (e_neg + Const(c)) ** 2
    ref_v = Const(mb) * (e_neg - Const(2.0 * c)) / (e_neg + Const(c))
    ref_h = 2.0 + (Const(_power("mu", params.mu, 2) * params.beta * c)
                   / (e_neg + Const(c)))

    entries = [
        compare_forms("case3-P-from-general-P",
                      p_general(params, c, 0.0, k_sign, check=False), P),
        compare_forms("case3-reference-P", P, ref_P),
        compare_forms("case3-reference-U", bundle.U, ref_U),
        compare_forms("case3-reference-v", bundle.v, ref_v),
        compare_forms("case3-reference-h", bundle.h, ref_h),
    ]

    root = sqrt(Const(1.0) + Const(c) * e_pos)
    basis = (simplify(Const(1.0) / root),
             simplify((Const(c) * e_pos + Const(mb) * X) / root))
    basis_entry, basis_ok = _basis_residual_entry(
        "case3-reference-phi-solves-linear-eq", basis, bundle.U)
    entries.append(basis_entry)

    if basis_ok:
        phi: Expr | None = _phi_from_basis(basis)
        phi_basis: tuple[Expr, Expr] | None = basis
    else:
        phi = None
        phi_basis = None
        entries.append(LedgerEntry(
            "case3-phi-fallback", False, None, 1e-9, 0, "",
            "reference phi inconsistent with derived potential; "
            "integrate the linear equation numerically"))

    constants = CatalogConstants(C1=c, C2=0.0, k=abs(mb), k_sign=k_sign, c=c)
    return ClosedFormSolution(bundle=bundle.with_entries(entries),
                              phi=phi, phi_basis=phi_basis,
                              constants=constants)
