"""Shared helpers: random instance generation for the annihilation and
round-trip suites, the growth-budget window used to keep the direct
nonlinear integration inside its conditioning limits, and a counter of
compiled scalar code."""

import numpy as np

from vdplin import expr
from vdplin.catalog import p_general
from vdplin.colehopf import VdpParams, solve_chain
from vdplin.expr import lambdify, simplify
from vdplin.odesolve import (Grid, IntegratorConfig, StepUnderflowError,
                             cole_hopf_map, compare, integrate_linear,
                             integrate_vdp, regular_window)

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


def draw_vdp_instance(rng):
    """Random parameters with mu, beta in [-2, 2] excluding zero, alpha at
    or below the real-rate threshold mu^2 beta^2 / 4, and C1, C2 in
    [-1, 1]."""
    while True:
        mu = rng.uniform(-2, 2)
        beta = rng.uniform(-2, 2)
        if abs(mu) >= 0.05 and abs(beta) >= 0.05:
            break
    alpha = rng.uniform(-2.0, (mu * beta) ** 2 / 4.0)
    C1, C2 = rng.uniform(-1, 1, 2)
    k_sign = 1 if rng.random() < 0.5 else -1
    return VdpParams(mu, beta, alpha), float(C1), float(C2), k_sign


def general_instances(count, seed):
    """``count`` (params, P) pairs of general-P instances drawn from
    ``seed``; a draw that ``p_general`` refuses fails the caller."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        params, C1, C2, k_sign = draw_vdp_instance(rng)
        out.append((params, p_general(params, C1, C2, k_sign)))
    return out


def pole_free_window(params, P):
    """A window of [0, 5] on which the general-P shift P stays finite and
    bounded."""
    k = np.sqrt((params.mu * params.beta) ** 2 - 4 * params.alpha)
    cap = 4.0 + abs(params.mu * params.beta) + k
    return regular_window([P], 0.0, 5.0, cap=cap)


def build_instance(rng):
    """Random general-P bundle plus a pole-free window of [0, 5]."""
    params, C1, C2, k_sign = draw_vdp_instance(rng)
    P = p_general(params, C1, C2, k_sign)
    bundle = solve_chain(P, params)
    a, b = pole_free_window(params, P)
    return bundle, a, b


def sampled_annihilation(bundle, xs):
    """The largest |a_i| on xs of the bundle's a_0..a_4, built by the
    engine and sampled, whatever ``verify_annihilation`` decides."""
    return max(float(np.max(np.abs(lambdify(a)(xs))))
               for a in bundle.coefficients().as_tuple())


def growth_budget_cut(bundle, psi_traj, budget=11.0):
    """Index into psi_traj.xs up to which the integrated positive
    eigenvalue bound of the frozen variational matrix stays below budget.
    Beyond it, integration error amplification makes a 1e-6 round-trip
    comparison meaningless regardless of tolerances."""
    p = bundle.params
    xs = psi_traj.xs
    psi = psi_traj.values
    dpsi = psi_traj.derivatives
    vf = lambdify(simplify(bundle.v))(xs)
    hf = lambdify(simplify(bundle.h))(xs)
    gf = lambdify(simplify(bundle.g))(xs)
    fpsi = (-2 * p.mu * psi * dpsi - p.alpha + 2 * vf * psi
            + 3 * hf * psi ** 2 + 4 * gf * psi ** 3)
    fdpsi = p.mu * (p.beta - psi ** 2)
    disc = np.maximum(fdpsi ** 2 + 4 * fpsi, 0.0)
    lam = np.maximum(0.0, np.maximum((fdpsi + np.sqrt(disc)) / 2.0, fdpsi / 2.0))
    lam = np.where(np.isfinite(lam), lam, np.inf)
    h = float(xs[1] - xs[0])
    cum = np.concatenate([[0.0], np.cumsum((lam[1:] + lam[:-1]) / 2.0 * h)])
    return min(int(np.searchsorted(cum, budget)), len(xs) - 1)


def round_trip_metrics(bundle, a, b, w0=0.3, n=301, budget=11.0):
    """Map a linear solution through the substitution and compare with the
    direct nonlinear integration started from the same initial data, on a
    window truncated at the first pole and at the growth budget."""
    grid = Grid(a, b, 501)
    phi = integrate_linear(bundle.U, grid, 1.0, w0, TIGHT)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)

    end = growth_budget_cut(bundle, psi, budget)
    if psi.pole_brackets:
        first = psi.pole_brackets[0][0] - 0.15
        end = min(end, int(np.searchsorted(psi.xs, first)))
    i0 = psi.segments[0][0]
    end = max(end, i0 + 50)

    sub = Grid(float(psi.xs[i0]), float(psi.xs[end]), n)
    phi2 = integrate_linear(bundle.U, sub, 1.0, w0, TIGHT)
    psi2 = cole_hopf_map(bundle.P, phi2, U=bundle.U)
    j0 = psi2.segments[0][0]
    try:
        direct = integrate_vdp(bundle, sub, float(psi2.values[j0]),
                               float(psi2.derivatives[j0]), TIGHT)
    except StepUnderflowError as err:
        if err.partial is None:
            raise
        direct = err.partial
    return compare(psi2, direct)


def count_compiles(monkeypatch):
    """A one-item list that counts the scalar code compiled from now on."""
    calls = [0]
    scalar_code = expr._scalar_code

    def counting(*args):
        calls[0] += 1
        return scalar_code(*args)
    monkeypatch.setattr(expr, "_scalar_code", counting)
    return calls
