"""Shared helpers: random instance generation for the annihilation and
round-trip suites, the growth-budget window used to keep the direct
nonlinear integration inside its conditioning limits, an expression as
scalar code over floats, a counter of compiled code, the generic RK4
loop that the linear integrator's step propagators are checked against, and
the transcribed reference forms instantiated at a document's fields, as the
ledger printed them before it recorded their texts."""

import json
import sys
from typing import Sequence

import numpy as np

from vdplin import expr, wcalc
from vdplin.catalog import p_general
from vdplin.colehopf import VdpParams, bundle_from_dict, solve_chain
from vdplin.expr import ZERO, lambdify, lambdify_ode, parse, simplify, to_str
from vdplin.lienard import lienard_spec_from_json
from vdplin.odesolve import (Grid, IntegratorConfig, StepUnderflowError,
                             Trajectory, cole_hopf_map, compare,
                             integrate_linear, integrate_vdp, regular_window)
from vdplin.wcalc import reduce_vdp

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
               for a in vdp_coefficients(bundle))


def vdp_coefficients(bundle):
    """a_0..a_4 of the bundle's reduced identity, built by the engine."""
    return reduce_vdp(bundle.P, bundle.U, bundle.params, bundle.v, bundle.h,
                      bundle.g, bundle.f)


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


def float_fn(e):
    """e as Python code over floats: the rate of the right-hand side that
    lambdify_ode prints from the tape lambdify runs, read at a state it
    does not use."""
    ode = lambdify_ode(e, "u", "du")
    return lambda x: ode(x, (0.0, 0.0))[1]


def count_compiles(monkeypatch, name="_scalar_code"):
    """A one-item list that counts the calls of expr's compiler ``name``
    from now on: ``_scalar_code`` prints lambdify_ode's Python code and
    ``_vectorized`` makes lambdify's callable."""
    calls = [0]
    compiler = getattr(expr, name)

    def counting(*args):
        calls[0] += 1
        return compiler(*args)
    monkeypatch.setattr(expr, name, counting)
    return calls


def record_derivations(monkeypatch):
    """A list that gets every node ``expr.diff`` is called on from now on,
    through any vdplin module that holds the name."""
    derived = []
    real = expr.diff

    def recording(e):
        derived.append(e)
        return real(e)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("vdplin")
                and getattr(module, "diff", None) is real):
            monkeypatch.setattr(module, "diff", recording)
    return derived


def _integrate_rk4(rhs, xs: np.ndarray, y0: Sequence[float]) -> Trajectory:
    """Classical RK4 for a general system y' = rhs(x, y), one step per grid
    interval; stops at the first non-finite state."""
    h = float(xs[1] - xs[0])
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(xs), len(y)))
    out[0] = y
    for i in range(len(xs) - 1):
        x = float(xs[i])
        k1 = np.asarray(rhs(x, y))
        k2 = np.asarray(rhs(x + h / 2, y + h / 2 * k1))
        k3 = np.asarray(rhs(x + h / 2, y + h / 2 * k2))
        k4 = np.asarray(rhs(x + h, y + h * k3))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise _stalled(xs, out[:, 0], out[:, 1], i)
        out[i + 1] = y
    return Trajectory(xs=xs, values=out[:, 0], derivatives=out[:, 1],
                      segments=[(0, len(xs))])


def _stalled(xs: np.ndarray, values: np.ndarray, derivatives: np.ndarray,
             i: int) -> StepUnderflowError:
    """The error for a step i whose end state is non-finite; its partial
    trajectory is the finite prefix xs[:i + 1] when that has two points."""
    partial = None
    if i >= 1:
        partial = Trajectory(xs=xs[:i + 1], values=values[:i + 1],
                             derivatives=derivatives[:i + 1],
                             segments=[(0, i + 1)])
    return StepUnderflowError((float(xs[i]), float(xs[-1])), partial)


# the transcribed form of each ledger check: its kind in
# wcalc._REFERENCE_FORMS and its place there
TEMPLATES = {
    "forcing-from-a0-vs-reference-closed-form": ("forcing", 0),
    "seed-potential-match-plus-branch": ("seed", 0),
    "seed-potential-match-minus-branch": ("seed", 0),
    **{f"reduced-coefficient-a{i}": ("vdp", i) for i in range(5)},
    **{f"restoring-coefficient-b{i}": ("lienard", i) for i in range(5)},
}


def instantiate(text, P, U, c, b):
    """A transcribed form's text at the pair (P, U) and coefficients c, b,
    built through wcalc's own reader and ring builder."""
    return wcalc._expr(wcalc._ordered(wcalc._read(parse(text))),
                       wcalc._values(P, U, c, b))


def expanded(doc):
    """A bundle or Lienard spec document whose transcribed-form entries
    hold the form instantiated at the document's own fields, as documents
    written before the ledger recorded the texts do; each entry's text must
    be its check's template."""
    if "params" in doc:
        b = bundle_from_dict(doc)
        chain = (b.P, ZERO, *b.params.lienard(0.0, 0.0, 0.0, 0.0))
        at = {"forcing": chain, "seed": chain,
              "vdp": (b.P, b.U, *b.params.lienard(b.v, b.h, b.g, b.f))}
    else:
        s = lienard_spec_from_json(json.dumps(doc))
        at = {"lienard": (s.P, s.U, s.c, (0.0,) * 5)}
    ledger = []
    for e in doc["ledger"]:
        if e["check"] in TEMPLATES:
            kind, i = TEMPLATES[e["check"]]
            text = wcalc._REFERENCE_FORMS[kind][i]
            assert e["reference"] == text, e["check"]
            e = {**e, "reference": to_str(instantiate(text, *at[kind]))}
        ledger.append(e)
    return {**doc, "ledger": ledger}
