"""Reduction engine: polynomial arithmetic in w, derivation under the
rewrite, and the two equation reductions checked against pointwise-
evaluation oracles that never use the engine's own algebra."""

import math

import numpy as np
import pytest

from vdplin.colehopf import VdpParams
from vdplin.expr import Const, X, lambdify, parse, simplify, subst
from vdplin.wcalc import (MAX_DEGREE, WDegreeError, psi_poly, reduce_lienard,
                          reduce_vdp, w_derive, wpoly)

RNG = np.random.default_rng(7)


def _poly_eval(p, x, w):
    """p at (x, w) by Horner's rule, each coefficient evaluated at x."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * w + c.eval(x)
    return acc


def test_psi_poly_shape():
    p = psi_poly(Const(0.0))
    assert [c.eval(0.0) for c in p.coeffs] == [0.0, 1.0]
    p = psi_poly(Const(3.5))
    assert [c.eval(0.0) for c in p.coeffs] == [3.5, 1.0]
    shift = parse("(mu*beta - k)/4")
    p = psi_poly(shift)
    env = {"mu": 2.0, "beta": 1.0, "k": 1.0}
    assert subst(p.coeffs[0], env).eval(0.0) == 0.25
    assert p.coeffs[1].eval(0.0) == 1.0


def test_w_derive_of_w():
    # w' = U - w^2
    U = parse("x^2+1")
    d = w_derive(wpoly([0.0, 1.0]), U)
    for x, w in [(0.3, 1.2), (1.5, -0.4)]:
        assert _poly_eval(d, x, w) == pytest.approx((x * x + 1) - w * w, rel=1e-14)


def test_w_derive_twice_is_hand_form():
    # hand derivation: psi'' = P'' + U' - 2 U w + 2 w^3
    P = parse("sin(x)")
    U = parse("x^2+1")
    got = w_derive(w_derive(psi_poly(P), U), U)
    assert got.degree == 3
    for x, w in [(0.4, 0.9), (2.1, -1.3), (0.0, 0.0)]:
        want = -math.sin(x) + 2 * x - 2 * (x * x + 1) * w + 2 * w ** 3
        assert _poly_eval(got, x, w) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_w_derive_twice_against_integrated_phi():
    # oracle: with U = 1 and phi = cosh, w = tanh; differentiate the
    # evaluated polynomial by central differences in x
    U = Const(1.0)
    p = w_derive(psi_poly(Const(0.0)), U)  # represents psi' for P = 0

    def eval_on_traj(poly, x):
        return _poly_eval(poly, x, math.tanh(x))

    d = w_derive(p, U)
    h = 1e-6
    for x in (0.3, 1.0, 2.2):
        fd = (eval_on_traj(p, x + h) - eval_on_traj(p, x - h)) / (2 * h)
        assert eval_on_traj(d, x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_w_derive_constant_poly():
    d = w_derive(wpoly([parse("x^2")]), Const(1.0))
    assert d.degree == 0
    assert d.coeffs[0].eval(3.0) == pytest.approx(6.0)


def test_w_derive_consistency_on_integrated_solution():
    # U nonconstant: integrate the linear equation, trace w = phi'/phi and
    # compare d/dx of the evaluated polynomial with the derived polynomial
    from vdplin.odesolve import Grid, IntegratorConfig, integrate_linear

    U = parse("x^2/4 + 1")
    p = wpoly([parse("sin(x)"), Const(2.0), parse("x/3")])
    d = w_derive(p, U)
    traj = integrate_linear(U, Grid(0.0, 2.0, 2001), 1.0, 0.2,
                            IntegratorConfig(rtol=1e-12, atol=1e-14))
    w = traj.derivatives / traj.values
    vals = np.array([_poly_eval(p, float(x), float(wi))
                     for x, wi in zip(traj.xs, w)])
    dvals = np.array([_poly_eval(d, float(x), float(wi))
                      for x, wi in zip(traj.xs, w)])
    h = float(traj.xs[1] - traj.xs[0])
    fd = (vals[2:] - vals[:-2]) / (2 * h)
    assert np.max(np.abs(fd - dvals[1:-1])) <= 1e-6


def test_wpoly_arithmetic_homomorphism():
    # eval(p+q) = eval(p)+eval(q), eval(p*q) = eval(p)*eval(q)
    exprs = [parse(s) for s in ("x", "sin(x)", "x^2-1", "exp(x/4)", "2")]
    for _ in range(20):
        ca = [exprs[i] for i in RNG.integers(0, len(exprs), 3)]
        cb = [exprs[i] for i in RNG.integers(0, len(exprs), 2)]
        p, q = wpoly(ca), wpoly(cb)
        for _ in range(5):
            x = float(RNG.uniform(0.1, 2.0))
            w = float(RNG.uniform(-2.0, 2.0))
            pv, qv = _poly_eval(p, x, w), _poly_eval(q, x, w)
            assert _poly_eval(p + q, x, w) == pytest.approx(pv + qv, rel=1e-12, abs=1e-12)
            assert _poly_eval(p * q, x, w) == pytest.approx(pv * qv, rel=1e-12, abs=1e-12)


def test_wpoly_degree_cap():
    p = wpoly([Const(1.0)] * 5)  # degree 4
    with pytest.raises(WDegreeError):
        _ = p * p
    assert p.degree <= MAX_DEGREE


def test_reduce_vdp_a4_vanishes_when_g_is_minus_mu():
    params = VdpParams(1.7, -0.6, 0.3)
    cs = reduce_vdp(parse("sin(x)"), parse("x^2"), params, parse("x"),
                    parse("1+x"), Const(-params.mu), Const(0.0))
    xs = np.linspace(0.0, 4.0, 101)
    assert np.max(np.abs(lambdify(cs.a4)(xs))) <= 1e-12


def test_reduce_vdp_hand_instance_all_zero():
    # P=0, mu=1, beta=2, alpha=0, v=2, h=2, g=-1, f=0, U=0
    params = VdpParams(1.0, 2.0, 0.0)
    cs = reduce_vdp(Const(0.0), Const(0.0), params, Const(2.0), Const(2.0),
                    Const(-1.0), Const(0.0))
    for a in cs.as_tuple():
        assert simplify(a).eval(0.7) == pytest.approx(0.0, abs=1e-14)


def _psi_forms(P, U):
    """The three substitution polynomials: psi, psi', psi''."""
    psi = psi_poly(P)
    dpsi = w_derive(psi, U)
    return psi, dpsi, w_derive(dpsi, U)


def test_reduce_vdp_pointwise_oracle():
    # direct evaluation of the substituted equation from the psi forms
    # must match the assembled coefficient set at random (x, w)
    params = VdpParams(0.8, 1.1, -0.4)
    P, U = parse("x/(1+x^2)"), parse("cos(x)")
    v, h, g, f = parse("x^2"), parse("exp(x/3)"), parse("1-x"), parse("sin(x)")
    cs = reduce_vdp(P, U, params, v, h, g, f)
    psi, dpsi, ddpsi = _psi_forms(P, U)
    for _ in range(30):
        x = float(RNG.uniform(0.0, 3.0))
        w = float(RNG.uniform(-2.0, 2.0))
        sv = _poly_eval(psi, x, w)
        sd = _poly_eval(dpsi, x, w)
        sdd = _poly_eval(ddpsi, x, w)
        want = (sdd - params.mu * (params.beta - sv ** 2) * sd
                + params.alpha * sv - v.eval(x) * sv ** 2
                - h.eval(x) * sv ** 3 - g.eval(x) * sv ** 4 - f.eval(x))
        got = sum(a.eval(x) * w ** i for i, a in enumerate(cs.as_tuple()))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_reduce_lienard_empty_equation():
    # c = b = 0 leaves the coefficients of psi'' alone:
    # [P'' + U', -2U, 0, 2, 0]
    P, U = parse("sin(x)"), parse("x^2")
    zeros = [Const(0.0)] * 3
    cs = reduce_lienard(P, U, zeros, [Const(0.0)] * 5)
    xs = np.linspace(0.2, 2.0, 7)
    hand = [parse("-sin(x) + 2*x"), parse("-2*x^2"), Const(0.0), Const(2.0),
            Const(0.0)]
    for a, want in zip(cs.as_tuple(), hand):
        assert np.allclose(lambdify(a)(xs), lambdify(want)(xs),
                           rtol=1e-13, atol=1e-13)


def test_reduce_lienard_b4_equals_c2_kills_a4():
    c2 = parse("x^2+0.5")
    cs = reduce_lienard(parse("x"), parse("1"), [Const(0.0), Const(0.0), c2],
                        [Const(0.0)] * 4 + [c2])
    xs = np.linspace(0.0, 3.0, 31)
    assert np.max(np.abs(lambdify(cs.a4)(xs))) <= 1e-13


def test_reduce_lienard_pointwise_oracle():
    P, U = parse("0.3*x"), parse("sin(x)")
    c = [parse("0.2"), parse("x/5"), parse("0.1*x^2")]
    b = [parse(s) for s in ("1", "x", "0.5", "cos(x)", "0.3")]
    cs = reduce_lienard(P, U, c, b)
    psi, dpsi, ddpsi = _psi_forms(P, U)
    for _ in range(30):
        x = float(RNG.uniform(0.0, 3.0))
        w = float(RNG.uniform(-2.0, 2.0))
        sv = _poly_eval(psi, x, w)
        sd = _poly_eval(dpsi, x, w)
        sdd = _poly_eval(ddpsi, x, w)
        damping = sum(ci.eval(x) * sv ** i for i, ci in enumerate(c))
        restoring = sum(bi.eval(x) * sv ** i for i, bi in enumerate(b))
        want = sdd + damping * sd + restoring
        got = sum(a.eval(x) * w ** i for i, a in enumerate(cs.as_tuple()))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_reduce_lienard_validates_lengths():
    with pytest.raises(ValueError):
        reduce_lienard(X, X, [Const(0.0)] * 2, [Const(0.0)] * 5)
    with pytest.raises(ValueError):
        reduce_lienard(X, X, [Const(0.0)] * 3, [Const(0.0)] * 4)
