"""Reduction engine: the ring of P's and U's derivatives, its
derivation, the reduction and the two back substitutions it derives once,
checked exactly in the ring, against sympy, and against pointwise-
evaluation oracles that never use the ring's own algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vdplin import wcalc
from vdplin.colehopf import VdpParams
from vdplin.expr import Const, X, diff, lambdify, parse, simplify
from vdplin.wcalc import (B0, B1, B2, B3, B4, C0, C1, C2, DDP, DP, DU, P, U,
                          W, reduce_lienard, reduce_vdp, restoring_coeffs)

RNG = np.random.default_rng(7)


def _ring_eval(p, values):
    """p at numeric generator values (a dict generator -> float)."""
    return sum(k * math.prod(values[g] for g in m) for m, k in p.items())


def _at(e, x):
    """e's value at the point x, from its tape."""
    return float(lambdify(e)(x))


def _hand_psi(P, U, x, w):
    """psi, psi' and psi'' at (x, w) by hand: psi = P + w, w' = U - w^2."""
    dP, dU = diff(P), diff(U)
    Pv, dPv, ddPv = _at(P, x), _at(dP, x), _at(diff(dP), x)
    Uv, dUv = _at(U, x), _at(dU, x)
    return (Pv + w, dPv + Uv - w * w,
            ddPv + dUv - 2 * Uv * w + 2 * w ** 3)


def test_derivation_of_w():
    # w' = U - w^2
    assert wcalc._derive({(W,): 1}) == {(U,): 1, (W, W): -1}


def test_derivation_twice_is_hand_form():
    # hand derivation: psi'' = P'' + U' - 2 U w + 2 w^3
    psi = {(P,): 1, (W,): 1}
    assert wcalc._derive(wcalc._derive(psi)) == {
        (DDP,): 1, (DU,): 1, (W, U): -2, (W, W, W): 2}


def test_derivation_of_a_w_free_polynomial():
    # free of w, D is the x-derivative along P's and U's jet: D(P^2) = 2 P P'
    # (d/dx x^4 = 108 at x = 3 for P = x^2) and the product rule on P U c2
    d = wcalc._derive({(P, P): 1})
    assert d == {(DP, P): 2}
    assert _ring_eval(d, {P: 9.0, DP: 6.0}) == pytest.approx(108.0)
    assert wcalc._derive({(P, U, C2): 3}) == {(DP, U, C2): 3, (P, DU, C2): 3}
    # the coefficients are constants of D; P'' and U' have no derivative here
    assert wcalc._derive({(C0, B3): 5}) == {}
    for g in (DDP, DU):
        with pytest.raises(KeyError):
            wcalc._derive({(g,): 1})


def test_derivation_against_integrated_phi():
    # U = 1 and phi = cosh make w = tanh: D(psi') at P = 0 is the central
    # difference of psi' along that trajectory
    dpsi = wcalc._derive({(P,): 1, (W,): 1})
    ddpsi = wcalc._derive(dpsi)

    def on_traj(p, x):
        return _ring_eval(p, {W: math.tanh(x), P: 0.0, DP: 0.0, DDP: 0.0,
                              U: 1.0, DU: 0.0})

    h = 1e-6
    for x in (0.3, 1.0, 2.2):
        fd = (on_traj(dpsi, x + h) - on_traj(dpsi, x - h)) / (2 * h)
        assert on_traj(ddpsi, x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_derivation_on_integrated_solution():
    # U nonconstant: integrate the linear equation, trace w = phi'/phi and
    # compare d/dx of p = P + 2w + U w^2 along it with D(p)
    from vdplin.odesolve import Grid, IntegratorConfig, integrate_linear

    Pe, Ue = parse("sin(x)"), parse("x^2/4 + 1")
    p = {(P,): 1, (W,): 2, (W, W, U): 1}
    d = wcalc._derive(p)
    traj = integrate_linear(Ue, Grid(0.0, 2.0, 2001), 1.0, 0.2,
                            IntegratorConfig(rtol=1e-12, atol=1e-14))
    jet = [(Pe, P), (diff(Pe), DP), (Ue, U), (diff(Ue), DU)]

    def at(poly, x, w):
        values = {g: _at(e, x) for e, g in jet}
        return _ring_eval(poly, {**values, W: w})

    w = traj.derivatives / traj.values
    vals = np.array([at(p, float(x), float(wi)) for x, wi in zip(traj.xs, w)])
    dvals = np.array([at(d, float(x), float(wi))
                      for x, wi in zip(traj.xs, w)])
    h = float(traj.xs[1] - traj.xs[0])
    fd = (vals[2:] - vals[:-2]) / (2 * h)
    assert np.max(np.abs(fd - dvals[1:-1])) <= 1e-6


def test_vdp_chain_annihilates_a1_to_a4_in_the_ring():
    # c0 = -mu beta, c2 = mu and b1 = alpha stay generators, so this holds
    # for symbolic P, mu, beta and alpha
    chain = wcalc._chain()
    env = {C1: {}, U: chain["U"], DU: wcalc._derive(chain["U"])}
    for name, g in (("g", B4), ("h", B3), ("v", B2), ("f", B0)):
        env[g] = {m: -k for m, k in chain[name].items()}
    a = wcalc._reduced()
    for i in range(5):
        assert wcalc._subst(a[i], env) == {}, i
    # f is the 8-term a_0: P'' + 6PP' + 2c0 P' + 4P^3 + 4c0 P^2
    # + (b1 + c0^2) P + c0 b1 / 2
    assert chain["f"] == {(DDP,): 1, (DP, P): 6, (DP, C0): 2, (P, P, P): 4,
                          (P, P, C0): 4, (P, B1): 1, (P, C0, C0): 1,
                          (C0, B1): 0.5}
    assert chain["U"] == {(P, P): 3, (P, C0): 1, (B1,): 0.5}
    assert chain["g"] == {(C2,): -1}
    assert chain["h"] == {(P, C2): 2, (): 2}
    assert all(g not in (U, DU, C1) for p in chain.values() for m in p
               for g in m)
    # derived once per process
    assert wcalc._chain() is chain and wcalc._reduced() is a


def test_riccati_potential_makes_b0_the_zero_polynomial():
    # U = P^2 - P' for every c, b0 being free of c1 and c2 included
    riccati = {(P, P): 1, (DP,): -1}
    b0 = wcalc._restoring()[0]
    assert b0 and any(g in (C0, C1, C2) for m in b0 for g in m)
    assert wcalc._subst(b0, {U: riccati, DU: wcalc._derive(riccati)}) == {}


def test_ring_matches_sympy():
    sp = pytest.importorskip("sympy")
    x, Ws = sp.Symbol("x"), sp.Symbol("W")
    Pf, Uf, wf = (sp.Function(n)(x) for n in ("P", "U", "w"))
    c, b = sp.symbols("c0:3"), sp.symbols("b0:5")

    def D(e):  # d/dx along phi'' = U phi
        return sp.diff(e, x).subs(sp.Derivative(wf, x), Uf - wf ** 2)

    psi = Pf + wf
    dpsi = D(psi)
    eq = (D(dpsi) + sum(ci * psi ** i for i, ci in enumerate(c)) * dpsi
          + sum(bi * psi ** i for i, bi in enumerate(b)))
    a = sp.Poly(sp.expand(eq.subs(wf, Ws)), Ws)
    a = [a.coeff_monomial(Ws ** i) for i in range(5)]
    gens = {DDP: Pf.diff(x, 2), DP: Pf.diff(x), P: Pf, DU: Uf.diff(x), U: Uf,
            C0: c[0], C1: c[1], C2: c[2], B0: b[0], B1: b[1], B2: b[2],
            B3: b[3], B4: b[4]}

    def to_sympy(p):
        return sum(sp.Rational(Fraction(k)) * sp.Mul(*(gens[g] for g in m))
                   for m, k in p.items())

    for i in range(5):
        assert sp.expand(a[i] - to_sympy(wcalc._reduced()[i])) == 0, i
    solved = sp.solve(a, b, dict=True)
    assert len(solved) == 1
    for i in range(5):
        want = solved[0][b[i]]
        assert sp.expand(want - to_sympy(wcalc._restoring()[i])) == 0, i


def test_reduce_vdp_pointwise_oracle():
    # direct evaluation of the substituted equation from the hand forms of
    # psi, psi' and psi'' must match the assembled coefficients at random
    # (x, w)
    params = VdpParams(0.8, 1.1, -0.4)
    P, U = parse("x/(1+x^2)"), parse("cos(x)")
    v, h, g, f = parse("x^2"), parse("exp(x/3)"), parse("1-x"), parse("sin(x)")
    cs = reduce_vdp(P, U, params, v, h, g, f)
    for _ in range(30):
        x = float(RNG.uniform(0.0, 3.0))
        w = float(RNG.uniform(-2.0, 2.0))
        sv, sd, sdd = _hand_psi(P, U, x, w)
        want = (sdd - params.mu * (params.beta - sv ** 2) * sd
                + params.alpha * sv - _at(v, x) * sv ** 2
                - _at(h, x) * sv ** 3 - _at(g, x) * sv ** 4 - _at(f, x))
        got = sum(_at(a, x) * w ** i for i, a in enumerate(cs))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_reduce_lienard_pointwise_oracle():
    P, U = parse("0.3*x"), parse("sin(x)")
    c = [parse("0.2"), parse("x/5"), parse("0.1*x^2")]
    b = [parse(s) for s in ("1", "x", "0.5", "cos(x)", "0.3")]
    cs = reduce_lienard(P, U, c, b)
    for _ in range(30):
        x = float(RNG.uniform(0.0, 3.0))
        w = float(RNG.uniform(-2.0, 2.0))
        sv, sd, sdd = _hand_psi(P, U, x, w)
        damping = sum(_at(ci, x) * sv ** i for i, ci in enumerate(c))
        restoring = sum(_at(bi, x) * sv ** i for i, bi in enumerate(b))
        want = sdd + damping * sd + restoring
        got = sum(_at(a, x) * w ** i for i, a in enumerate(cs))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_reduce_vdp_a4_vanishes_when_g_is_minus_mu():
    params = VdpParams(1.7, -0.6, 0.3)
    cs = reduce_vdp(parse("sin(x)"), parse("x^2"), params, parse("x"),
                    parse("1+x"), Const(-params.mu), Const(0.0))
    xs = np.linspace(0.0, 4.0, 101)
    assert np.max(np.abs(lambdify(cs[4])(xs))) <= 1e-12


def test_reduce_vdp_hand_instance_all_zero():
    # P=0, mu=1, beta=2, alpha=0, v=2, h=2, g=-1, f=0, U=0
    params = VdpParams(1.0, 2.0, 0.0)
    cs = reduce_vdp(Const(0.0), Const(0.0), params, Const(2.0), Const(2.0),
                    Const(-1.0), Const(0.0))
    for a in cs:
        assert _at(simplify(a), 0.7) == pytest.approx(0.0, abs=1e-14)


def test_reduce_lienard_empty_equation():
    # c = b = 0 leaves the coefficients of psi'' alone:
    # [P'' + U', -2U, 0, 2, 0]
    P, U = parse("sin(x)"), parse("x^2")
    zeros = [Const(0.0)] * 3
    cs = reduce_lienard(P, U, zeros, [Const(0.0)] * 5)
    xs = np.linspace(0.2, 2.0, 7)
    hand = [parse("-sin(x) + 2*x"), parse("-2*x^2"), Const(0.0), Const(2.0),
            Const(0.0)]
    for a, want in zip(cs, hand):
        assert np.allclose(lambdify(a)(xs), lambdify(want)(xs),
                           rtol=1e-13, atol=1e-13)


def test_reduce_lienard_b4_equals_c2_kills_a4():
    c2 = parse("x^2+0.5")
    cs = reduce_lienard(parse("x"), parse("1"), [Const(0.0), Const(0.0), c2],
                        [Const(0.0)] * 4 + [c2])
    xs = np.linspace(0.0, 3.0, 31)
    assert np.max(np.abs(lambdify(cs[4])(xs))) <= 1e-13


def test_reduce_lienard_validates_lengths():
    with pytest.raises(ValueError):
        reduce_lienard(X, X, [Const(0.0)] * 2, [Const(0.0)] * 5)
    with pytest.raises(ValueError):
        reduce_lienard(X, X, [Const(0.0)] * 3, [Const(0.0)] * 4)
    with pytest.raises(ValueError):
        restoring_coeffs([Const(0.0)] * 4, X, X)


def test_chain_memo_returns_the_derivation_of_each_parameter_set():
    # each chain, asked for while the others live, is the one derived
    # without the memo, at either sign of a zero mu too
    P = parse("x/(2+x^2)")
    kept = []
    for mu in (-0.0, 0.0, 1.0, -0.0, 2.0, 0.0):
        params = VdpParams(mu, 1, 0)
        chain = wcalc.vdp_chain(P, params)
        values = wcalc._values(P, 0.0, *params.lienard(0.0, 0.0, 0.0, 0.0))
        assert chain == {name: wcalc._expr(p, values)
                         for name, p in wcalc._chain().items()}, mu
        kept.append(chain)
    assert kept[0]["g"] is not kept[2]["g"]
