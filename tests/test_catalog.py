"""Catalog families: the general shift, the three specializations, their
ledger findings and the linear-basis checks."""

import hashlib
import json
import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from vdplin import wcalc
from vdplin.catalog import (AlphaNonzeroError, CatalogError, ComplexKError,
                            KZeroInconsistentError, case1, case2, case3,
                            linear_basis, p_general)
from vdplin.colehopf import VdpParams, solve_chain, verify_annihilation
from vdplin.expr import Const, lambdify, simplify, subst, to_str
from vdplin.odesolve import Grid

from conftest import draw_vdp_instance

RNG = np.random.default_rng(11)


def _entry(sol, check):
    matches = [e for e in sol.bundle.ledger if e.check == check]
    assert matches, f"no ledger entry {check!r}"
    return matches[0]


def test_p_general_constants_only():
    # C1 = C2 = 0 collapses to the constant (mu*beta - k)/4
    params = VdpParams(2.0, 1.0, 0.75)
    P = p_general(params, 0.0, 0.0, 1)
    xs = np.linspace(0.0, 5.0, 50)
    assert np.allclose(lambdify(P)(xs), 0.25, rtol=0, atol=1e-14)


@pytest.mark.parametrize("k_sign", [1, -1])
def test_case1_shift_row_is_exact_for_both_k_signs(k_sign):
    # at C1 = C2 = 0 p_general is the constant (mu*beta - k)/4 itself, not
    # a quotient with a common factor, so the row's gap folds to zero
    params = VdpParams(2.0, 1.0, 0.75)  # mu*beta = 2, k = k_sign
    P = p_general(params, 0.0, 0.0, k_sign)
    assert isinstance(P, Const) and P.value == (2.0 - k_sign) / 4.0
    row = _entry(case1(params, k_sign), "case1-P-from-general-P")
    assert (row.agrees, row.max_abs_diff, row.points, row.note) == \
        (True, 0.0, 0, "exact")


def test_p_general_zero_when_k_equals_mb():
    P = p_general(VdpParams(1.0, 2.0, 0.0), 0.0, 0.0, 1)
    xs = np.linspace(0.0, 5.0, 50)
    assert np.allclose(lambdify(P)(xs), 0.0, atol=1e-14)


def test_p_general_alpha_zero_is_logistic():
    # alpha = 0, plus sign: P = c mu beta / (2 (c + e^{-mu beta x}))
    mu, beta = 1.0, 1.0
    C1, C2 = 0.4, 0.6
    c = C1 + C2
    P = p_general(VdpParams(mu, beta, 0.0), C1, C2, 1)
    xs = np.linspace(0.0, 5.0, 50)
    want = c * mu * beta / (2 * (c + np.exp(-mu * beta * xs)))
    assert np.allclose(lambdify(P)(xs), want, rtol=1e-13)


def test_p_general_rejects_complex_rate():
    with pytest.raises(ComplexKError):
        p_general(VdpParams(1.0, 1.0, 10.0), 0.1, 0.1, 1)


def test_p_general_is_the_cole_hopf_form_of_its_denominator():
    # P = mb/4 + D'/(2D), D = C1 e^{mb x/2} + C2 e^{kx/2} + e^{-kx/2}: the
    # form the ring proof below takes
    xs = np.linspace(0.0, 5.0, 201)
    for _ in range(5):
        mu = float(RNG.uniform(0.3, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        beta = float(RNG.uniform(0.3, 2.0))
        alpha = float(RNG.uniform(-1.0, (mu * beta) ** 2 / 4))
        C1, C2 = float(RNG.uniform(-1, 1)), float(RNG.uniform(-1, 1))
        mb, k = mu * beta, math.sqrt((mu * beta) ** 2 - 4 * alpha)
        terms = [(C1, mb / 2), (C2, k / 2), (1.0, -k / 2)]
        D = sum(c * np.exp(r * xs) for c, r in terms)
        dD = sum(c * r * np.exp(r * xs) for c, r in terms)
        got = lambdify(p_general(VdpParams(mu, beta, alpha), C1, C2, 1))(xs)
        assert np.allclose(got, mb / 4 + dD / (2 * D), rtol=1e-12, atol=1e-12)


# p_general's proof in the ring: generators numbered after wcalc's, for the
# denominator D, its first two derivatives and the parameters
D, D1, D2, MU, BETA, K = range(wcalc.B4 + 1, wcalc.B4 + 7)
MB = {(MU, BETA): 1}
ROOTS = ({(MU, BETA): 0.5}, {(K,): 0.5}, {(K,): -0.5})
MISTYPED = ROOTS[:2] + ({(K,): 0.5},)


def _scale(k, p):
    return wcalc._mul({(): k}, p)


def _forcing_times_d_cubed(roots):
    """D^3 f for the chain's f at P = mb/4 + D1/(2D), c0 = -mu beta,
    c2 = mu and b1 = (mb^2 - k^2)/4, with D's third derivative
    s1 D2 - s2 D1 + s3 D for the elementary symmetric functions s1, s2, s3
    of ``roots``: the linear equation D solves."""
    s1, s2, s3 = (wcalc._add(*(reduce(wcalc._mul, c)
                               for c in combinations(roots, n)))
                  for n in (1, 2, 3))
    rules = {D: {(D1,): 1}, D1: {(D2,): 1},
             D2: wcalc._add(wcalc._mul(s1, {(D2,): 1}),
                            _scale(-1, wcalc._mul(s2, {(D1,): 1})),
                            wcalc._mul(s3, {(D,): 1}))}

    def derive(p):  # wcalc._derive's Leibniz rule, over D, D1 and D2
        return wcalc._add(*(wcalc._mul({m[:i] + m[i + 1:]: k}, rules[g])
                            for m, k in p.items()
                            for i, g in enumerate(m) if g in rules))

    # the j-th derivative of P is N_j / D^(j+1), with N_0 = P D and
    # N_(j+1) = N_j' D - (j+1) N_j D1
    n = [wcalc._add(_scale(0.25, wcalc._mul(MB, {(D,): 1})), {(D1,): 0.5})]
    for j in range(2):
        n.append(wcalc._add(wcalc._mul(derive(n[j]), {(D,): 1}),
                            _scale(-(j + 1), wcalc._mul(n[j], {(D1,): 1}))))
    # so a monomial of f of weight w (P counts 1, P' 2, P'' 3) times D^3
    # is its N's times D^(3 - w)
    weight = {wcalc.P: 1, wcalc.DP: 2, wcalc.DDP: 3}
    f = wcalc._chain()["f"]
    ws = {m: sum(weight.get(g, 0) for g in m) for m in f}
    assert max(ws.values()) == 3
    lifted = {tuple(sorted(m + (D,) * (3 - ws[m]))): k for m, k in f.items()}
    return wcalc._subst(lifted, {
        wcalc.P: n[0], wcalc.DP: n[1], wcalc.DDP: n[2],
        wcalc.C0: _scale(-1, MB), wcalc.C2: {(MU,): 1},
        wcalc.B1: _scale(0.25, wcalc._add(wcalc._mul(MB, MB),
                                          {(K, K): -1}))})


def test_general_shift_annihilates_the_forcing():
    # for free C1, C2, mu, beta and k: p_general's P makes f = 0
    assert _forcing_times_d_cubed(ROOTS) == {}


def test_general_shift_proof_fails_for_a_mistyped_root():
    # +k/2 typed for -k/2: a nonzero remainder, so the proof is not vacuous
    rest = _forcing_times_d_cubed(MISTYPED)
    assert rest and any(K in m for m in rest)


def test_general_shift_remainder_matches_sympy():
    sp = pytest.importorskip("sympy")
    x, mu, beta, k, c1, c2 = sp.symbols("x mu beta k C1 C2")
    d, d1, d2 = sp.symbols("D D1 D2")
    mb = mu * beta
    gens = {D: d, D1: d1, D2: d2, MU: mu, BETA: beta, K: k}

    def to_sympy(p):
        return sum(sp.Rational(Fraction(c)) * sp.Mul(*(gens[g] for g in m))
                   for m, c in p.items())

    def third(roots, y, y1, y2):
        # the third derivative y solves for when its characteristic
        # polynomial has these roots, from sympy's expansion of it
        t = sp.Symbol("t")
        _, a2, a1, a0 = sp.Poly(sp.prod([t - to_sympy(p) for p in roots]),
                                t).all_coeffs()
        return -(a2 * y2 + a1 * y1 + a0 * y)

    Df = sp.Function("D")(x)
    P = mb / 4 + Df.diff(x) / (2 * Df)
    f = (P.diff(x, 2) + 6 * P * P.diff(x) - 2 * mb * P.diff(x) + 4 * P ** 3
         - 4 * mb * P ** 2 + ((mb ** 2 - k ** 2) / 4 + mb ** 2) * P
         - mb * (mb ** 2 - k ** 2) / 8)
    for roots in (ROOTS, MISTYPED):
        got = sp.expand(sp.cancel(f * Df ** 3)).subs(
            Df.diff(x, 3), third(roots, d, d1, d2)).subs(
            {Df.diff(x, 2): d2, Df.diff(x): d1}).subs(Df, d)
        assert sp.expand(got - to_sympy(_forcing_times_d_cubed(roots))) == 0
    # and p_general's denominator solves the true roots' equation
    dx = c1 * sp.exp(mb * x / 2) + c2 * sp.exp(k * x / 2) + sp.exp(-k * x / 2)
    assert sp.simplify(dx.diff(x, 3) - third(
        ROOTS, dx, dx.diff(x), dx.diff(x, 2))) == 0


@pytest.mark.parametrize("C1, C2, name", [
    (1e308, 0.5, "C1"), (0.5, 1e308, "C2"), (math.nan, 0.5, "C1"),
    (0.5, math.nan, "C2"), (math.inf, 0.5, "C1"), (0.5, -math.inf, "C2")])
def test_p_general_refuses_non_finite_constants_by_name(C1, C2, name):
    # 2 C1 mb and C2 (mb + k) are about 2.3e308 and 4.3e308 here
    with pytest.raises(CatalogError, match=rf"^{name} = "):
        p_general(VdpParams(1.5, 1.5, 0.2), C1, C2, 1)


def test_p_general_then_solve_chain_derives_the_chain_once(monkeypatch):
    # one derivation of the chain's f per instance: p_general derives none
    chain_f = wcalc._chain()["f"]
    calls = [0]
    expr_of = wcalc._expr

    def counting(p, values):
        calls[0] += p is chain_f
        return expr_of(p, values)
    monkeypatch.setattr(wcalc, "_expr", counting)
    rng = np.random.default_rng(23)
    for i in range(1, 6):
        params, C1, C2, k_sign = draw_vdp_instance(rng)
        solve_chain(p_general(params, C1, C2, k_sign), params)
        assert calls[0] == i


def test_linear_basis_selection():
    b1, b2 = linear_basis(0.25)
    assert lambdify(b1)(np.array([2.0]))[0] == pytest.approx(math.exp(1.0))
    b1, b2 = linear_basis(0.0)
    assert simplify(b1) == Const(1.0)
    b1, b2 = linear_basis(-4.0)
    assert lambdify(b1)(np.array([0.0]))[0] == 1.0  # cos(0)
    xs = np.linspace(0, 3, 20)
    assert np.allclose(lambdify(b2)(xs), np.sin(2 * xs), rtol=1e-13)


def test_case1_reference_values():
    # mu=2, beta=1, alpha=0.75: k=1, P=1/4, U=1/16, rate 1/4
    sol = case1(VdpParams(2.0, 1.0, 0.75))
    assert simplify(sol.bundle.P) == Const(0.25)
    assert simplify(sol.bundle.U) == Const(0.0625)
    # the basis grows at the rate sqrt(U) = 1/4
    assert float(lambdify(sol.phi_basis[0])(4.0)) == pytest.approx(math.e)
    for check in ("case1-P-from-general-P", "case1-reference-U",
                  "case1-reference-v", "case1-reference-h"):
        e = _entry(sol, check)
        assert e.agrees is True, (check, e.max_abs_diff)


def test_case1_degenerate_rate():
    # k = mu*beta: P = 0, U = 0, basis {1, x}
    sol = case1(VdpParams(1.0, 2.0, 0.0))
    assert simplify(sol.bundle.P) == Const(0.0)
    assert simplify(sol.bundle.U) == Const(0.0)
    assert sol.phi_basis == (Const(1.0), simplify(subst(sol.phi_basis[1], {})))
    phi = subst(sol.phi, {"C3": 2.0, "C4": 3.0})
    assert float(lambdify(phi)(1.0)) == pytest.approx(5.0)


def test_case1_omega_squared_is_minus_u():
    for _ in range(20):
        mu = float(RNG.uniform(0.25, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        beta = float(RNG.uniform(0.25, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        alpha = float(RNG.uniform(-1.5, (mu * beta) ** 2 / 4))
        sign = 1 if RNG.random() < 0.5 else -1
        sol = case1(VdpParams(mu, beta, alpha), sign)
        e = _entry(sol, "case1-reference-omega-squared-vs-minus-U")
        assert e.agrees is True
        # and U is the square of the constant shift
        u0 = simplify(sol.bundle.U).value
        k = sign * math.sqrt((mu * beta) ** 2 - 4 * alpha)
        assert u0 == pytest.approx(((mu * beta - k) / 4.0) ** 2, abs=1e-12)


def test_case1_basis_solves_linear_equation():
    sol = case1(VdpParams(2.0, 1.0, 0.75))
    e = _entry(sol, "case1-basis-solves-linear-eq")
    assert e.agrees is True and e.max_abs_diff <= 1e-9


def test_case2_values():
    sol = case2(VdpParams(2.0, 2.0, 4.0))
    assert simplify(sol.bundle.P) == Const(1.0)
    assert simplify(sol.bundle.U) == Const(1.0)
    assert simplify(sol.bundle.h) == Const(6.0)
    assert simplify(sol.bundle.v) == Const(-2.0)
    for e in sol.bundle.ledger:
        if e.check.startswith("case2-reference-") and "trig" not in e.check:
            assert e.agrees is True, (e.check, e.max_abs_diff)
    trig = _entry(sol, "case2-reference-trig-basis")
    assert trig.agrees is False  # real basis is exponential, recorded


def test_case2_requires_matching_alpha():
    with pytest.raises(KZeroInconsistentError):
        case2(VdpParams(2.0, 2.0, 1.0))


def test_case2_mu_zero_degenerates():
    sol = case2(VdpParams(0.0, 1.5, 0.0))
    assert simplify(sol.bundle.P) == Const(0.0)
    assert simplify(sol.bundle.U) == Const(0.0)


def test_case3_logistic_shift():
    sol = case3(VdpParams(1.0, 1.0, 0.0), c=1.0)
    xs = np.linspace(0.0, 5.0, 60)
    want = 1.0 / (2.0 * (1.0 + np.exp(-xs)))
    assert np.allclose(lambdify(sol.bundle.P)(xs), want, rtol=1e-13)
    # forcing vanishes on the family
    fvals = lambdify(sol.bundle.f)(xs)
    assert np.max(np.abs(fvals)) <= 1e-9


def test_case3_ledger_findings():
    # reference P and U disagree with the derivation; v, h and the
    # reference linear solution agree
    sol = case3(VdpParams(1.0, 1.0, 0.0), c=1.0)
    assert _entry(sol, "case3-reference-P").agrees is False
    assert _entry(sol, "case3-reference-U").agrees is False
    assert _entry(sol, "case3-reference-v").agrees is True
    assert _entry(sol, "case3-reference-h").agrees is True
    phi_entry = _entry(sol, "case3-reference-phi-solves-linear-eq")
    assert phi_entry.agrees is True
    assert sol.phi is not None


def test_case3_reference_u_pointwise_disagreement():
    # at x=0, mu=beta=c=1 the reference form gives 0, the derivation -1/16
    sol = case3(VdpParams(1.0, 1.0, 0.0), c=1.0)
    assert lambdify(sol.bundle.U)(np.array([0.0]))[0] == pytest.approx(-1 / 16)
    e = _entry(sol, "case3-reference-U")
    assert e.max_abs_diff >= 1 / 16


def test_case3_collapses_at_c_zero():
    sol = case3(VdpParams(1.0, 1.0, 0.0), c=0.0)
    xs = np.linspace(0.0, 5.0, 20)
    assert np.allclose(lambdify(sol.bundle.P)(xs), 0.0, atol=1e-15)
    assert np.allclose(lambdify(sol.bundle.U)(xs), 0.0, atol=1e-15)


def test_case3_requires_alpha_zero():
    with pytest.raises(AlphaNonzeroError):
        case3(VdpParams(1.0, 1.0, 0.1), c=1.0)


def test_family_invariant_annihilation_and_zero_forcing():
    for _ in range(10):
        mu = float(RNG.uniform(0.3, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        beta = float(RNG.uniform(0.3, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        alpha = float(RNG.uniform(-1.0, (mu * beta) ** 2 / 4))
        sol = case1(VdpParams(mu, beta, alpha))
        rep = verify_annihilation(sol.bundle, Grid(0.0, 5.0, 201))
        assert rep.passed
        assert abs(float(lambdify(simplify(sol.bundle.f))(0.0))) <= 1e-9


def test_transform_consistency_full_equation_residual():
    # psi = P + phi'/phi built from each catalog solution satisfies the
    # full nonlinear equation off-pole
    from vdplin.odesolve import Grid, Trajectory, cole_hopf_map, residual

    solutions = [
        case1(VdpParams(2.0, 1.0, 0.75)),
        case2(VdpParams(2.0, 2.0, 4.0)),
        case3(VdpParams(1.0, 1.0, 0.0), c=1.0),
    ]
    grid = Grid(0.0, 4.0, 401)
    for sol in solutions:
        phi_expr = subst(sol.phi, {"C3": 1.0, "C4": 1.0})
        phi = Trajectory.from_expr(phi_expr, grid)
        psi = cole_hopf_map(sol.bundle.P, phi, U=sol.bundle.U)
        rep = residual(sol.bundle, psi)
        assert rep.max_abs <= 1e-8


def test_catalog_composes_with_chain():
    # building the chain from case1's shift reproduces the bundle
    params = VdpParams(1.6, -0.8, 0.1)
    sol = case1(params, k_sign=-1)
    again = solve_chain(sol.bundle.P, params)
    xs = np.linspace(0.0, 4.0, 50)
    for name in ("U", "g", "h", "v", "f"):
        a = lambdify(getattr(sol.bundle, name))(xs)
        b = lambdify(getattr(again, name))(xs)
        assert np.max(np.abs(a - b)) == 0.0


@pytest.mark.parametrize("build, digest", [
    (lambda: case1(VdpParams(2.0, 1.0, 0.75)),
     "ed8729fc55010944cd461afda8fe10f6a9022874132304063092cc4d37bf4d85"),
    (lambda: case2(VdpParams(2.0, 2.0, 4.0)),
     "036dd02698e8eedf4ca287b1cd9051ea36bd7ecf83136ac4604268b654353744"),
    (lambda: case3(VdpParams(1.0, 1.0, 0.0), 1.0),
     "6ee407972cb2de86302305a7bd009cb5417d387d3a9f2ccf5cb205c484058c75"),
    (lambda: case1(VdpParams(1.0, 2.0, 0.0), -1),
     "f878591f6420e5d88db2d36c12ff5d73c7607ac42257d79797080603cd764312"),
    (lambda: case3(VdpParams(-1.0, 1.0, 0.0), 2.0),
     "b7ec2246df6ae7f0c2d7290ceb76ca407fb8b4b560eed33e5e973f9d0857a90a"),
    # no trigonometric-basis entry at u0 = 0; two references are the
    # constant -0.0, which prints as -0
    (lambda: case2(VdpParams(0.0, 1.5, 0.0)),
     "1f58aa79cfd14e3aa6ec6e76fa5a17b8f64c2840c84d491029bcf1fa11dedcd5"),
    # sqrt(1 - 2 e^x) is nowhere real on [0, 5]: the phi fallback
    (lambda: case3(VdpParams(1.0, 1.0, 0.0), -2.0),
     "40987f56230c4eeb64af09f05bdccff08003dc271e17d3f19351e323d3189d93"),
], ids=["case1", "case2", "case3", "case1-k-minus", "case3-c2",
        "case2-mu-zero", "case3-fallback"])
def test_family_ledgers_keep_their_bytes(build, digest):
    # sha256 of every caseN-* ledger entry (all fields, in order), phi and
    # the basis, as three separate constructions made them before the
    # families shared one builder; since then the constant rows of case1
    # and case2 are decided exactly, which moved their points (1000 -> 0)
    # and note ("" -> "exact") and nothing else, and so is case1's shift
    # row now that p_general at C1 = C2 = 0 is the constant itself
    sol = build()
    doc = {"ledger": [e.to_dict() for e in sol.bundle.ledger
                      if e.check.startswith("case")],
           "phi": None if sol.phi is None else to_str(sol.phi),
           "phi_basis": None if sol.phi_basis is None
           else [to_str(b) for b in sol.phi_basis]}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
