"""Catalog families: the general shift, the three specializations, their
ledger findings and the linear-basis checks."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from vdplin.catalog import (AlphaNonzeroError, ComplexKError,
                            KZeroInconsistentError, case1, case2, case3,
                            linear_basis, p_general)
from vdplin.colehopf import VdpParams, solve_chain, verify_annihilation
from vdplin.expr import Const, lambdify, simplify, subst, to_str
from vdplin.odesolve import Grid

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


def test_p_general_forcing_check_runs():
    # the constructor itself verifies the induced forcing vanishes
    for _ in range(5):
        mu = float(RNG.uniform(0.3, 2.0)) * (1 if RNG.random() < 0.5 else -1)
        beta = float(RNG.uniform(0.3, 2.0))
        alpha = float(RNG.uniform(-1.0, (mu * beta) ** 2 / 4))
        p_general(VdpParams(mu, beta, alpha), float(RNG.uniform(-1, 1)),
                  float(RNG.uniform(-1, 1)), 1, check=True)


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
    assert sol.constants.nu == pytest.approx(0.25)
    assert sol.constants.k == pytest.approx(1.0)
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
    assert phi.eval(1.0) == pytest.approx(5.0)


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
        u0 = -sol.constants.omega_sq
        k = sign * sol.constants.k
        assert u0 == pytest.approx(((mu * beta - k) / 4.0) ** 2, abs=1e-12)
        # stored-constants invariant: k >= 0 and k^2 + 4 alpha = mu^2 beta^2
        assert sol.constants.k >= 0.0
        assert sol.constants.k ** 2 + 4 * alpha == pytest.approx(
            (mu * beta) ** 2, abs=1e-12)


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
        assert abs(simplify(sol.bundle.f).eval(0.0)) <= 1e-9


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
     "f3b797d861e85576a1439c9eb5f4e27af95cc0e8c98085ed334534fcaf0c99e1"),
    (lambda: case2(VdpParams(2.0, 2.0, 4.0)),
     "b64790700f9ec457746d73c5392929d0cbe9077ed28c4472e2fd81051a035059"),
    (lambda: case3(VdpParams(1.0, 1.0, 0.0), 1.0),
     "2b0d5928ce62ea403f8dc1b6e7a9f515c5247fb45b89796e55130810a909dd26"),
    (lambda: case1(VdpParams(1.0, 2.0, 0.0), -1),
     "c1b5af99ecf0b17459d6efa12a287bafd9b21b7fd513acce4b273860e72f5e08"),
    (lambda: case3(VdpParams(-1.0, 1.0, 0.0), 2.0),
     "b0ca463accad88852d511b992b9d1151dfc5e0820eae57662f50d30157cbcb75"),
    # no trigonometric-basis entry at u0 = 0
    (lambda: case2(VdpParams(0.0, 1.5, 0.0)),
     "89d4bdef23c7e46c5ab8ccfef90ac2ba9a1d8a691a6a24b732b53461233bb517"),
    # sqrt(1 - 2 e^x) is nowhere real on [0, 5]: the phi fallback
    (lambda: case3(VdpParams(1.0, 1.0, 0.0), -2.0),
     "3e793c3c637ce7655f3ccb4a0808e3a5c0c4eb741b5fff6d335cf32cba34b5c0"),
], ids=["case1", "case2", "case3", "case1-k-minus", "case3-c2",
        "case2-mu-zero", "case3-fallback"])
def test_family_ledgers_keep_their_bytes(build, digest):
    # sha256 of every caseN-* ledger entry (all fields, in order), phi, the
    # basis and the constants, as three separate constructions made them
    # before the families shared one builder
    sol = build()
    doc = {"ledger": [e.to_dict() for e in sol.bundle.ledger
                      if e.check.startswith("case")],
           "phi": None if sol.phi is None else to_str(sol.phi),
           "phi_basis": None if sol.phi_basis is None
           else [to_str(b) for b in sol.phi_basis],
           "constants": dataclasses.asdict(sol.constants)}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
