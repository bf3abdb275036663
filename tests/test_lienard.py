"""Lienard classification: back-substituted restoring coefficients, the
Riccati potential, the embedding of the unforced quartic family and the
residual of integrated Riccati instances."""

import json
import math

import numpy as np
import pytest

from vdplin.colehopf import BundleFormatError, VdpParams, solve_chain
from vdplin.expr import Const, lambdify, parse, simplify, subst
from vdplin.lienard import (lienard_coeffs, lienard_spec_from_json,
                            lienard_spec_to_json, riccati_u)
from vdplin.odesolve import (Grid, IntegratorConfig, cole_hopf_map,
                             integrate_linear, lienard_residual)
from vdplin.wcalc import reduce_lienard

from conftest import record_derivations

RNG = np.random.default_rng(23)
XS = np.linspace(0.0, 2.0, 201)


def _max_abs(e, xs=XS):
    vals = lambdify(e)(xs)
    return float(np.max(np.abs(vals)))


def test_a_riccati_spec_derives_no_node_twice(monkeypatch):
    # riccati_u takes P' from wcalc's memo, where the spec's jet of P finds
    # it
    derived = record_derivations(monkeypatch)
    P = parse("0.3 - 0.2*x + 0.15*x^2")
    lienard_coeffs([Const(0.4), Const(-0.2), Const(0.3)], P, riccati_u(P),
                   grid=XS)
    assert derived[0] is P
    assert len(set(map(id, derived))) == len(derived)


def test_riccati_u_basics():
    assert simplify(riccati_u(Const(0.0))) == Const(0.0)
    # P = -1/x is a logarithmic-derivative solution with zero potential
    u = riccati_u(parse("-1/x"))
    xs = np.linspace(0.5, 3.0, 20)
    assert np.max(np.abs(lambdify(u)(xs))) <= 1e-13


def test_riccati_u_tanh():
    # hand algebra: tanh^2 - sech^2 = 2 tanh^2 - 1
    u = riccati_u(parse("sinh(x)/cosh(x)"))
    xs = np.linspace(-2.0, 2.0, 41)
    want = 2 * np.tanh(xs) ** 2 - 1
    assert np.allclose(lambdify(u)(xs), want, rtol=1e-12, atol=1e-12)


def test_degenerate_family_engine_values():
    # c = 0, P = 0: the engine derives b3 = -2, b1 = 2U, b0 = -U',
    # confirmed by the end-to-end residual oracle below
    U = parse("x^2+1")
    spec = lienard_coeffs([Const(0.0)] * 3, Const(0.0), U)
    assert _max_abs(simplify(spec.b[3] + 2.0)) <= 1e-14
    assert _max_abs(simplify(spec.b[1] - 2.0 * U)) <= 1e-13
    assert _max_abs(simplify(spec.b[0] + 2.0 * parse("x"))) <= 1e-13
    assert _max_abs(spec.b[2]) <= 1e-14
    assert _max_abs(spec.b[4]) <= 1e-14


def test_degenerate_family_analytic_cross_check():
    # with U = 1 and phi = cosh, psi = tanh solves psi'' - 2 psi^3 + 2 psi = 0
    for x in (-1.0, 0.3, 2.0):
        w = math.tanh(x)
        ddpsi = -2 * w * (1 - w * w)
        assert ddpsi - 2 * w ** 3 + 2 * w == pytest.approx(0.0, abs=1e-15)


def test_reference_forms_ledger_findings():
    # the transcribed closed forms disagree with the derivation except in
    # the top coefficient and (here) the quadratic one
    spec = lienard_coeffs([Const(0.0)] * 3, Const(0.0), parse("x^2+1"))
    by_check = {e.check: e for e in spec.ledger}
    assert by_check["restoring-coefficient-b4"].agrees is True
    assert by_check["restoring-coefficient-b3"].agrees is False
    # decided in the ring: the gap of b3 is the number -4
    assert by_check["restoring-coefficient-b3"].max_abs_diff == 4.0
    assert by_check["restoring-coefficient-b1"].agrees is False
    assert by_check["restoring-coefficient-b0"].agrees is False


def test_b4_is_exactly_c2():
    c2 = parse("0.3*x^2 - 1")
    spec = lienard_coeffs([parse("0.4"), parse("x"), c2], parse("x/3"),
                          parse("sin(x)"))
    assert spec.b[4] is spec.c[2]


def test_derived_b_annihilates():
    for _ in range(5):
        coeffs = RNG.uniform(-0.5, 0.5, 3)
        P = subst(parse("p0 + p1*x + p2*x^2"),
                  {"p0": coeffs[0], "p1": coeffs[1], "p2": coeffs[2]})
        c = [Const(float(v)) for v in RNG.uniform(-0.5, 0.5, 3)]
        U = parse("cos(x)/2")
        spec = lienard_coeffs(c, P, U)
        cs = reduce_lienard(spec.P, spec.U, spec.c, spec.b)
        for a in cs:
            assert _max_abs(a) <= 1e-9


def test_riccati_property_random_shifts():
    # 20 random smooth shifts: the Riccati potential drives b0 to zero
    # pointwise for any damping
    shapes = ("p0 + p1*x + p2*x^2", "p0*sinh(x/2) + p1", "p0*exp(x/3) + p1*x")
    for i in range(20):
        vals = RNG.uniform(-0.8, 0.8, 3)
        P = subst(parse(shapes[i % len(shapes)]),
                  {"p0": vals[0], "p1": vals[1], "p2": vals[2]})
        c = [Const(float(v)) for v in RNG.uniform(-1.0, 1.0, 3)]
        spec = lienard_coeffs(c, P, riccati_u(P))
        assert _max_abs(spec.b[0]) <= 1e-9


def test_vdp_embedding():
    # damping (-mu*beta, 0, mu) with the chain's potential reproduces the
    # full quartic family: b = (-f, alpha, -v, -h, -g)
    params = VdpParams(1.4, -0.9, 0.35)
    P = parse("x/(3+x^2)")
    bundle = solve_chain(P, params)
    c = [Const(-params.mu * params.beta), Const(0.0), Const(params.mu)]
    spec = lienard_coeffs(c, P, bundle.U)
    expected = [simplify(-bundle.f), Const(params.alpha), simplify(-bundle.v),
                simplify(-bundle.h), simplify(-bundle.g)]
    for got, want in zip(spec.b, expected):
        assert _max_abs(simplify(got - want)) <= 1e-10
    # and the embedded instance satisfies its own annihilation conditions
    cs = reduce_lienard(spec.P, spec.U, spec.c, spec.b)
    for a in cs:
        assert _max_abs(a) <= 1e-9


def test_riccati_instances_integrate_pole_free():
    cases = [
        ("0.3 - 0.2*x + 0.15*x^2", ("0.4", "-0.2", "0.3")),
        ("0.1*x^2 - 0.4", ("0", "0.5", "-0.3")),
        ("0.25*x", ("0.6", "0", "0")),
    ]
    grid = Grid(0.0, 2.0, 2001)
    for ptext, ctext in cases:
        P = parse(ptext)
        U = riccati_u(P)
        c = [parse(s) for s in ctext]
        psi0 = 0.6  # nonnegative start keeps phi positive for Riccati U
        spec = lienard_coeffs(c, P, U, grid=grid.xs)
        phi = integrate_linear(spec.U, grid, 1.0,
                               psi0 - float(lambdify(P)(0.0)),
                               IntegratorConfig(method="rk4"))
        psi = cole_hopf_map(spec.P, phi, U=spec.U)
        report = lienard_residual(spec.c, spec.b, psi)
        assert report.max_abs <= 1e-8
        assert psi.pole_brackets == []


_SPEC = {"c": ["0.2", "x/4", "0.1"], "b": ["1", "x", "0", "0", "0"],
         "P": "x/5", "U": "cos(x)"}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "not a JSON object"),
    ({k: v for k, v in _SPEC.items() if k != "U"}, "missing field 'U'"),
    ({**_SPEC, "P": 3}, ""),
    ({**_SPEC, "c": ["0.2", None, "0.1"]}, ""),
    ({**_SPEC, "ledger": [{"check": "b0"}]}, "missing field 'agrees'"),
])
def test_malformed_lienard_spec_raises_one_error_type(doc, message):
    with pytest.raises(BundleFormatError,
                       match="^malformed lienard spec: ") as info:
        lienard_spec_from_json(json.dumps(doc))
    assert message in str(info.value)


def test_lienard_spec_json_round_trip():
    spec = lienard_coeffs([parse("0.2"), parse("x/4"), parse("0.1")],
                          parse("x/5"), parse("cos(x)"))
    text = lienard_spec_to_json(spec)
    back = lienard_spec_from_json(text)
    xs = np.linspace(0.0, 2.0, 31)
    for a, b in zip(spec.b, back.b):
        assert np.max(np.abs(lambdify(a)(xs) - lambdify(b)(xs))) == 0.0
    assert lienard_spec_to_json(back) == text
