"""Solve chain: the closed-form coefficient functions it produces, the
annihilation guarantee, the seeded construction and the ledger machinery."""

import hashlib
import json
import re

import numpy as np
import pytest

from vdplin import catalog
from vdplin.colehopf import (BundleFormatError, SingularGridError,
                             TransformBundle, VdpParams, bundle_from_dict,
                             bundle_from_json, bundle_to_dict, bundle_to_json,
                             seeded_construction, solve_chain,
                             verify_annihilation, verify_printed_coeffs)
from vdplin.expr import (X, Const, Neg, lambdify, parse, simplify, subst,
                         to_str)
from vdplin.lienard import (lienard_coeffs, lienard_spec_to_dict,
                            lienard_spec_to_json, riccati_u)
from vdplin.odesolve import Grid

from conftest import (general_instances, pole_free_window,
                      sampled_annihilation)

XS = np.linspace(0.0, 5.0, 501)


def test_base_instance_closed_forms():
    b = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    assert b.g == Const(-1.0)
    assert simplify(b.h) == Const(2.0)
    assert simplify(b.U) == Const(0.0)
    assert simplify(b.v) == Const(2.0)
    assert simplify(b.f) == Const(0.0)


def test_base_instance_solves_for_reciprocal():
    # independent check that psi = 1/x solves the induced equation:
    # psi'' = (beta - psi^2) psi' + v psi^2 + h psi^3 + g psi^4
    for x in (1.0, 2.5, 4.0):
        psi, dpsi, ddpsi = 1 / x, -1 / x ** 2, 2 / x ** 3
        rhs = ((2.0 - psi ** 2) * dpsi + 2.0 * psi ** 2 + 2.0 * psi ** 3
               - psi ** 4)
        assert ddpsi == pytest.approx(rhs, rel=1e-12)


def test_constant_shift_forcing_vanishes():
    # P = (mu*beta - k)/4 with k^2 = mu^2 beta^2 - 4 alpha kills the forcing
    params = VdpParams(2.0, 1.0, 0.75)
    b = solve_chain(Const(0.25), params)
    assert abs(float(lambdify(simplify(b.f))(0.0))) <= 1e-12


def test_constant_shift_forcing_closed_form():
    # for constant P the induced forcing reduces to
    # (alpha + mu^2 beta^2) P + 4 P^3 - 4 mu beta P^2 - mu beta alpha / 2
    params = VdpParams(1.3, -0.7, -0.4)
    for p0 in (-0.8, 0.3, 1.1):
        b = solve_chain(Const(p0), params)
        mb = params.mu * params.beta
        want = ((params.alpha + mb * mb) * p0 + 4 * p0 ** 3 - 4 * mb * p0 ** 2
                - mb * params.alpha / 2.0)
        assert float(lambdify(simplify(b.f))(0.0)) == pytest.approx(
            want, rel=1e-12)


def test_linear_seed_potential():
    # P = a x gives U = 3 a^2 x^2 - mu beta a x + alpha / 2
    params = VdpParams(1.5, 0.8, 0.6)
    a = 0.7
    b = solve_chain(subst(parse("a*x"), {"a": a}), params)
    xs = np.linspace(-2, 2, 41)
    want = 3 * a * a * xs ** 2 - params.mu * params.beta * a * xs + params.alpha / 2
    assert np.allclose(lambdify(b.U)(xs), want, rtol=1e-13, atol=1e-13)


def test_chain_ledger_forcing_agrees():
    b = solve_chain(parse("x/(1+x^2)"), VdpParams(0.9, 1.2, -0.5))
    entry = b.ledger[0]
    assert entry.check == "forcing-from-a0-vs-reference-closed-form"
    assert entry.agrees is True
    assert entry.max_abs_diff <= 1e-9


def test_annihilation_from_chain():
    b = solve_chain(parse("sin(x)/3"), VdpParams(-1.1, 0.9, 0.2))
    rep = verify_annihilation(b, Grid(0.0, 5.0, 501))
    assert rep.passed
    assert max(rep.max_abs) <= 1e-9


def test_annihilation_detects_broken_quartic_coefficient():
    params = VdpParams(1.0, 1.0, 0.0)
    b = solve_chain(Const(0.0), params)
    broken = TransformBundle(P=b.P, U=b.U, g=Const(-params.mu + 0.1), h=b.h,
                             v=b.v, f=b.f, params=params)
    rep = verify_annihilation(broken, Grid(0.0, 5.0, 101))
    assert not rep.passed
    assert rep.max_abs[4] == pytest.approx(0.1, rel=1e-12)


def test_annihilation_reports_singular_grid():
    # P's jet is not finite at x = 0, so even a chain bundle is sampled,
    # and the sampled a_0 names the point
    b = solve_chain(parse("1/x"), VdpParams(1.0, 1.0, 0.0))
    with pytest.raises(SingularGridError, match=re.escape(
            "coefficient a0 is singular at grid points [0...]")):
        verify_annihilation(b, Grid(-1.0, 1.0, 11))  # grid crosses x = 0


def test_chain_bundles_are_decided_exactly():
    # the chain's own fields, before and after a JSON round trip, are
    # decided with nothing sampled; sampling their a_0..a_4 still reads
    # at most 1e-9
    for params, P in general_instances(40, seed=11):
        b = solve_chain(P, params)
        xs = Grid(*pole_free_window(params, P), 501).xs
        for bundle in (b, bundle_from_json(bundle_to_json(b))):
            rep = verify_annihilation(bundle, xs)
            assert (rep.max_abs, rep.n_points, rep.passed, rep.note) == (
                (0.0,) * 5, 0, True, "exact")
            assert sampled_annihilation(bundle, xs) <= 1e-9


def test_moved_constant_of_f_is_sampled_and_fails():
    b = solve_chain(parse("x/(2+x^2)"), VdpParams(1.0, 1.5, 0.4))
    doc = bundle_to_dict(b)
    assert doc["f"].count("2.65*") == 1
    doc["f"] = doc["f"].replace("2.65*", f"{2.65 + 1e-6!r}*")
    rep = verify_annihilation(bundle_from_dict(doc), XS)
    assert (rep.n_points, rep.passed, rep.note) == (501, False, "")
    # a_0 moves by 1e-6 P, whose largest value on [0, 5] is 1/(2 sqrt 2)
    assert rep.max_abs[0] == pytest.approx(1e-6 / 8 ** 0.5, rel=1e-3)
    assert max(rep.max_abs[1:]) <= 1e-9


def test_stored_negative_constant_is_decided_exactly():
    # "-0.7" parses to Neg(Const(0.7)), which simplifies to the chain's
    # Const(-0.7)
    doc = bundle_to_dict(solve_chain(parse("sin(x)/3"),
                                     VdpParams(0.7, 1.5, 0.4)))
    assert doc["g"] == "-0.7"
    back = bundle_from_dict(doc)
    assert type(back.g) is Neg
    assert verify_annihilation(back, XS).note == "exact"


def test_printed_coefficients_match_engine():
    # the transcribed reference forms agree with the machine reduction for
    # random inputs; the a2 comparison is the one whose outcome was
    # genuinely unknown before this check existed
    rng = np.random.default_rng(17)
    pool = ["sin(x)/2", "cos(x)+2", "x^2/4", "exp(x/5)", "1+x",
            "x/(3+x^2)", "sinh(x/3)", "0.3"]
    for _ in range(5):
        picks = [parse(pool[i]) for i in rng.integers(0, len(pool), 6)]
        params = VdpParams(float(rng.uniform(-2, 2)),
                           float(rng.uniform(-2, 2)),
                           float(rng.uniform(-2, 2)))
        entries = verify_printed_coeffs(*picks[:2], params, *picks[2:])
        assert [e.check for e in entries] == [
            f"reduced-coefficient-a{i}" for i in range(5)]
        for e in entries:
            assert e.agrees is True
            assert e.max_abs_diff <= 1e-10


def test_seeded_plus_equals_chain():
    params = VdpParams(1.2, 0.5, 0.3)
    s = parse("sin(x)/4")
    direct = solve_chain(s, params)
    seeded = seeded_construction(s, params, "plus")
    for name in ("P", "U", "g", "h", "v", "f"):
        a = lambdify(getattr(direct, name))(XS)
        b = lambdify(getattr(seeded, name))(XS)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_seeded_zero_seed_reduces_to_base():
    params = VdpParams(1.0, 2.0, 0.0)
    bundle = seeded_construction(Const(0.0), params, "plus")
    assert simplify(bundle.h) == Const(2.0)
    assert simplify(bundle.v) == Const(2.0)
    assert simplify(bundle.f) == Const(0.0)


@pytest.mark.parametrize("seed", ["sinh(x)/5", "exp(x)"])
@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_seeded_potential_claim_both_branches(branch, seed):
    # both shifts P = s and P = -s + mu*beta/3 must induce the same
    # potential 3 s^2 - mu beta s + alpha/2; the claim is an identity,
    # decided in the ring (sampled against an absolute 1e-12, exp(x) on
    # the minus branch read 2.2e-11 on values near 1e4 and disagreed)
    params = VdpParams(0.9, 1.4, -0.6)
    bundle = seeded_construction(parse(seed), params, branch)
    entry = [e for e in bundle.ledger
             if e.check == f"seed-potential-match-{branch}-branch"][0]
    assert (entry.agrees, entry.max_abs_diff, entry.points, entry.note) == (
        True, 0.0, 0, "exact")


def test_seeded_tan_seed_total():
    bundle = seeded_construction(parse("tan(x)"), params=VdpParams(1.0, 1.0, 0.5),
                                 branch="plus")
    assert bundle.f is not None
    vals = lambdify(bundle.f)(np.linspace(-0.5, 0.5, 50))
    assert np.all(np.isfinite(vals))


def test_seeded_tan_pipeline_residual():
    # oscillatory forcing: no closed-form values exist, acceptance is
    # residual-based on a window clear of the seed's own singularities
    from vdplin.odesolve import (Grid, IntegratorConfig, cole_hopf_map,
                                 integrate_linear, residual)

    params = VdpParams(1.0, 1.0, 0.5)
    bundle = seeded_construction(parse("tan(x)"), params, "plus")
    grid = Grid(-0.6, 0.6, 1201)
    phi = integrate_linear(bundle.U, grid, 1.0, 0.0,
                           IntegratorConfig(method="rk4"))
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
    rep = residual(bundle, psi)
    assert rep.max_abs <= 1e-6
    # the induced forcing really oscillates: sign changes on the window
    fvals = lambdify(bundle.f)(np.linspace(-0.6, 0.6, 200))
    assert np.min(fvals) < 0 < np.max(fvals)


def test_seeded_rejects_unknown_branch():
    with pytest.raises(ValueError):
        seeded_construction(Const(0.0), VdpParams(1, 1, 0), "sideways")


def test_bundle_json_round_trip():
    params = VdpParams(1.1, -0.9, 0.25)
    b = solve_chain(parse("x/(2+x^2)"), params)
    expanded = b.with_entries(verify_printed_coeffs(
        b.P, b.U, params, b.v, b.h, b.g, b.f))
    text = bundle_to_json(expanded)
    back = bundle_from_json(text)
    assert back.params == params
    assert len(back.ledger) == len(expanded.ledger)
    xs = np.linspace(0.0, 4.0, 101)
    for name in ("P", "U", "g", "h", "v", "f"):
        a = lambdify(getattr(expanded, name))(xs)
        c = lambdify(getattr(back, name))(xs)
        assert np.max(np.abs(a - c)) == 0.0
    # byte-stable serialization
    assert bundle_to_json(back) == bundle_to_json(bundle_from_json(text))


def test_chain_with_free_parameters_is_total():
    # unbound parameter: chain still succeeds, and the forcing check, a zero
    # gap in the ring, is decided exactly; a gap that is still a function of
    # x and a, here Lienard b1 = 4U - 12P^2, is marked not evaluated
    b = solve_chain(parse("a*x"), VdpParams(1.0, 1.0, 0.0))
    assert (b.ledger[0].agrees, b.ledger[0].max_abs_diff) == (True, 0.0)
    assert "a" in to_str(b.P)
    b1 = lienard_coeffs([Const(0.0)] * 3, parse("a*x"), parse("x")).ledger[1]
    assert (b1.check, b1.agrees, b1.points) == (
        "restoring-coefficient-b1", None, 0)
    assert b1.note == "not evaluated: parameter 'a' is not bound"


def test_polynomial_checks_are_exact_on_general_instances():
    # sampled on [0, 5], rounding near the poles of P made 21 of these 200
    # reduced-coefficient entries disagree; their gaps are the zero
    # polynomial
    for params, P in general_instances(40, seed=3):
        b = solve_chain(P, params)
        for e in b.ledger + tuple(verify_printed_coeffs(
                b.P, b.U, params, b.v, b.h, b.g, b.f)):
            assert (e.agrees, e.max_abs_diff, e.points, e.note) == (
                True, 0.0, 0, "exact"), e.check


def test_finite_constant_bundles_keep_their_bytes():
    # sha256 of the symbolic fields (everything but the sampled ledger).
    # Finite folds print the same bytes as before non-finite folds were
    # left unfolded; U, h, v and f, the Van der Pol chain's polynomials in
    # P, P' and P'', and the Lienard b are pinned in the ring's order of
    # terms
    P = parse("0.3 - 0.2*x + 0.15*x^2")
    docs = {
        "custom": bundle_to_dict(solve_chain(parse("x/(2+x^2)"),
                                             VdpParams(1, 1.5, 0.4))),
        "consts": bundle_to_dict(solve_chain(
            parse("2*3*x + 0.1 + 0.2 - 1e300*1e-300 + sqrt(2)/7 + 2^10"),
            VdpParams(2, 1, 0.75))),
        "seeded": bundle_to_dict(seeded_construction(
            parse("0.4*x"), VdpParams(1, 1, 0.5), "minus")),
        "case1": bundle_to_dict(catalog.case1(VdpParams(2, 1, 0.75)).bundle),
        "case3": bundle_to_dict(catalog.case3(VdpParams(1, 1, 0), 1.0).bundle),
        "lienard": lienard_spec_to_dict(lienard_coeffs(
            [parse("0.4"), parse("-0.2"), parse("0.3")], P, riccati_u(P))),
    }
    expected = {
        "custom": "82d50268f0a7c659037db4a51f03f4aae40825c7d861cffd22c8115ada628c89",
        "consts": "3611b142c76a02e6b7869739511f04e311de89b6d12754db74e177ea950efdc5",
        "seeded": "0ae6631cfb5a3ecf3eaddab010e37ae111c80d90913436483ef48667c77a8219",
        "case1": "ff06cf37215c860d071bbf9d1c7a00efb2c8599d984ab7088987595e8d6ebc1f",
        "case3": "aa78e25f3642d383ed9eb23b16dfcc05ed48209617d1bff9ae2b1b3ea40082e9",
        "lienard": "79b616a747bb3d1e7cd8e43abb94a5f9957f6507c68277c06329a78958988c5d",
    }
    for name, doc in docs.items():
        symbolic = {k: v for k, v in doc.items() if k != "ledger"}
        digest = hashlib.sha256(
            json.dumps(symbolic, sort_keys=True).encode()).hexdigest()
        assert digest == expected[name], name
    # f is about 4e9 there: sampled, the identity read 1.4e-6 apart
    forcing = docs["consts"]["ledger"][0]
    assert (forcing["agrees"], forcing["max_abs_diff"]) == (True, 0.0)


def test_general_bundles_and_riccati_specs_keep_their_bytes():
    # sha256 of the whole JSON text, ledger included: general-P bundles,
    # whose every entry is decided exactly, and Riccati specs over
    # quadratic shifts, whose sampled entries are arithmetic only, so
    # neither depends on a libm
    bundles = hashlib.sha256()
    for params, P in general_instances(40, seed=17):
        b = solve_chain(P, params)
        b = b.with_entries(verify_printed_coeffs(b.P, b.U, params, b.v, b.h,
                                                 b.g, b.f))
        bundles.update(bundle_to_json(b).encode())
    specs = hashlib.sha256()
    for p0, p1, p2, *c in np.random.default_rng(17).uniform(-1, 1, (40, 6)):
        P = float(p0) + float(p1) * X + float(p2) * X ** 2
        spec = lienard_coeffs([Const(float(ci)) for ci in c], P, riccati_u(P))
        specs.update(lienard_spec_to_json(spec).encode())
    assert bundles.hexdigest() == (
        "beba3ce04a7c0573fa34ec577fa317c6694b7dc02accb815fb6d39af5d4f1a03")
    assert specs.hexdigest() == (
        "183f19cfe0bf43ec95c77338af3266c02285159dbad9075077f408e74e36b879")


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "not a JSON object"),
    ({"P": "x"}, "missing field 'params'"),
    ({"params": {"mu": 1, "beta": 1, "alpha": "nan"}, "P": "x", "U": "0",
      "g": "-1", "h": "2", "v": "2", "f": "0"}, "alpha must be finite"),
    ({"params": {"mu": 1, "beta": 1, "alpha": 0}, "P": 3, "U": "0",
      "g": "-1", "h": "2", "v": "2", "f": "0"}, ""),
])
def test_malformed_bundle_document_raises_one_error_type(doc, message):
    with pytest.raises(BundleFormatError, match="^malformed bundle: ") as info:
        bundle_from_dict(doc)
    assert message in str(info.value)
