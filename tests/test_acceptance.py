"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints
one PASS line (visible under pytest -s or in the captured report).  The
random suites draw from fixed seeds so the run is reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (TIGHT, build_instance, round_trip_metrics,
                      sampled_annihilation)
from vdplin.catalog import case1
from vdplin.cli import run as cli_run
from vdplin.colehopf import VdpParams, solve_chain, verify_annihilation
from vdplin.expr import (Add, Const, Div, Fun, Mul, Neg, Pow, Sub, X, diff,
                         lambdify, parse, simplify, subst)
from vdplin.lienard import lienard_coeffs, riccati_u
from vdplin.odesolve import (Grid, IntegratorConfig, Trajectory,
                             cole_hopf_map, compare, integrate_linear,
                             integrate_vdp, lienard_residual, residual)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}]")


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(20260808)
    return [build_instance(rng) for _ in range(20)]


def test_criterion_1_annihilation_suite(instances):
    # a chain bundle is decided exactly, so its a_0..a_4 are also sampled
    # here, as verify_annihilation samples any other bundle's
    t0 = time.monotonic()
    worst, exact = 0.0, 0
    for bundle, a, b in instances:
        xs = Grid(a, b, 501).xs
        rep = verify_annihilation(bundle, xs)
        assert rep.passed, rep.max_abs
        exact += rep.note == "exact"
        worst = max(worst, max(rep.max_abs),
                    sampled_annihilation(bundle, xs))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed <= 10.0, f"annihilation suite took {elapsed:.1f}s"
    _report(1, "annihilation suite",
            f"20 instances, {exact} decided exactly, worst sampled "
            f"max|a_i| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_round_trip(instances):
    worst = 0.0
    for bundle, a, b in instances:
        m = round_trip_metrics(bundle, a, b)
        worst = max(worst, m.rel_linf)
        assert m.rel_linf <= 1e-6
    _report(2, "round trip", f"worst relative Linf = {worst:.2e}")


def test_criterion_3_analytic_instance():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    grid = Grid(1.0, 5.0, 401)

    exact = Trajectory.from_expr(parse("1/x"), grid)
    rep = residual(bundle, exact)
    assert rep.max_abs <= 1e-10

    phi = integrate_linear(bundle.U, grid, 1.0, 1.0, TIGHT)  # phi = x
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
    assert np.max(np.abs(psi.values - 1 / psi.xs)) <= 1e-8
    direct = integrate_vdp(bundle, grid, 1.0, -1.0, TIGHT)
    assert np.max(np.abs(direct.values - 1 / direct.xs)) <= 1e-8
    m = compare(psi, direct)
    assert m.linf <= 1e-8
    _report(3, "analytic instance",
            f"symbolic residual {rep.max_abs:.2e}, "
            f"round trip Linf {m.linf:.2e}")


def test_criterion_4_case1_structure():
    rng = np.random.default_rng(41)
    worst_u = worst_om = worst_basis = 0.0
    xs = Grid(0.0, 5.0, 501)
    for _ in range(50):
        mu = float(rng.uniform(0.25, 2.0)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(0.25, 2.0)) * (1 if rng.random() < 0.5 else -1)
        alpha = float(rng.uniform(-2.0, (mu * beta) ** 2 / 4))
        sign = 1 if rng.random() < 0.5 else -1
        sol = case1(VdpParams(mu, beta, alpha), sign)

        mb = mu * beta
        k = sign * math.sqrt(mb * mb - 4.0 * alpha)
        u0 = simplify(sol.bundle.U).value
        uv = lambdify(sol.bundle.U)(xs.xs)
        assert np.max(np.abs(uv - u0)) <= 1e-12          # U is constant
        worst_u = max(worst_u, abs(u0 - ((mu * beta - k) / 4.0) ** 2))
        assert worst_u <= 1e-12

        omega_sq_ref = (mb * mb + 2 * mb * k - 3 * k * k - 8 * alpha) / 16.0
        worst_om = max(worst_om, abs(omega_sq_ref - (-u0)))
        assert worst_om <= 1e-12

        for basis in sol.phi_basis:
            resid = lambdify(diff(diff(basis)) - sol.bundle.U * basis)(xs.xs)
            scale = np.maximum(1.0, np.abs(lambdify(basis)(xs.xs)))
            worst_basis = max(worst_basis, float(np.max(np.abs(resid) / scale)))
            assert worst_basis <= 1e-9
    _report(4, "constant-shift family structure",
            f"50 sets: |U - ((mb-k)/4)^2| <= {worst_u:.1e}, "
            f"|omega^2 + U| <= {worst_om:.1e}, basis residual "
            f"<= {worst_basis:.1e}")


def test_criterion_5_ledger_completeness(tmp_path):
    out = tmp_path / "case3"
    code = cli_run(["case3", "--mu", "1", "--beta", "1", "--alpha", "0",
                    "--c", "1", "--out", str(out)])
    assert code == 0
    bundle = json.loads((out / "bundle.json").read_text())
    entries = {e["check"]: e for e in bundle["ledger"]}
    watched = [entries.get("case3-reference-P"), entries.get("case3-reference-U")]
    assert all(e is not None for e in watched), "ledger is silent"
    for e in watched:
        # either a recorded disagreement or a demonstrated agreement
        assert e["agrees"] in (True, False)
        assert e["max_abs_diff"] is not None
        if e["agrees"]:
            assert e["max_abs_diff"] <= 1e-10
    outcome = {e["check"]: (e["agrees"], e["max_abs_diff"]) for e in watched}
    assert any(not e["agrees"] for e in watched) or \
        all(e["max_abs_diff"] <= 1e-10 for e in watched)
    _report(5, "discrepancy ledger completeness", f"{outcome}")


def test_criterion_6_lienard_suite():
    rng = np.random.default_rng(61)
    worst_b0 = worst_res = 0.0
    xs = np.linspace(0.0, 2.0, 501)
    grid = Grid(0.0, 2.0, 2001)
    rk4 = IntegratorConfig(method="rk4")
    for _ in range(20):
        pc = rng.uniform(-0.5, 0.5, 3)
        P = subst(parse("p0 + p1*x + p2*x^2"),
                  {"p0": pc[0], "p1": pc[1], "p2": pc[2]})
        U = riccati_u(P)
        c = []
        for _ in range(3):
            cv = rng.uniform(-0.5, 0.5, 2)
            c.append(subst(parse("q0 + q1*x"), {"q0": cv[0], "q1": cv[1]}))
        psi0 = float(rng.uniform(0.0, 0.8))
        spec = lienard_coeffs(c, P, U, grid=grid.xs)
        phi = integrate_linear(spec.U, grid, 1.0,
                               psi0 - float(lambdify(P)(0.0)), rk4)
        psi = cole_hopf_map(spec.P, phi, U=spec.U)
        report = lienard_residual(spec.c, spec.b, psi)

        assert spec.b[4] is spec.c[2]                       # exact identity
        b0 = float(np.max(np.abs(lambdify(spec.b[0])(xs))))
        worst_b0 = max(worst_b0, b0)
        assert b0 <= 1e-9
        worst_res = max(worst_res, report.max_abs)
        assert report.max_abs <= 1e-8
    _report(6, "Lienard suite",
            f"20 instances: b0 <= {worst_b0:.1e}, residual <= {worst_res:.1e}")


def _random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return X
        return Const(round(float(rng.uniform(-2, 2)), 3))
    pick = rng.integers(0, 7)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if pick == 0:
        return Add(a, b)
    if pick == 1:
        return Sub(a, b)
    if pick == 2:
        return Mul(a, b)
    if pick == 3:
        return Div(a, b)
    if pick == 4:
        return Pow(a, Const(float(rng.integers(0, 4))))
    if pick == 5:
        return Neg(a)
    name = ("exp", "sin", "cos", "sinh", "cosh", "tan")[rng.integers(0, 6)]
    return Fun(name, a)


def _safe_eval(e, x):
    v = float(lambdify(e)(x))
    return v if math.isfinite(v) else None


def test_criterion_7_numerics():
    # fixed-step order: halving the step cuts the sine-problem error ~16x
    def err(n):
        t = integrate_linear(Const(-1.0), Grid(0.0, math.pi, n), 0.0, 1.0,
                             IntegratorConfig(method="rk4"))
        return np.max(np.abs(t.values - np.sin(t.xs)))

    ratio = err(51) / err(101)
    assert 16 * 0.7 <= ratio <= 16 * 1.3

    # derivative fuzzer: symbolic vs central difference on 100 random
    # expressions at 10 points each
    rng = np.random.default_rng(71)
    checked = 0
    worst = 0.0
    trees = 0
    while trees < 100:
        e = _random_expr(rng, 4)
        trees += 1
        de = diff(e)
        for x in rng.uniform(-2.0, 2.0, 10):
            x = float(x)
            h = (2.0 ** -52) ** (1 / 3) * max(1.0, abs(x))
            vals = [_safe_eval(e, x + k * h) for k in (-1, 0, 1)]
            if any(v is None or abs(v) > 1e4 for v in vals):
                continue
            sym = _safe_eval(de, x)
            if sym is None or abs(sym) > 1e4:
                continue
            if abs(vals[2] - 2 * vals[1] + vals[0]) / h ** 2 > 1e4:
                continue
            nbhd = [_safe_eval(de, x - h), _safe_eval(de, x + h)]
            if any(v is None for v in nbhd):
                continue
            smooth = (nbhd[0] + nbhd[1]) / 2
            if abs(sym - smooth) > 1e-5 * max(1.0, abs(sym), abs(smooth)):
                continue  # derivative tree hit catastrophic cancellation
            fd = (vals[2] - vals[0]) / (2 * h)
            rel = abs(sym - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            checked += 1
            assert rel <= 1e-5, f"{e} at x={x}"
    assert checked >= 200  # the filters must not hollow the suite out
    _report(7, "numerics",
            f"rk4 halving ratio {ratio:.2f}, derivative fuzz: "
            f"{checked} points, worst rel err {worst:.1e}")


CRITERION_8_INVOCATIONS = {
    "case1": ["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75"],
    "case2": ["case2", "--mu", "2", "--beta", "2", "--alpha", "4"],
    "case3": ["case3", "--mu", "1", "--beta", "1", "--alpha", "0",
              "--c", "1"],
    "custom": ["custom", "--P", "x/(2+x^2)", "--mu", "1", "--beta", "1.5",
               "--alpha", "0.4", "--x1", "3"],
    "seeded": ["seeded", "--s", "a*x", "--a", "0.4", "--mu", "1",
               "--beta", "1", "--alpha", "0.5", "--x1", "3"],
    "lienard": ["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
                "--P", "0.3 - 0.2*x + 0.15*x^2", "--riccati",
                "--x1", "2", "--n", "2001", "--dphi0", "0.3"],
}


def test_criterion_8_cli_determinism(tmp_path):
    for name, argv in CRITERION_8_INVOCATIONS.items():
        outs = []
        for tag in ("1", "2"):
            d = tmp_path / f"{name}-{tag}"
            assert cli_run(argv + ["--out", str(d)]) == 0, name
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outs[0] == outs[1], f"{name} output differs between runs"

    # verify is deterministic too, and catches tampering with exit 3
    src = tmp_path / "custom-1" / "bundle.json"
    for tag in ("1", "2"):
        d = tmp_path / f"verify-{tag}"
        assert cli_run(["verify", "--bundle", str(src), "--x1", "3",
                        "--out", str(d)]) == 0
    v1 = (tmp_path / "verify-1" / "verify.json").read_bytes()
    v2 = (tmp_path / "verify-2" / "verify.json").read_bytes()
    assert v1 == v2

    doc = json.loads(src.read_text())
    doc["f"] = doc["f"] + " + 1"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert cli_run(["verify", "--bundle", str(bad), "--x1", "3",
                    "--out", str(tmp_path / "verify-bad")]) == 3
    _report(8, "CLI determinism",
            "6 subcommands byte-identical across runs; tampered bundle "
            "exits 3")
