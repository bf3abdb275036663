"""Numerical layer: integrator accuracy and order, the substitution map
with pole handling, residual measurement and trajectory comparison."""

import math

import numpy as np
import pytest

from vdplin.colehopf import TransformBundle, VdpParams, solve_chain
from vdplin.expr import Const, lambdify, parse, simplify
from vdplin.odesolve import (DisjointSegmentsError, Grid, IntegratorConfig,
                             SegmentTooShortError, StepUnderflowError,
                             Trajectory, _integrate_rk4, _runs, cole_hopf_map,
                             compare, integrate_linear, integrate_vdp,
                             lienard_residual, regular_window, residual,
                             trajectory_csv)

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)


def _manual_bundle(mu, beta, alpha, v="0", h="0", g="0", f="0"):
    return TransformBundle(P=Const(0.0), U=Const(0.0), g=parse(g), h=parse(h),
                           v=parse(v), f=parse(f),
                           params=VdpParams(mu, beta, alpha))


# ---------------------------------------------------------------------------
# linear integration

def test_linear_zero_potential_exact():
    for method in ("adaptive", "rk4"):
        t = integrate_linear(Const(0.0), Grid(0.0, 3.0, 61), 1.0, 1.0,
                             IntegratorConfig(method=method))
        assert np.max(np.abs(t.values - (1 + t.xs))) <= 1e-12
        assert np.max(np.abs(t.derivatives - 1.0)) <= 1e-12


def test_linear_cosh_oracle():
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
    t = integrate_linear(Const(1.0), Grid(0.0, 2.0, 21), 1.0, 0.0, cfg)
    assert t.values[-1] == pytest.approx(math.cosh(2.0), rel=1e-8)
    assert t.derivatives[-1] == pytest.approx(math.sinh(2.0), rel=1e-8)


def test_linear_sine_zero_at_pi():
    t = integrate_linear(Const(-1.0), Grid(0.0, math.pi, 101), 0.0, 1.0,
                         IntegratorConfig(rtol=1e-9, atol=1e-12))
    assert abs(t.values[-1]) <= 1e-8


def test_rk4_order_is_four():
    # halving the step cuts the error by about 2^4
    def endpoint_error(n):
        t = integrate_linear(Const(-1.0), Grid(0.0, math.pi, n), 0.0, 1.0,
                             IntegratorConfig(method="rk4"))
        return np.max(np.abs(t.values - np.sin(t.xs)))

    e1, e2 = endpoint_error(51), endpoint_error(101)
    ratio = e1 / e2
    assert 16 * 0.7 <= ratio <= 16 * 1.3


def test_rk4_propagators_match_generic_loop():
    # the general-system RK4 loop on y' = (y1, U y0) is the reference for
    # the step-propagator kernel behind integrate_linear(method="rk4")
    custom = solve_chain(parse("x/(2+x^2)"), VdpParams(1.0, 1.5, 0.4))
    cases = [
        (Const(-1.0), Grid(0.0, math.pi, 101), 0.0, 1.0),
        (custom.U, Grid(0.0, 5.0, 2001), 1.0, 0.0),
    ]
    for U, grid, phi0, dphi0 in cases:
        got = integrate_linear(U, grid, phi0, dphi0,
                               IntegratorConfig(method="rk4"))
        ufn = lambdify(simplify(U), scalar=True)
        want = _integrate_rk4(lambda x, y: (y[1], ufn(x) * y[0]), grid.xs,
                              (phi0, dphi0))
        assert got.segments == want.segments == [(0, grid.n)]
        for a, b in ((got.values, want.values),
                     (got.derivatives, want.derivatives)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_rk4_blow_up_keeps_finite_prefix():
    # phi' grows about 640-fold per step, so the partial trajectory ends
    # within three decades of overflow
    grid = Grid(0.0, 10.0, 1001)
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(Const(1e6), grid, 1.0, 0.0,
                         IntegratorConfig(method="rk4"))
    part = err.value.partial
    k = len(part.xs)
    assert 2 <= k < grid.n
    assert part.segments == [(0, k)]
    assert np.all(np.isfinite(part.values))
    assert np.all(np.isfinite(part.derivatives))
    assert abs(part.derivatives[-1]) > np.finfo(float).max / 1e3
    assert err.value.bracket == (float(grid.xs[k - 1]), 10.0)


def test_adaptive_tolerance_monotonicity():
    # tightening rtol by 10x never makes the closed-form comparison worse
    problems = [
        (Const(0.0), 1.0, 1.0, "1 + x"),
        (Const(1.0), 1.0, 0.0, "cosh(x)"),
        (Const(-1.0), 0.0, 1.0, "sin(x)"),
    ]
    grid = Grid(0.0, 2.5, 51)
    for U, p0, dp0, exact_text in problems:
        oracle = Trajectory.from_expr(parse(exact_text), grid)
        errs = []
        for rtol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            t = integrate_linear(U, grid, p0, dp0,
                                 IntegratorConfig(rtol=rtol, atol=1e-14))
            errs.append(compare(t, oracle).linf)
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse * 1.000001


# ---------------------------------------------------------------------------
# nonlinear integration

def test_vdp_reciprocal_solution():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    t = integrate_vdp(bundle, Grid(1.0, 5.0, 201), 1.0, -1.0, TIGHT)
    assert np.max(np.abs(t.values - 1 / t.xs)) <= 1e-8


def test_vdp_harmonic_degeneration():
    # mu = 0 and no perturbation terms leaves psi'' = -alpha psi
    bundle = _manual_bundle(0.0, 1.0, 1.0)
    t = integrate_vdp(bundle, Grid(0.0, 2 * math.pi, 101), 1.0, 0.0, TIGHT)
    assert np.max(np.abs(t.values - np.cos(t.xs))) <= 1e-9


def test_vdp_round_trip_from_construction():
    bundle = solve_chain(parse("x/(4+x^2)"), VdpParams(0.7, 1.1, 0.2))
    grid = Grid(0.0, 3.0, 301)
    phi = integrate_linear(bundle.U, grid, 1.0, 0.2, TIGHT)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
    direct = integrate_vdp(bundle, grid, float(psi.values[0]),
                           float(psi.derivatives[0]), TIGHT)
    m = compare(psi, direct)
    assert m.rel_linf <= 1e-8


def test_vdp_blow_up_reports_bracket():
    # a positive quartic term with growing psi blows up in finite time
    bundle = _manual_bundle(0.0, 1.0, -1.0, g="3")
    with pytest.raises(StepUnderflowError) as err:
        integrate_vdp(bundle, Grid(0.0, 10.0, 101), 1.0, 1.0)
    lo, hi = err.value.bracket
    assert 0.0 < lo < hi <= 10.0
    assert err.value.partial is not None


# ---------------------------------------------------------------------------
# the map and poles

def test_map_exponential_is_constant():
    grid = Grid(0.0, 2.0, 41)
    phi = Trajectory.from_expr(parse("exp(x)"), grid)
    psi = cole_hopf_map(Const(0.0), phi)
    assert np.allclose(psi.values, 1.0, atol=1e-12)
    assert psi.pole_brackets == []
    assert psi.segments == [(0, 41)]


def test_map_linear_phi_has_pole():
    grid = Grid(-1.0, 1.0, 81)
    phi = Trajectory.from_expr(parse("x"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(0.0))
    assert len(psi.pole_brackets) == 1
    a, b = psi.pole_brackets[0]
    assert a <= 0.0 <= b and (b - a) <= 1e-9
    assert len(psi.segments) == 2
    for i0, i1 in psi.segments:
        xs = psi.xs[i0:i1]
        vals = psi.values[i0:i1]
        keep = np.abs(xs) > 1e-6
        assert np.allclose(vals[keep], 1 / xs[keep], rtol=1e-9)


def test_map_pole_symmetry():
    # psi * (x - x*) -> 1 from both sides of a simple zero
    grid = Grid(-1.0, 1.0, 2001)  # includes +-1e-3
    phi = Trajectory.from_expr(parse("x"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(0.0))
    star = np.mean(psi.pole_brackets[0])
    for x in (-1e-3, 1e-3):
        i = int(np.argmin(np.abs(psi.xs - x)))
        assert psi.values[i] * (psi.xs[i] - star) == pytest.approx(1.0, rel=0.05)


def test_map_splits_at_every_pole():
    grid = Grid(0.5, 20.0, 3901)
    phi = Trajectory.from_expr(parse("sin(x)"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(-1.0))
    assert len(psi.pole_brackets) == 6
    for k, (a, b) in enumerate(psi.pole_brackets, start=1):
        assert a <= k * math.pi <= b and b - a <= 1e-9
    assert len(psi.segments) == 7
    assert psi.segments[0][0] == 0 and psi.segments[-1][1] == grid.n
    for (_, end), (start, _) in zip(psi.segments, psi.segments[1:]):
        assert start == end


def test_runs_matches_scan():
    def scan(mask):
        runs, start = [], None
        for i, ok in enumerate(mask):
            if ok and start is None:
                start = i
            elif not ok and start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, len(mask)))
        return runs

    rng = np.random.default_rng(5)
    masks = [np.zeros(0, bool), np.ones(3, bool), np.zeros(3, bool)]
    masks += [rng.random(n) < 0.6 for n in (1, 2, 17, 200)]
    for mask in masks:
        assert _runs(mask) == scan(mask)


def test_map_case1_gives_shifted_tanh():
    sol_bundle = solve_chain(Const(0.25), VdpParams(2.0, 1.0, 0.75))
    grid = Grid(-2.0, 2.0, 101)
    phi = Trajectory.from_expr(parse("cosh(x/4)"), grid)
    psi = cole_hopf_map(sol_bundle.P, phi, U=sol_bundle.U)
    want = 0.25 + 0.25 * np.tanh(psi.xs / 4)
    assert np.max(np.abs(psi.values - want)) <= 1e-12
    rep = residual(sol_bundle, psi)
    assert rep.max_abs <= 1e-8


def test_map_derivatives_without_potential_fall_back_to_fd():
    grid = Grid(0.0, 2.0, 401)
    phi = Trajectory.from_expr(parse("exp(x) + exp(-x)"), grid)
    psi = cole_hopf_map(Const(0.0), phi)
    want = 1.0 / np.cosh(psi.xs) ** 2  # d/dx tanh
    inner = slice(2, -2)
    assert np.max(np.abs(psi.derivatives[inner] - want[inner])) <= 1e-8


# ---------------------------------------------------------------------------
# residuals

def test_residual_exact_reciprocal_symbolic():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    traj = Trajectory.from_expr(parse("1/x"), Grid(1.0, 5.0, 401))
    rep = residual(bundle, traj)
    assert rep.max_abs <= 1e-10


def test_residual_detects_perturbation():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    traj = Trajectory.from_expr(parse("1/x + 0.01"), Grid(1.0, 5.0, 401))
    rep = residual(bundle, traj)
    # brute-force floor of the perturbed residual on this window
    xs = np.linspace(1.0, 5.0, 401)
    psi = 1 / xs + 0.01
    dpsi = -1 / xs ** 2
    ddpsi = 2 / xs ** 3
    want = np.max(np.abs(ddpsi - (2 - psi ** 2) * dpsi - 2 * psi ** 2
                         - 2 * psi ** 3 + psi ** 4))
    assert rep.max_abs == pytest.approx(want, rel=1e-9)
    assert rep.max_abs > 1e-3


def test_residual_detects_forcing_mismatch():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    tampered = TransformBundle(P=bundle.P, U=bundle.U, g=bundle.g,
                               h=bundle.h, v=bundle.v, f=parse("1"),
                               params=bundle.params)
    traj = Trajectory.from_expr(parse("1/x"), Grid(1.0, 5.0, 401))
    rep = residual(tampered, traj)
    assert rep.max_abs == pytest.approx(1.0, rel=1e-9)


def test_residual_finite_difference_route():
    # sampled trajectory, no expr attached: five-point stencils
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    grid = Grid(1.0, 5.0, 2001)
    xs = grid.xs
    traj = Trajectory(xs=xs, values=1 / xs, derivatives=-1 / xs ** 2,
                      segments=[(0, len(xs))])
    rep = residual(bundle, traj)
    assert rep.max_abs <= 1e-8


def test_residual_too_short_segment():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    xs = np.linspace(1.0, 1.1, 4)
    traj = Trajectory(xs=xs, values=1 / xs, derivatives=-1 / xs ** 2,
                      segments=[(0, 4)])
    with pytest.raises(SegmentTooShortError):
        residual(bundle, traj)


def test_lienard_residual_trivial_families():
    zeros3 = [Const(0.0)] * 3
    zeros5 = [Const(0.0)] * 5
    traj = Trajectory.from_expr(parse("1 + x"), Grid(0.0, 2.0, 101))
    rep = lienard_residual(zeros3, zeros5, traj)
    assert rep.max_abs <= 1e-12

    b = [Const(1.0)] + [Const(0.0)] * 4
    traj = Trajectory.from_expr(parse("-(x^2)/2"), Grid(0.0, 2.0, 101))
    rep = lienard_residual(zeros3, b, traj)
    assert rep.max_abs <= 1e-12


def test_residual_guard_band_excludes_poles():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    grid = Grid(-1.0, 1.0, 801)
    phi = Trajectory.from_expr(parse("x"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(0.0))
    rep = residual(bundle, psi, guard_tol=0.05)
    for seg in rep.segments:
        assert seg.x_end <= -0.05 or seg.x_start >= 0.05
    assert rep.max_abs <= 1e-9


# ---------------------------------------------------------------------------
# comparison

def test_compare_identical_and_shifted():
    grid = Grid(0.0, 1.0, 51)
    a = Trajectory.from_expr(parse("sin(x)"), grid)
    b = Trajectory.from_expr(parse("sin(x)"), grid)
    m = compare(a, b)
    assert m.linf == 0.0 and m.rel_l2 == 0.0

    c = Trajectory.from_expr(parse("sin(x) + 0.001"), grid)
    m = compare(a, c)
    assert m.linf == pytest.approx(1e-3, rel=1e-10)


def test_compare_resamples_different_grids():
    a = Trajectory.from_expr(parse("sin(x)"), Grid(0.0, 2.0, 101))
    b = Trajectory.from_expr(parse("sin(x)"), Grid(0.0, 2.0, 157))
    m = compare(a, b)
    assert m.linf <= 1e-7  # cubic resampling error only


def test_compare_disjoint_raises():
    a = Trajectory.from_expr(parse("x"), Grid(0.0, 1.0, 11))
    b = Trajectory.from_expr(parse("x"), Grid(2.0, 3.0, 11))
    with pytest.raises(DisjointSegmentsError):
        compare(a, b)


# ---------------------------------------------------------------------------
# serialization and windows

def test_trajectory_csv_format():
    grid = Grid(-1.0, 1.0, 11)
    phi = Trajectory.from_expr(parse("x"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(0.0))
    text = trajectory_csv(psi)
    lines = text.splitlines()
    assert lines[0] == "x,value,derivative,segment"
    assert lines[1].startswith("# pole [")
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    # one row per retained grid point, segment ids in the last column
    assert all(len(row.split(",")) == 4 for row in data)
    segs = {row.rsplit(",", 1)[1] for row in data}
    assert segs == {"0", "1"}
    # shortest round-trip floats survive parsing
    x0 = float(data[0].split(",")[0])
    assert x0 == -1.0
    # the same bytes as formatting each numpy sample on its own
    want = lines[:2]
    for seg_id, (i0, i1) in enumerate(psi.segments):
        want += [f"{float(psi.xs[i])!r},{float(psi.values[i])!r},"
                 f"{float(psi.derivatives[i])!r},{seg_id}" for i in range(i0, i1)]
    assert text == "\n".join(want) + "\n"


def test_regular_window_avoids_singularity():
    a, b = regular_window([parse("1/(x-2)")], 0.0, 5.0, cap=50.0)
    assert (2.0 < a or b < 2.0)
    assert b - a >= 1.0
