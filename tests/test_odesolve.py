"""Numerical layer: integrator accuracy and order, the substitution map
with pole handling, residual measurement and trajectory comparison."""

import io
import json
import math
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_integrate_rk4, _stalled, build_instance,
                      count_compiles, float_fn, record_derivations,
                      round_trip_metrics)
from test_expr_reference import (_XS, _raw_trees, _same_outcome, build,
                                 ref_scalar_code)
from vdplin import odesolve
from vdplin._floatfmt import _BLOCK, repr_fields
from vdplin.catalog import case3
from vdplin.colehopf import TransformBundle, VdpParams, solve_chain
from vdplin.expr import (Add, Const, Mul, OdeRhs, Param, UnboundParameterError,
                         X, _postorder, exp, lambdify, lambdify_ode, parse,
                         simplify, subst)
from vdplin.odesolve import (DisjointSegmentsError, Grid, IntegratorConfig,
                             NonFiniteCoefficientError, SegmentTooShortError,
                             StepUnderflowError, Trajectory, _SCAN_BLOCK,
                             _linear_rk4, _runs, _step_matrices,
                             cole_hopf_map, compare, integrate_linear,
                             integrate_vdp, lienard_residual, regular_window,
                             residual, trajectory_csv, trajectory_json)

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
        ufn = float_fn(simplify(U))
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


def _sequential_rk4(ufn, xs, phi0, dphi0):
    """The step-by-step recurrence y_{n+1} = M_n y_n over Python floats,
    with the stall rule of _linear_rk4: the reference for its blocked scan."""
    y0, y1 = float(phi0), float(dphi0)
    vals, ders = [y0], [y1]
    for a00, a01, a10, a11 in zip(
            *_step_matrices(ufn, xs).reshape(4, -1).tolist()):
        y0, y1 = a00 * y0 + a01 * y1, a10 * y0 + a11 * y1
        vals.append(y0)
        ders.append(y1)
    values, derivatives = np.array(vals), np.array(ders)
    bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(derivatives)))
    if bad.size:
        raise _stalled(xs, values, derivatives, max(int(bad[0]), 1) - 1)
    return Trajectory(xs=xs, values=values, derivatives=derivatives,
                      segments=[(0, len(xs))])


def _rk4_outcome(integrate, ufn, xs, phi0, dphi0):
    """(None, trajectory), or (bracket, partial trajectory) of a stall."""
    try:
        return None, integrate(ufn, xs, phi0, dphi0)
    except StepUnderflowError as err:
        return err.bracket, err.partial


def _assert_same_rk4(ufn, xs, phi0, dphi0):
    """The scan stops where the recurrence does, with the same partial
    trajectory to 1e-13 relative; returns the recurrence's outcome."""
    got = _rk4_outcome(_linear_rk4, ufn, xs, phi0, dphi0)
    want = _rk4_outcome(_sequential_rk4, ufn, xs, phi0, dphi0)
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert np.array_equal(got[1].xs, want[1].xs)
        assert got[1].segments == want[1].segments
        for a, b in ((got[1].values, want[1].values),
                     (got[1].derivatives, want[1].derivatives)):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)
    return want


@pytest.mark.parametrize("u, bracket, points", [
    (1e150, (0.1, 1.0), 2), (1e156, (0.0, 1.0), None),
], ids=["second-step", "first-step"])
def test_rk4_stall_keeps_a_prefix_of_two_points(u, bracket, points):
    # the state overflows at step 2, leaving the two finite points, or at
    # step 1, leaving no partial trajectory and naming the potential
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(Const(u), Grid(0.0, 1.0, 11), 1.0, 0.0,
                         IntegratorConfig(method="rk4"))
    assert err.value.bracket == bracket
    part = err.value.partial
    assert (None if part is None else len(part.xs)) == points
    if part is not None:
        assert part.segments == [(0, points)]
        assert np.all(np.isfinite(part.values))
    else:
        assert "|U| reaches" in str(err.value)


@pytest.mark.parametrize("n", [2, 3, 3 * _SCAN_BLOCK + 6, 20001])
def test_rk4_scan_matches_the_recurrence(n):
    ufn = lambdify(parse("1 + x^2/4"))
    bracket, traj = _assert_same_rk4(ufn, Grid(0.0, 2.0, n).xs, 1.0, 0.5)
    assert bracket is None and len(traj.xs) == n


@pytest.mark.parametrize("offset", [0, _SCAN_BLOCK // 2, _SCAN_BLOCK - 1])
def test_rk4_scan_stalls_where_the_recurrence_does(offset):
    # U jumps from 0 to 1e6 at x_on; the state then grows about 640-fold
    # per step and overflows at step i, placed at each offset in its block
    xs = Grid(0.0, 10.0, 1001).xs

    def onset(j):
        x_on = xs[j] - 0.0025
        return lambda x: np.where(x >= x_on, 1e6, 0.0)

    def stall_step(j):
        return len(_rk4_outcome(_sequential_rk4, onset(j), xs, 1.0, 0.0)[1]
                   .xs) - 1

    j = 100 + (offset - stall_step(100)) % _SCAN_BLOCK
    assert stall_step(j) % _SCAN_BLOCK == offset
    assert _assert_same_rk4(onset(j), xs, 1.0, 0.0)[0] is not None


@pytest.mark.parametrize("phi0, dphi0", [(1.0, 0.0), (0.0, 1.0),
                                         (math.nan, 0.0)])
def test_rk4_scan_steps_blocks_whose_products_overflow(phi0, dphi0):
    # U = 1e300 at h U^(1/2) = 9: M_n[1, 0] is 1e150 times M_n[1, 1], so
    # the products of the first block overflow at step 59 while a state
    # from (0, 1) stays finite to step 116; an inf times its zero first
    # component must not stop it there
    xs = np.linspace(0.0, 9e-147, 1001)
    bracket, partial = _assert_same_rk4(lambda x: np.full_like(x, 1e300), xs,
                                        phi0, dphi0)
    assert bracket is not None
    steps = 0 if partial is None else len(partial.xs) - 1
    assert steps == {1.0: 59, 0.0: 116}.get(phi0, 0)


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


def test_vdp_refuses_rk4():
    # the direct integration is adaptive only; rk4 is refused, not ignored
    bundle = _manual_bundle(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="'rk4'"):
        integrate_vdp(bundle, Grid(0.0, 1.0, 11), 1.0, 0.0,
                      IntegratorConfig(method="rk4"))


def test_vdp_refuses_rk4_before_compiling(monkeypatch):
    # the refusal comes before any work: the blow-up problem raises
    # ValueError, not StepUnderflowError, and nothing is compiled
    calls = count_compiles(monkeypatch)
    bundle, grid, psi0, dpsi0 = _VDP_PROBLEMS["blow-up"]()
    with pytest.raises(ValueError, match="adaptive only"):
        integrate_vdp(bundle, grid, psi0, dpsi0,
                      IntegratorConfig(method="rk4"))
    assert calls[0] == 0


def test_vdp_blow_up_reports_bracket():
    # a positive quartic term with growing psi blows up in finite time; the
    # partial trajectory is the grid prefix the steps reached, sampled from
    # its own dense output
    bundle = _manual_bundle(0.0, 1.0, -1.0, g="3")
    grid = Grid(0.0, 10.0, 101)
    with pytest.raises(StepUnderflowError) as err:
        integrate_vdp(bundle, grid, 1.0, 1.0)
    lo, hi = err.value.bracket
    assert 0.0 < lo < hi <= 10.0
    part = err.value.partial
    assert part is not None
    n = len(part.xs)
    assert 2 <= n < grid.n and np.array_equal(part.xs, grid.xs[:n])
    assert lo == part.xs[-1] and part.segments == [(0, n)]
    assert np.all(np.isfinite(part.values))
    assert np.array_equal(part.dense(part.xs),
                          np.array([part.values, part.derivatives]))


# ---------------------------------------------------------------------------
# the adaptive integrator against scipy's RK45

def _general_p_runs(seed):
    def runs():
        bundle, a, b = build_instance(np.random.default_rng(seed))
        round_trip_metrics(bundle, a, b)
    return runs


def _blow_up_runs(psi0):
    # a too-small step ends the run, after some steps or at x0, where the
    # quartic term overflows
    def runs():
        with pytest.raises(StepUnderflowError):
            integrate_vdp(_manual_bundle(0.0, 1.0, -1.0, g="3"),
                          Grid(0.0, 10.0, 101), psi0, 1.0)
    return runs


_ADAPTIVE_FIXTURES = {
    "cosh": test_linear_cosh_oracle,
    "sin": test_linear_sine_zero_at_pi,
    "1 + x": lambda: integrate_linear(Const(0.0), Grid(0.0, 3.0, 61), 1.0,
                                      1.0),
    "1": lambda: integrate_linear(Const(0.0), Grid(0.0, 3.0, 61), 1.0, 0.0),
    # a front in U rejects steps and then accepts a much shorter one
    "front": lambda: integrate_linear(
        parse("-1 + 50/(1 + exp(-400*(x - 1)))"), Grid(0.0, 2.0, 41), 1.0,
        0.0, IntegratorConfig(rtol=1e-6, atol=1e-12)),
    "round trip": test_vdp_round_trip_from_construction,
    "general P 1": _general_p_runs(20260808),
    "general P 2": _general_p_runs(98),
    "blow-up": _blow_up_runs(1.0),
    "overflow": _blow_up_runs(1e80),
}


def _counted(fn):
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)
    return counting, calls


def _counted_states(rhs):
    """rhs with its state-part calls counted."""
    state_part, calls = _counted(rhs.state_part)
    return OdeRhs(rhs.x_part, state_part), calls


@pytest.mark.parametrize("name", list(_ADAPTIVE_FIXTURES))
def test_adaptive_steps_as_scipy_rk45(monkeypatch, name):
    # scipy's RK45 stays the reference: as many state-part calls as it
    # makes rhs calls, the same grid points reached, and the same samples
    # up to the rounding of its dot products
    from scipy.integrate import solve_ivp

    runs = []
    integrate = odesolve._integrate

    def spy(rhs, grid, y0, cfg):
        runs.append((rhs, grid, y0, cfg))
        return integrate(rhs, grid, y0, cfg)

    monkeypatch.setattr(odesolve, "_integrate", spy)
    _ADAPTIVE_FIXTURES[name]()
    assert runs
    for rhs, grid, y0, cfg in runs:
        ours, our_calls = _counted_states(rhs)
        try:
            t = integrate(ours, grid, y0, cfg)
        except StepUnderflowError as err:
            t = err.partial
        theirs, their_calls = _counted(rhs)
        with np.errstate(all="ignore"):
            sol = solve_ivp(theirs, (grid.x0, grid.x1),
                            np.asarray(y0, float), method="RK45",
                            rtol=cfg.rtol, atol=cfg.atol, t_eval=grid.xs)
        assert our_calls == their_calls
        if len(sol.t) < 2:
            assert t is None
            continue
        assert np.array_equal(t.xs, sol.t)
        got = np.array([t.values, t.derivatives])
        scale = np.max(np.abs(sol.y), axis=1, keepdims=True)
        assert np.all(np.abs(got - sol.y) <= 1e-11 * scale)


def test_adaptive_step_end_belongs_to_the_step_that_ends_there():
    # two steps with zero stages, the second starting from a state the
    # first does not reach
    dense = odesolve._dense_output([0.0, 1.0, 2.0], [0.0, 0.0, 5.0, 5.0],
                                   [0.0] * 28)
    assert dense(1.0).tolist() == [0.0, 0.0]
    assert dense(np.array([0.0, 0.5, 1.0, 1.5, 2.0])).tolist() == [
        [0.0, 0.0, 0.0, 5.0, 5.0]] * 2


def test_adaptive_rhs_error_leaves_no_partial():
    # sqrt(1 - x) is out of its domain at the first stage past x = 1
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(parse("sqrt(1 - x)"), Grid(0.0, 2.0, 41), 1.0, 0.0)
    assert 1.0 < err.value.bracket[0] < err.value.bracket[1] == 2.0
    assert err.value.partial is None


def test_adaptive_nan_step_size_ends_the_run():
    # psi^2 overflows and mu = 0 times it is nan, so the first step size is
    # nan: the run stops at x0 instead of retrying a nan step for ever
    with pytest.raises(StepUnderflowError) as err:
        integrate_vdp(_manual_bundle(0.0, 1.0, -1.0, g="3"),
                      Grid(0.0, 10.0, 101), 1e160, 1.0)
    assert err.value.bracket == (0.0, 10.0)
    assert err.value.partial is None


def test_adaptive_rtol_is_floored_at_a_hundred_ulps():
    grid = Grid(0.0, 2.0, 21)
    floor = IntegratorConfig(rtol=100 * np.finfo(float).eps, atol=1e-14)
    below = IntegratorConfig(rtol=1e-17, atol=1e-14)
    a = integrate_linear(Const(1.0), grid, 1.0, 0.0, floor)
    b = integrate_linear(Const(1.0), grid, 1.0, 0.0, below)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.derivatives, b.derivatives)


@pytest.mark.parametrize("method", ["adaptive", "rk4"])
def test_non_finite_initial_state_fails_the_first_step(method):
    cfg = IntegratorConfig(method=method)
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(Const(1.0), Grid(0.0, 2.0, 21), math.nan, 0.0, cfg)
    assert err.value.bracket == (0.0, 2.0)
    assert err.value.partial is None


# ---------------------------------------------------------------------------
# the compiled right-hand sides

def _reference_vdp_rhs(bundle):
    """The direct integration's rhs as four separately compiled coefficient
    functions and a closure: the reference for the fused compiled rhs."""
    p = bundle.params
    vfn, hfn, gfn, ffn = (float_fn(simplify(c))
                          for c in (bundle.v, bundle.h, bundle.g, bundle.f))
    mu, beta, alpha = p.mu, p.beta, p.alpha

    def rhs(x, y):
        psi, dpsi = y
        p2 = psi * psi
        dd = (mu * (beta - p2) * dpsi - alpha * psi + vfn(x) * p2
              + hfn(x) * (p2 * psi) + gfn(x) * (p2 * p2) + ffn(x))
        return (dpsi, dd)
    return rhs


def _reference_linear_rhs(U):
    ufn = float_fn(simplify(U))
    return lambda x, y: (y[1], ufn(x) * y[0])


def _as_pair(rhs):
    """A right-hand side f(x, y) as an OdeRhs: an x part that passes each
    abscissa on alone and a state part that calls f."""
    return OdeRhs(lambda xs: [(x,) for x in xs], lambda y, v: rhs(v[0], y))


def _outcome(run):
    """(None, trajectory), or (bracket, partial trajectory) of a stall, the
    bracket's ends as float.hex, so that a nan end equals itself."""
    try:
        return None, run()
    except StepUnderflowError as err:
        return tuple(map(float.hex, err.bracket)), err.partial


def _assert_bit_identical(got, want):
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert np.array_equal(got[1].xs, want[1].xs)
        assert np.array_equal(got[1].values, want[1].values)
        assert np.array_equal(got[1].derivatives, want[1].derivatives)


def _assert_same_steps(rhs, want_rhs, grid, y0, cfg):
    """The adaptive loop takes the same steps through both pairs: the same
    step ends, starts and stages to the bit, or the same stall."""
    def steps(r):
        ts, starts, stages, finished = odesolve._dopri45(
            r, grid.x0, grid.x1, y0, cfg.rtol, cfg.atol)
        return ts.tobytes(), starts.tobytes(), stages.tobytes(), finished

    assert _outcome(lambda: steps(rhs)) == _outcome(lambda: steps(want_rhs))


def _general_p_problem(seed):
    # the round trip's initial data on the whole regular window
    bundle, a, b = build_instance(np.random.default_rng(seed))
    grid = Grid(a, b, 301)
    psi = cole_hopf_map(bundle.P, integrate_linear(bundle.U, grid, 1.0, 0.3,
                                                   TIGHT), U=bundle.U)
    j0 = psi.segments[0][0]
    return (bundle, Grid(float(psi.xs[j0]), b, 301), float(psi.values[j0]),
            float(psi.derivatives[j0]))


_VDP_PROBLEMS = {
    "general P 1": lambda: _general_p_problem(20260808),
    "general P 2": lambda: _general_p_problem(98),
    "harmonic": lambda: (_manual_bundle(0.0, 1.0, 1.0),
                         Grid(0.0, 2 * math.pi, 101), 1.0, 0.0),
    "all terms": lambda: (
        _manual_bundle(0.7, 1.1, 0.2, v="sin(x)", h="0.5/(1+x^2)",
                       g="-0.1*exp(-x)", f="cos(2*x)"),
        Grid(0.0, 3.0, 201), 0.4, -0.2),
    "blow-up": lambda: (_manual_bundle(0.0, 1.0, -1.0, g="3"),
                        Grid(0.0, 10.0, 101), 1.0, 1.0),
}


def _compiled_pair(monkeypatch, run):
    """The pair run hands the adaptive loop, and run's outcome."""
    pairs = []
    integrate = odesolve._integrate

    def spy(rhs, grid, y0, cfg):
        pairs.append(rhs)
        return integrate(rhs, grid, y0, cfg)

    monkeypatch.setattr(odesolve, "_integrate", spy)
    outcome = _outcome(run)
    (pair,) = pairs
    return pair, outcome


@pytest.mark.parametrize("name", list(_VDP_PROBLEMS))
def test_vdp_compiled_rhs_is_bit_identical_to_four_coefficients(monkeypatch,
                                                                name):
    bundle, grid, psi0, dpsi0 = _VDP_PROBLEMS[name]()
    pair, got = _compiled_pair(monkeypatch, lambda: integrate_vdp(
        bundle, grid, psi0, dpsi0, TIGHT))
    reference = _as_pair(_reference_vdp_rhs(bundle))
    want = _outcome(lambda: odesolve._integrate(reference, grid,
                                                (psi0, dpsi0), TIGHT))
    _assert_bit_identical(got, want)
    _assert_same_steps(pair, reference, grid, (psi0, dpsi0), TIGHT)
    if name == "blow-up":
        assert want[0] is not None and want[1] is not None


def test_linear_compiled_rhs_is_bit_identical_to_the_potential(monkeypatch):
    bundle, a, b = build_instance(np.random.default_rng(98))
    grid = Grid(a, b, 301)
    pair, got = _compiled_pair(monkeypatch, lambda: integrate_linear(
        bundle.U, grid, 1.0, 0.3, TIGHT))
    reference = _as_pair(_reference_linear_rhs(bundle.U))
    want = _outcome(lambda: odesolve._integrate(reference, grid, (1.0, 0.3),
                                                TIGHT))
    assert want[0] is None
    _assert_bit_identical(got, want)
    _assert_same_steps(pair, reference, grid, (1.0, 0.3), TIGHT)


def test_a_second_run_compiles_nothing(monkeypatch):
    calls = count_compiles(monkeypatch)
    bundle = _manual_bundle(0.3, 1.2, 0.1, v="sin(x)", h="x/7", g="-0.01",
                            f="exp(-x)/9")
    grid = Grid(0.0, 2.0, 41)
    first = integrate_vdp(bundle, grid, 0.5, 0.1)
    assert calls[0] == 1  # v, h, g, f and the state in one function
    second = integrate_vdp(bundle, grid, 0.5, 0.1)
    assert calls[0] == 1
    assert np.array_equal(first.values, second.values)
    U = parse("-1 + x/11")
    integrate_linear(U, grid, 1.0, 0.0)
    integrate_linear(U, grid, 1.0, 0.0)
    assert calls[0] == 2
    # a substituted U that the caller holds compiles once; another
    # substitution is another U and compiles again
    P = parse("q*x")
    bound = subst(P, {"q": 0.5})
    integrate_linear(bound, grid, 1.0, 0.0)
    integrate_linear(bound, grid, 1.0, 0.0)
    assert calls[0] == 3
    integrate_linear(subst(P, {"q": -0.5}), grid, 1.0, 0.0)
    assert calls[0] == 4


@pytest.mark.parametrize("method", ["adaptive", "rk4"])
def test_a_state_argument_never_takes_a_free_parameter(method):
    # a coefficient's parameter named like the state is still unbound
    cfg = IntegratorConfig(method=method)
    grid = Grid(0.0, 1.0, 21)
    with pytest.raises(UnboundParameterError) as err:
        integrate_linear(parse("phi + dphi*x"), grid, 1.0, 0.0, cfg)
    assert err.value.name == "dphi"
    if method == "rk4":
        return  # the direct integration is adaptive only
    for coeff in ("v", "h", "g", "f"):
        for name in ("psi", "dpsi"):
            bundle = _manual_bundle(0.5, 1.0, 0.2, **{coeff: f"{name}*x"})
            with pytest.raises(UnboundParameterError) as err:
                integrate_vdp(bundle, grid, 0.5, 0.1, cfg)
            assert err.value.name == name
    # substituted first, such a parameter is a number like any other
    bundle = _manual_bundle(0.5, 1.0, 0.2, h="psi*x")
    substituted = TransformBundle(
        P=bundle.P, U=bundle.U, g=bundle.g, v=bundle.v, f=bundle.f,
        h=subst(bundle.h, {"psi": 0.25}), params=bundle.params)
    literal = _manual_bundle(0.5, 1.0, 0.2, h="0.25*x")
    a = integrate_vdp(substituted, grid, 0.5, 0.1, cfg)
    b = integrate_vdp(literal, grid, 0.5, 0.1, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.derivatives, b.derivatives)


def test_adaptive_step_budget_bounds_memory(monkeypatch):
    # a stiff direct integration creeps on at steps just above the smallest
    # for as long as it is let; the budget ends it with the grid prefix it
    # reached.  Lowered here to keep the test short; the cap on state-part
    # calls makes a run that ignores the budget fail in seconds instead of
    # running on.
    budget = 4000
    monkeypatch.setattr(odesolve, "_MAX_STEPS", budget)
    integrate = odesolve._integrate
    calls = [0]

    def capped(rhs, grid, y0, cfg):
        def counting(y, v):
            calls[0] += 1
            if calls[0] > 30 * budget:  # about 6 a step are made
                raise RuntimeError("the step budget was not enforced")
            return rhs.state_part(y, v)
        return integrate(OdeRhs(rhs.x_part, counting), grid, y0, cfg)

    monkeypatch.setattr(odesolve, "_integrate", capped)
    bundle = _manual_bundle(0.386, -0.435, -0.406, v="-2.61", h="2.82")
    grid = Grid(0.0, 10.0, 101)
    tracemalloc.start()
    try:
        with pytest.raises(StepUnderflowError) as err:
            integrate_vdp(bundle, grid, 1.14, 1.11, IntegratorConfig(rtol=1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # about 1.4 MB
    part = err.value.partial
    n = len(part.xs)
    assert 2 <= n < grid.n and np.array_equal(part.xs, grid.xs[:n])
    assert err.value.bracket == (float(part.xs[-1]), 10.0)
    assert np.all(np.isfinite(part.values))
    assert np.all(np.isfinite(part.derivatives))


def test_a_singular_stage_abscissa_inside_a_step_is_the_bracket():
    # 1/sqrt(1 - x) raises past x = 1.  The step that crosses it has its
    # stage 2 and 3 abscissae below 1 and stages 4 to 7 above, so the stall
    # is charged to stage 4's abscissa t + 4/5 h, inside the step; the
    # bracket is the one the loop that evaluated the whole rhs stage by
    # stage reported
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(parse("1/sqrt(1 - x)"), Grid(0.0, 2.0, 41), 1.0,
                         0.0)
    assert err.value.bracket == (1.0000000000022304, 2.0)
    assert err.value.partial is None


def _reference_dopri45(rhs, x0, x1, y0, rtol, atol, max_steps):
    """The adaptive loop as it was: every stage calls the whole rhs f(x, y)
    through a wrapper that turns its domain errors into stalls."""
    def guarded(x, y):
        try:
            return rhs(x, y)
        except (ArithmeticError, ValueError):
            raise StepUnderflowError((float(x), x1), None) from None

    o = odesolve
    rms = o._rms
    t, x1 = float(x0), float(x1)
    ya, yb = float(y0[0]), float(y0[1])
    ts, starts, stages = array("d", [t]), array("d"), array("d")
    if not (math.isfinite(ya) and math.isfinite(yb)):
        return ts, starts, stages, False
    rtol = max(rtol, o._RTOL_FLOOR)
    fa, fb = guarded(t, (ya, yb))
    length = x1 - t
    sa, sb = atol + abs(ya) * rtol, atol + abs(yb) * rtol
    d0 = rms(ya / sa, yb / sb)
    d1 = rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    ga, gb = guarded(t + h0, (ya + h0 * fa, yb + h0 * fb))
    d2 = rms((ga - fa) / sa, (gb - fb) / sb) / h0 if h0 > 0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** 0.2 if d > 0 else math.inf
    h_abs = min(100 * h0, h1, length)
    while t < x1:
        if len(ts) > max_steps:
            return ts, starts, stages, False
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return ts, starts, stages, False
            t_new = min(t + h_abs, x1)
            h = h_abs = t_new - t
            k2a, k2b = guarded(t + o._C2 * h, (ya + o._A21 * fa * h,
                                               yb + o._A21 * fb * h))
            k3a, k3b = guarded(t + o._C3 * h, (
                ya + (o._A31 * fa + o._A32 * k2a) * h,
                yb + (o._A31 * fb + o._A32 * k2b) * h))
            k4a, k4b = guarded(t + o._C4 * h, (
                ya + (o._A41 * fa + o._A42 * k2a + o._A43 * k3a) * h,
                yb + (o._A41 * fb + o._A42 * k2b + o._A43 * k3b) * h))
            k5a, k5b = guarded(t + o._C5 * h, (
                ya + (o._A51 * fa + o._A52 * k2a + o._A53 * k3a
                      + o._A54 * k4a) * h,
                yb + (o._A51 * fb + o._A52 * k2b + o._A53 * k3b
                      + o._A54 * k4b) * h))
            k6a, k6b = guarded(t + h, (
                ya + (o._A61 * fa + o._A62 * k2a + o._A63 * k3a
                      + o._A64 * k4a + o._A65 * k5a) * h,
                yb + (o._A61 * fb + o._A62 * k2b + o._A63 * k3b
                      + o._A64 * k4b + o._A65 * k5b) * h))
            na = ya + h * (o._B1 * fa + o._B3 * k3a + o._B4 * k4a
                           + o._B5 * k5a + o._B6 * k6a)
            nb = yb + h * (o._B1 * fb + o._B3 * k3b + o._B4 * k4b
                           + o._B5 * k5b + o._B6 * k6b)
            k7a, k7b = guarded(t + h, (na, nb))
            ea = (o._E1 * fa + o._E3 * k3a + o._E4 * k4a + o._E5 * k5a
                  + o._E6 * k6a + o._E7 * k7a) * h
            eb = (o._E1 * fb + o._E3 * k3b + o._E4 * k4b + o._E5 * k5b
                  + o._E6 * k6b + o._E7 * k7b) * h
            err = rms(ea / (atol + max(abs(ya), abs(na)) * rtol),
                      eb / (atol + max(abs(yb), abs(nb)) * rtol))
            if err < 1:
                factor = o._MAX_FACTOR if err == 0 else min(
                    o._MAX_FACTOR, o._SAFETY * err ** o._EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(o._MIN_FACTOR, o._SAFETY * err ** o._EXPONENT)
            rejected = True
        starts.extend((ya, yb))
        stages.extend((fa, fb, k2a, k2b, k3a, k3b, k4a, k4b, k5a, k5b, k6a,
                       k6b, k7a, k7b))
        ts.append(t_new)
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
    return ts, starts, stages, True


@st.composite
def _drawn_rates(draw):
    """u'' = rate(x, u, u') as the integrators build it: x-only DAGs of
    every kind, the coefficients, joined with u, u', x and the constants,
    at times inf or nan, by sums, differences, products and negations
    only, so that the state part cannot raise.  The first coefficient
    times u is added, so that the rate reads the state."""
    coeffs = draw(st.lists(_raw_trees(max_ops=8), min_size=1, max_size=3))
    odd = draw(st.sampled_from([(), (), (), ((Const, math.inf),),
                                ((Const, math.nan),)]))
    tree = draw(_raw_trees(max_ops=8, params=("u", "du"),
                           kinds=("neg", "add", "sub", "mul"),
                           extra=(*coeffs, *odd)))
    return build((Add, tree, (Mul, coeffs[0], (Param, "u"))))


_INF_NAN = Const(math.inf) * exp(-X) * Param("u") + Const(math.nan) * X


@settings(max_examples=200, deadline=None)
@given(_drawn_rates(), st.sampled_from([(-2.5, 1.0), (0.0, 2.0), (0.3, 8.0)]),
       st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
# every function the scalar code calls, _pow by a real and by a variable
# exponent among them
@example(parse("u*(exp(x) + log(x + 3) + sin(x) + cos(x) + tan(x) + sinh(x)"
               " + cosh(x) + sqrt(x + 3) + (x + 3)^1.5 + (x + 3)^x) + du"),
         (-2.5, 1.0), (1.0, 0.5))
@example(_INF_NAN, (0.0, 2.0), (1.0, 0.5))  # inf and nan bound as names
@example(parse("x^2*u - x^-3*du + (x + 3)^0.5*u*u"), (0.3, 8.0), (1.0, 0.5))
@example(parse("-1.5*u"), (0.0, 2.0), (1.0, 0.0))  # no x part
@example(parse("x*u + x*x*du"), (0.0, 2.0), (1.0, 0.5))  # x read directly
@example(parse("u/sqrt(1 - x)"), (0.0, 2.0), (1.0, 0.0))  # raises at x > 1
# a nan rate at x0 makes the first step nan, and the probe at x0 + nan
# stalls at x = nan
@example(Const(-math.inf) + Const(math.inf) + X ** Const(0.5) * Param("u"),
         (0.0, 2.0), (0.0, 1.0))
def test_drawn_rates_take_the_reference_loops_steps_bit_for_bit(rate, span,
                                                                y0):
    # the pair of lambdify_ode, called as f(x, y) and driven by the loop,
    # against the token walk's code driven by the loop that called it
    # whole at every stage: the same values or errors, and the same step
    # ends, starts and stages to the bit, or the same stall
    pair = lambdify_ode(rate, "u", "du")
    ref = ref_scalar_code(_postorder(rate), ("u", "du"), (Param("du"), rate))
    for x in _XS.tolist():
        for y in (y0, (0.0, -0.0), (1e300, -1e300)):
            _same_outcome(pair, ref, x, y)
    budget = 60

    def steps(run):
        ts, starts, stages, finished = run()
        return ts.tobytes(), starts.tobytes(), stages.tobytes(), finished

    with patch.object(odesolve, "_MAX_STEPS", budget):
        got = _outcome(lambda: steps(lambda: odesolve._dopri45(
            pair, *span, y0, 1e-6, 1e-9)))
    want = _outcome(lambda: steps(lambda: _reference_dopri45(
        ref, *span, y0, 1e-6, 1e-9, budget)))
    assert got == want


# ---------------------------------------------------------------------------
# the map and poles

def test_map_takes_p_prime_from_the_jet_memo(monkeypatch):
    # the chain keeps P's jet in wcalc's weak memo, so mapping phi derives
    # nothing again
    bundle = solve_chain(parse("x/(3+x^2)"), VdpParams(0.8, 1.2, 0.1))
    phi = integrate_linear(bundle.U, Grid(0.0, 2.0, 41), 1.0, 0.2,
                           IntegratorConfig(method="rk4"))
    want = cole_hopf_map(bundle.P, phi, U=bundle.U)

    derived = record_derivations(monkeypatch)
    got = cole_hopf_map(bundle.P, phi, U=bundle.U)
    assert derived == []
    assert np.array_equal(got.derivatives, want.derivatives, equal_nan=True)


def test_map_exponential_is_constant():
    grid = Grid(0.0, 2.0, 41)
    phi = Trajectory.from_expr(parse("exp(x)"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(1.0))
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


_CASE3 = case3(VdpParams(1.0, 1.0, 0.0), 0.5)


@pytest.mark.parametrize("P, phi, U, grid, want", [
    (Const(0.0), parse("x"), Const(0.0), Grid(-1.0, 1.0, 81),
     [("0x0.0p+0", "0x0.0p+0")]),
    (Const(0.0), parse("sin(x)"), Const(-1.0), Grid(0.5, 20.0, 3901),
     [("0x1.921fb54428f5cp+1", "0x1.921fb54451eb8p+1"),
      ("0x1.921fb5443d70ap+2", "0x1.921fb54451eb8p+2"),
      ("0x1.2d97c7f328f5dp+3", "0x1.2d97c7f333334p+3"),
      ("0x1.921fb5443d70ap+3", "0x1.921fb54447ae1p+3"),
      ("0x1.f6a7a29551eb7p+3", "0x1.f6a7a2955c28ep+3"),
      ("0x1.2d97c7f32e148p+4", "0x1.2d97c7f333334p+4")]),
    (_CASE3.bundle.P, subst(_CASE3.phi, {"C3": -2.0, "C4": 1.0}),
     _CASE3.bundle.U, Grid(-4.0, 9.0, 501),
     [("0x1.ae82c6c71a9f9p-1", "0x1.ae82c6c7ef9d8p-1")]),
], ids=["x", "sin", "case3"])
def test_closed_form_pole_brackets_keep_their_bits(P, phi, U, grid, want):
    # a closed-form phi is bisected at each sign change; every bracket
    # end is pinned to the bit
    psi = cole_hopf_map(P, Trajectory.from_expr(phi, grid), U=U)
    assert [(a.hex(), b.hex()) for a, b in psi.pole_brackets] == want


def test_closed_form_bisection_stops_where_phi_is_not_finite():
    # phi = x except on |x| < 0.01, where it is nan; the first midpoint, 0,
    # is nan, so the bracket stays the grid interval, which holds the zero
    grid = Grid(-1.0, 1.0, 80)
    phi = parse("x*sqrt(x^2 - 1e-4)/sqrt(x^2 - 1e-4)")
    psi = cole_hopf_map(Const(0.0), Trajectory.from_expr(phi, grid),
                        U=Const(0.0))
    assert psi.pole_brackets == [(float(grid.xs[39]), float(grid.xs[40]))]
    a, b = psi.pole_brackets[0]
    assert a < 0.0 < b


def test_closed_form_bisection_keeps_the_last_finite_bracket():
    # phi = x - 0.005 except on |x - 0.005| < 0.001, where it is nan; with
    # c = xs[40] the midpoints 0, c/2 and c/4 are finite and the fourth,
    # 3c/8, is nan, so the bracket is (c/4, c/2), which holds the zero
    grid = Grid(-1.0, 1.0, 80)
    phi = parse("(x - 0.005)*sqrt((x - 0.005)^2 - 1e-6)"
                "/sqrt((x - 0.005)^2 - 1e-6)")
    psi = cole_hopf_map(Const(0.0), Trajectory.from_expr(phi, grid),
                        U=Const(0.0))
    c = float(grid.xs[40])
    assert psi.pole_brackets == [(c / 4, c / 2)]
    a, b = psi.pole_brackets[0]
    assert a < 0.005 < b


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


def test_map_derivatives_come_from_the_potential():
    # psi' = P' + U - (phi'/phi)^2 holds at every sample, ends included
    grid = Grid(0.0, 2.0, 401)
    phi = Trajectory.from_expr(parse("exp(x) + exp(-x)"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(1.0))
    want = 1.0 / np.cosh(psi.xs) ** 2  # d/dx tanh
    assert np.max(np.abs(psi.derivatives - want)) <= 1e-12
    # the potential is read, not guessed: another U shifts psi' by the gap
    off = cole_hopf_map(Const(0.0), phi, U=Const(1.5))
    assert np.array_equal(off.values, psi.values)
    assert np.allclose(off.derivatives - psi.derivatives, 0.5, atol=1e-15)
    with pytest.raises(TypeError):
        cole_hopf_map(Const(0.0), phi)


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


def _both_routes(text, grid, segments):
    """The closed-form trajectory of text on grid and its sampled twin, no
    expr attached, both cut into the given segments."""
    closed = replace(Trajectory.from_expr(parse(text), grid),
                     segments=segments)
    return closed, replace(closed, expr=None)


def test_a_four_point_segment_is_skipped_on_both_routes():
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    grid = Grid(1.0, 2.0, 41)
    for traj in _both_routes("1/x", grid, [(0, 4), (4, 41)]):
        rep = residual(bundle, traj)
        assert rep.skipped_segments == 1
        (seg,) = rep.segments
        assert seg.x_start >= grid.xs[4]


def test_a_five_point_segment_is_measured_where_psi_pp_is_known():
    # the stencil leaves psi'' nan on two points at each segment end, so
    # only the middle point is measured; a closed form measures all five
    bundle = solve_chain(Const(0.0), VdpParams(1.0, 2.0, 0.0))
    grid = Grid(1.0, 1.1, 5)
    closed, sampled = _both_routes("1/x", grid, [(0, 5)])
    (seg,) = residual(bundle, closed).segments
    assert (seg.n_points, seg.x_start, seg.x_end) == (5, 1.0, 1.1)
    (seg,) = residual(bundle, sampled).segments
    assert (seg.n_points, seg.x_start, seg.x_end) == (1, grid.xs[2],
                                                      grid.xs[2])


def test_a_closed_form_residual_reads_its_samples():
    # psi and psi' are the trajectory's samples on both routes; only psi''
    # comes from the closed form, so shifting the samples moves R
    bundle = _manual_bundle(1.3, 0.7, 0.4, v="0.5*sin(x)", h="0.3 + 0.1*x",
                            g="-1.3 + 0.2*cos(x)", f="0.2*x^2 - 1")
    grid = Grid(1.0, 5.0, 401)
    xs = grid.xs
    traj = Trajectory.from_expr(parse("1/x"), grid)
    shifted = replace(traj, values=traj.values + 0.01)
    want = _vdp_reference(bundle, xs, 1 / xs + 0.01, -1 / xs ** 2,
                          2 / xs ** 3)
    rep = residual(bundle, shifted)
    assert rep.max_abs == pytest.approx(np.max(np.abs(want)), rel=1e-9)
    assert abs(rep.max_abs - residual(bundle, traj).max_abs) > 1e-3


@pytest.mark.parametrize("route", ["closed", "sampled"])
def test_residual_is_the_lienard_residual_of_its_coefficients(route):
    bundle = _manual_bundle(1.3, 0.7, 0.4, v="0.5*sin(x)", h="0.3 + 0.1*x",
                            g="-1.3 + 0.2*cos(x)", f="0.2*x^2 - 1")
    closed, sampled = _both_routes("x/(2+x^2) + 0.1*sin(x)",
                                   Grid(0.0, 3.0, 601), [(0, 300), (300, 601)])
    traj = closed if route == "closed" else sampled
    c, b = bundle.params.lienard(bundle.v, bundle.h, bundle.g, bundle.f)
    rep = residual(bundle, traj)
    assert rep == lienard_residual(c, b, traj)
    assert len(rep.segments) == 2 and rep.max_abs > 0.1


def _vdp_reference(bundle, xs, psi, dpsi, ddpsi):
    """R of the Van der Pol equation term by term, in plain numpy."""
    p = bundle.params
    v, h, g, f = (lambdify(simplify(e))(xs)
                  for e in (bundle.v, bundle.h, bundle.g, bundle.f))
    return (ddpsi - p.mu * (p.beta - psi ** 2) * dpsi + p.alpha * psi
            - v * psi ** 2 - h * psi ** 3 - g * psi ** 4 - f)


def test_residual_maps_every_vdp_term():
    # mu, beta, alpha nonzero and v, h, g, f depending on x: a wrong sign
    # or slot in the (c, b) mapping moves R far beyond rounding
    bundle = _manual_bundle(1.3, 0.7, 0.4, v="0.5*sin(x)", h="0.3 + 0.1*x",
                            g="-1.3 + 0.2*cos(x)", f="0.2*x^2 - 1")
    grid = Grid(0.0, 3.0, 601)
    xs = grid.xs
    psi = xs / (2 + xs ** 2) + 0.1 * np.sin(xs)
    dpsi = (2 - xs ** 2) / (2 + xs ** 2) ** 2 + 0.1 * np.cos(xs)
    ddpsi = (2 * xs ** 3 - 12 * xs) / (2 + xs ** 2) ** 3 - 0.1 * np.sin(xs)

    closed = Trajectory.from_expr(parse("x/(2+x^2) + 0.1*sin(x)"), grid)
    want = _vdp_reference(bundle, xs, psi, dpsi, ddpsi)
    (seg,) = residual(bundle, closed).segments
    assert seg.n_points == len(xs)
    assert seg.max_abs == pytest.approx(np.max(np.abs(want)), rel=1e-9)
    assert seg.l2 == pytest.approx(
        np.sqrt(np.trapezoid(want ** 2, xs)), rel=1e-9)
    assert seg.max_abs > 0.1

    # sampled, in two segments: five-point stencils, whose psi'' is nan on
    # two points at each segment end
    segments = [(0, 300), (300, len(xs))]
    sampled = Trajectory(xs=xs, values=psi, derivatives=dpsi,
                         segments=segments)
    rep = residual(bundle, sampled)
    assert len(rep.segments) == 2
    step = grid.spacing
    for (i0, i1), seg in zip(segments, rep.segments):
        y = psi[i0:i1]
        fd = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1]
              - y[4:]) / (12 * step * step)
        inner = slice(i0 + 2, i1 - 2)
        want = _vdp_reference(bundle, xs[inner], psi[inner], dpsi[inner], fd)
        assert (seg.x_start, seg.x_end) == (xs[i0 + 2], xs[i1 - 3])
        assert seg.max_abs == pytest.approx(np.max(np.abs(want)), rel=1e-9)
        assert seg.l2 == pytest.approx(
            np.sqrt(np.trapezoid(want ** 2, xs[inner])), rel=1e-9)
        assert seg.max_abs > 0.1


def test_residual_names_a_forcing_finite_nowhere():
    # f is the restoring coefficient b0; no point is left to measure on
    bundle = _manual_bundle(1.0, 2.0, 0.0, f="sqrt(-1 - x^2)")
    grid = Grid(1.0, 5.0, 401)
    xs = grid.xs
    for traj in (Trajectory.from_expr(parse("1/x"), grid),
                 Trajectory(xs=xs, values=1 / xs, derivatives=-1 / xs ** 2,
                            segments=[(0, len(xs))])):
        with pytest.raises(NonFiniteCoefficientError,
                           match="coefficient b0 is not finite anywhere"):
            residual(bundle, traj)


def test_grid_refuses_a_spacing_the_stencils_underflow():
    # 12*h^2 underflows to 0 at this spacing: the stencils would divide by
    # zero and leave no finite R to measure
    with pytest.raises(ValueError, match=r"^grid spacing 2e-303 is too fine "
                       r"for the residual stencils: 12\*h\^2 underflows$"):
        Grid(0.0, 1e-300, 501)
    grid = Grid(0.0, 1e-150, 501)
    assert 12 * grid.spacing ** 2 > 0.0
    bundle = solve_chain(parse("x"), VdpParams(1.0, 1.0, 0.0))
    rep = residual(bundle, Trajectory.from_expr(parse("x"), grid))
    assert rep.segments[0].n_points == 501


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


def test_compare_needs_one_grid_and_takes_a_prefix():
    a = Trajectory.from_expr(parse("sin(x)"), Grid(0.0, 2.0, 101))
    for grid in (Grid(0.0, 2.0, 157), Grid(0.5, 2.5, 101)):
        b = Trajectory.from_expr(parse("sin(x)"), grid)
        with pytest.raises(ValueError, match="need one grid"):
            compare(a, b)
        with pytest.raises(ValueError, match="need one grid"):
            compare(b, a)
    # a partial trajectory is the grid prefix its steps reached, so the
    # two are compared over that prefix, either way round
    c = Trajectory.from_expr(parse("sin(x) + 0.001*x"), Grid(0.0, 2.0, 101))
    partial = Trajectory(xs=c.xs[:40], values=c.values[:40],
                         derivatives=c.derivatives[:40], segments=[(0, 40)])
    for m in (compare(a, partial), compare(partial, a)):
        assert m.n_points == 40
        assert m.linf == pytest.approx(0.001 * c.xs[39], rel=1e-9)


def test_compare_disjoint_raises():
    # samples on complementary halves: no point where both have one
    x = Trajectory.from_expr(parse("x"), Grid(0.0, 1.0, 11))
    a, b = _with_segments(x, [(0, 5)]), _with_segments(x, [(5, 11)])
    with pytest.raises(DisjointSegmentsError):
        compare(a, b)


# ---------------------------------------------------------------------------
# every producer writes NaN exactly outside its segments, which is all that
# cole_hopf_map and compare read of them

def _assert_nan_exactly_outside_segments(traj):
    inside = np.zeros(len(traj.xs), dtype=bool)
    for i0, i1 in traj.segments:
        assert 0 <= i0 < i1 <= len(traj.xs) and not inside[i0:i1].any()
        inside[i0:i1] = True
    assert np.array_equal(np.isfinite(traj.values), inside)


def test_from_expr_is_nan_exactly_outside_its_segments():
    # sqrt(x^2 - 1) has no real value inside (-1, 1), nor a finite
    # derivative at +-1
    t = Trajectory.from_expr(parse("sqrt(x^2 - 1)"), Grid(-2.0, 2.0, 41))
    assert t.segments == [(0, 10), (31, 41)]
    _assert_nan_exactly_outside_segments(t)


@pytest.mark.parametrize("method", ["rk4", "adaptive"])
def test_integrators_are_nan_exactly_outside_their_segments(method):
    cfg = IntegratorConfig(method=method)
    grid = Grid(0.0, 10.0, 1001)
    _assert_nan_exactly_outside_segments(
        integrate_linear(Const(-1.0), grid, 1.0, 0.0, cfg))
    # phi grows as exp(1000 x) and overflows near x = 0.7: a stalled prefix
    with pytest.raises(StepUnderflowError) as err:
        integrate_linear(Const(1e6), grid, 1.0, 0.0, cfg)
    part = err.value.partial
    assert 2 <= len(part.xs) < grid.n
    _assert_nan_exactly_outside_segments(part)


def test_cole_hopf_map_is_nan_exactly_outside_its_segments():
    phi = Trajectory.from_expr(parse("sin(3*x)"), Grid(-2.0, 2.0, 4001))
    psi = cole_hopf_map(Const(0.0), phi, U=Const(-9.0))  # 3 cot(3x)
    assert len(psi.pole_brackets) == 3 and len(psi.segments) == 4
    _assert_nan_exactly_outside_segments(psi)
    for traj in _fourteen_poles(20001):
        _assert_nan_exactly_outside_segments(traj)


# ---------------------------------------------------------------------------
# serialization and windows

def test_trajectory_csv_format():
    grid = Grid(-1.0, 1.0, 11)
    phi = Trajectory.from_expr(parse("x"), grid)
    psi = cole_hopf_map(Const(0.0), phi, U=Const(0.0))
    (data,) = _csv(psi)
    text = data.decode()
    # printed beside phi, psi's rows (the grid without the pole at x = 0)
    # take their x fields from the shared grid column
    assert sum(i1 - i0 for i0, i1 in psi.segments) < grid.n
    assert _csv(phi, psi) == [_csv_reference(phi).encode(), data]
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


def test_regular_window_honours_its_cap():
    # 1/(x - 2) passes 10 in magnitude within 0.1 of x = 2 and 1000 within
    # 0.001: the larger cap lets the window start nearer the pole
    a10, b10 = regular_window([parse("1/(x-2)")], 0.0, 5.0, cap=10.0)
    a1k, b1k = regular_window([parse("1/(x-2)")], 0.0, 5.0, cap=1e3)
    assert 2.1 < a10 < b10 < 5.0
    assert 2.0 < a1k < a10 - 0.05 and b1k < 5.0


# ---------------------------------------------------------------------------
# the vectorized shortest-repr kernel behind trajectory_csv

def _kernel_texts(values):
    fields, _ = repr_fields(np.asarray(values, dtype=float))
    return [bytes(f).replace(b"\0", b"").decode() for f in fields]


def _first_mismatch(got, want):
    """None when the lists agree; else the first differing pair (a short
    failure message where a diff of the whole lists would take minutes)."""
    if len(got) != len(want):
        return len(got), len(want)
    return next(((a, b) for a, b in zip(got, want) if a != b), None)


def _csv(*trajs):
    """The file trajectory_csv writes for each trajectory, as bytes."""
    out = [io.BytesIO() for _ in trajs]
    trajectory_csv(*trajs, out=out)
    return [f.getvalue() for f in out]


class _Sink:
    """A binary stream that discards what it is given."""

    def write(self, data):
        return len(data)


def _csv_reference(traj):
    """trajectory_csv with one repr per value."""
    lines = ["x,value,derivative,segment"]
    lines += [f"# pole [{float(a)!r},{float(b)!r}]"
              for a, b in traj.pole_brackets]
    for seg_id, (i0, i1) in enumerate(traj.segments):
        lines += [f"{float(traj.xs[i])!r},{float(traj.values[i])!r},"
                  f"{float(traj.derivatives[i])!r},{seg_id}"
                  for i in range(i0, i1)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_bytes_equal_repr(values):
    # st.floats() draws nan, +-inf, subnormals and +-0.0 too
    assert _kernel_texts(values) == [repr(float(v)) for v in values]


def test_kernel_sweep_powers_and_their_neighbours():
    centres = [c * 10.0 ** k for k in range(-8, 41)
               for c in (1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 9.5)]
    # a power of two has an asymmetric rounding interval
    centres += [2.0 ** k for k in range(-30, 131)]
    values = list(centres)
    up, down = np.array(centres), np.array(centres)
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        values += up.tolist() + down.tolist()
    values += [-v for v in values]
    assert _first_mismatch(_kernel_texts(values),
                           [repr(v) for v in values]) is None


def test_kernel_hands_decade_misses_to_repr():
    # a few ulps below 10^k, floor(log10|v|) can round up to k, and the
    # scaled s falls outside [1e16, 1e17): such a value goes to repr
    values = []
    for k in range(-5, 17):
        v = float(f"1e{k}")
        for _ in range(8):
            v = float(np.nextafter(v, 0.0))
            if Fraction(v) < Fraction(10) ** k and np.log10(v) >= k:
                values.append(v)
    assert len(values) > 50
    values += [-v for v in values]
    slow = repr_fields(np.array(values))[1]
    assert set(slow.tolist()) == set(range(len(values)))
    assert _kernel_texts(values) == [repr(v) for v in values]


def test_kernel_near_the_rounding_interval_edge():
    # v = m / 2^52 in [1, 2) scales to s = v * 10^16 = m * 5^16 / 2^36, and
    # its interval's half-width is 10^16 / 2^53 = 5^16 / 2^37: pick the v
    # whose 15- or 16-digit rounding lies within 0.01 of the interval's edge
    # (in units of the 17th digit), on either side
    values = []
    for m in range(2 ** 52 + 10 ** 9, 2 ** 52 + 10 ** 9 + 100000):
        for unit in (10, 100):
            d = 2 * (m * 5 ** 16 % (unit << 36))  # 2^37 (s mod unit)
            gap = min(abs(d - 5 ** 16), abs((unit << 37) - d - 5 ** 16))
            if gap < 2 ** 37 // 100:
                values.append(m / 2 ** 52)
    assert len(values) > 50
    assert _first_mismatch(_kernel_texts(values),
                           [repr(v) for v in values]) is None


def test_kernel_fast_path_carries_a_normal_sample():
    v = np.random.default_rng(20001).standard_normal(20001)
    slow = repr_fields(v)[1]
    assert len(slow) < 0.01 * v.size
    assert _first_mismatch(_kernel_texts(v), [repr(x) for x in v.tolist()]) \
        is None


def _fourteen_poles(n):
    """phi and its psi on [0, 40] with n points, psi with 14 poles."""
    bundle = solve_chain(parse("0.5+0.1*sin(x)"), VdpParams(2.0, 2.0, 0.0))
    phi = integrate_linear(bundle.U, Grid(0.0, 40.0, n), 1.0, 0.0,
                           IntegratorConfig(method="rk4"))
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
    assert len(psi.pole_brackets) == 14
    return phi, psi


def test_trajectory_csv_equals_repr_on_fourteen_poles():
    phi, psi = _fourteen_poles(20001)
    assert len(psi.segments) == 15
    for data, traj in zip(_csv(phi, psi), (phi, psi)):
        assert _first_mismatch(data.decode().splitlines(),
                               _csv_reference(traj).splitlines()) is None
    empty = Trajectory(xs=phi.xs, values=phi.values,
                       derivatives=phi.derivatives, segments=[])
    assert _csv(empty) == [b"x,value,derivative,segment\n"]


def _json_reference(traj):
    """trajectory_json through json.dumps."""
    def finite_or_none(values):
        return [v if math.isfinite(v) else None for v in values.tolist()]

    doc = {"x": traj.xs.tolist(), "value": finite_or_none(traj.values),
           "derivative": finite_or_none(traj.derivatives),
           "segments": [list(s) for s in traj.segments],
           "pole_brackets": [list(b) for b in traj.pole_brackets]}
    return (json.dumps(doc, indent=2) + "\n").encode()


def test_trajectory_json_equals_json_dumps():
    phi, psi = _fourteen_poles(4001)
    assert trajectory_json(phi, psi) == [_json_reference(phi),
                                         _json_reference(psi)]
    # non-finite samples print as null; a Grid's points are all finite
    xs = np.array([0.0, -0.0, 1e-7, 5e-324, 1e300, -2.0, 2.5])
    samples = np.array([0.0, -0.0, 1e-7, math.nan, math.inf, -math.inf, 2.5])
    odd = Trajectory(xs=xs, values=samples[::-1].copy(),
                     derivatives=samples * 3, segments=[],
                     pole_brackets=[(0.5, 0.75)])
    assert trajectory_json(odd) == [_json_reference(odd)]
    with pytest.raises(ValueError):
        trajectory_json(phi, odd)


def test_trajectory_csv_memory_stays_within_a_few_blocks():
    # the files are printed in row blocks and written as they are: the
    # kernel's temporaries are a block's, not a column's (9.2 MB when whole
    # columns were formatted), and no file is held whole (2 MB for the two
    # when they were returned as bytes)
    phi, psi = _fourteen_poles(20001)
    sinks = (_Sink(), _Sink())
    trajectory_csv(phi, psi, out=sinks)  # fills the kernel's lazy tables
    tracemalloc.start()
    try:
        trajectory_csv(phi, psi, out=sinks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6  # about 2.6 MB


def _assert_prints_like_the_references(*trajs):
    assert _csv(*trajs) == [_csv_reference(t).encode()
                                      for t in trajs]
    assert trajectory_json(*trajs) == [_json_reference(t) for t in trajs]


def _with_segments(traj, segments):
    """traj kept on segments only, NaN elsewhere as cole_hopf_map leaves
    the rows it drops."""
    keep = np.zeros(len(traj.xs), dtype=bool)
    for i0, i1 in segments:
        keep[i0:i1] = True
    return Trajectory(xs=traj.xs, values=np.where(keep, traj.values, np.nan),
                      derivatives=np.where(keep, traj.derivatives, np.nan),
                      segments=segments, pole_brackets=[(0.25, 0.5)])


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 1])
def test_trajectory_files_across_block_edges(n):
    # psi = 3 cot(3x) has poles inside the grid, so psi keeps fewer rows of
    # a block than phi does
    phi = Trajectory.from_expr(parse("sin(3*x)"), Grid(-2.0, 2.0, n))
    psi = cole_hopf_map(Const(0.0), phi, U=Const(-9.0))
    assert psi.pole_brackets and len(psi.segments) > 1
    _assert_prints_like_the_references(phi, psi)


def test_trajectory_files_with_gaps_at_and_over_block_edges():
    phi = Trajectory.from_expr(parse("exp(x/7)"), Grid(0.0, 1.0, 3 * _BLOCK))
    # a gap over the edge between blocks 0 and 1, and a block (the second)
    # without one row kept
    across = _with_segments(phi, [(0, _BLOCK - 3), (_BLOCK + 2, 3 * _BLOCK)])
    skipped = _with_segments(phi, [(0, 10), (2 * _BLOCK + 5, 3 * _BLOCK)])
    _assert_prints_like_the_references(phi, across, skipped)
    _assert_prints_like_the_references(skipped)


def test_trajectory_files_long_fields_then_short_ones():
    # a block of the longest fields (negative, exponent form, up to 17
    # digits) before blocks of the shortest: no byte of a long field may
    # show up in a short one
    n = 3 * _BLOCK // 2
    long = -np.abs(np.random.default_rng(26).standard_normal(n)) * 1e-5
    long[0] = -1.0000000000000002e-300  # repr's own path
    traj = Trajectory(xs=np.arange(n) / 2.0,
                      values=np.where(np.arange(n) < _BLOCK, long, 0.5),
                      derivatives=np.where(np.arange(n) < _BLOCK,
                                           long * 1e25, 2.0),
                      segments=[(0, n)])
    texts = [repr(v) for v in traj.values[:_BLOCK].tolist()]
    assert all(t.startswith("-") and "e-" in t for t in texts)
    assert sum(len(t) == len("-1.2345678901234567e-05") for t in texts) \
        > _BLOCK // 4
    _assert_prints_like_the_references(traj)


# values the kernel hands to repr: zeros, powers of two and |v| >= 1e38
_SLOW_PATH_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda e, sign: sign * 2.0 ** e, st.integers(-1074, 1023),
              st.sampled_from([1.0, -1.0])),
    st.floats(min_value=1e38, allow_infinity=False),
    st.floats(max_value=-1e38, allow_infinity=False))


@st.composite
def _trajectories_on_one_grid(draw):
    """1-3 trajectories on one grid of up to two blocks and three points:
    their samples mix drawn floats with random ones of every decade, NaN
    outside segments that may touch, be empty or be one row long."""
    n = draw(st.integers(1, 2 * _BLOCK + 3))
    pool = np.array(draw(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  _SLOW_PATH_FLOATS), min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def samples():
        decades = 10.0 ** rng.integers(-8, 40, n)
        return np.where(rng.random(n) < 0.3, rng.choice(pool, n),
                        rng.standard_normal(n) * decades)

    xs = samples()
    # gaps and segment sizes of 0 and 1 rows and up to a block edge
    step = st.one_of(st.sampled_from([0, 1]),
                     st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]),
                     st.integers(0, n))
    trajs = []
    for _ in range(draw(st.integers(1, 3))):
        segments, i1 = [], 0
        for _ in range(draw(st.integers(0, 4))):
            i0 = min(i1 + draw(step), n)
            i1 = min(i0 + draw(step), n)
            segments.append((i0, i1))
        keep = np.zeros(n, dtype=bool)
        for i0, i1 in segments:
            keep[i0:i1] = True
        brackets = draw(st.lists(st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False)), max_size=3))
        trajs.append(Trajectory(
            xs=xs, values=np.where(keep, samples(), np.nan),
            derivatives=np.where(keep, samples(), np.nan),
            segments=segments, pole_brackets=brackets))
    return trajs


@settings(max_examples=60, deadline=None)
@given(_trajectories_on_one_grid())
def test_trajectory_files_equal_the_references_on_drawn_trajectories(trajs):
    for got, traj in zip(_csv(*trajs), trajs):
        want = _csv_reference(traj).encode()
        assert _first_mismatch(got.splitlines(), want.splitlines()) is None
        assert got == want
    for got, traj in zip(trajectory_json(*trajs), trajs):
        want = _json_reference(traj)
        assert _first_mismatch(got.splitlines(), want.splitlines()) is None
        assert got == want


def test_grid_refuses_non_finite_bounds():
    for x0, x1 in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                   (0.0, math.nan)):
        with pytest.raises(ValueError, match="need finite bounds"):
            Grid(x0, x1, 5)
    with pytest.raises(ValueError, match="need x1 > x0"):
        Grid(1.0, 1.0, 5)


def test_grid_refuses_a_span_or_spacing_that_overflows():
    # linspace would make nan and inf grid points of the first, and the
    # stencils would divide by an infinite 12*h^2 on the second
    with pytest.raises(ValueError, match=r"^the grid's span x1 - x0 "
                       r"overflows a float: \[-1e\+308, 1e\+308\]$"):
        Grid(-1e308, 1e308, 5)
    with pytest.raises(ValueError, match=r"^grid spacing 5e\+159 is too "
                       r"coarse for the residual stencils: 12\*h\^2 "
                       r"overflows$"):
        Grid(0.0, 1e160, 3)
    grid = Grid(-1e153, 1e153, 3)
    assert math.isfinite(12 * grid.spacing ** 2)
    assert np.isfinite(grid.xs).all()


def test_integrator_config_refuses_nan_tolerances():
    # the constructor only: an adaptive integration with a nan rtol never
    # returns
    for bad in ({"rtol": math.nan}, {"atol": math.nan}, {"rtol": 0.0},
                {"atol": -1e-12}, {"rtol": math.nan, "method": "rk4"}):
        with pytest.raises(ValueError, match="rtol and atol must be positive"):
            IntegratorConfig(**bad)


def test_integrator_config_refuses_infinite_tolerances():
    # an infinite rtol stalls the adaptive integrator, an infinite atol
    # lets it take steps that fail the residual gate
    for name in ("rtol", "atol"):
        for method in ("adaptive", "rk4"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                IntegratorConfig(**{name: math.inf, "method": method})

