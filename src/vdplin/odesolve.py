"""Numerical layer: integrate the linear and the full nonlinear equations,
map linear solutions through the logarithmic-derivative substitution with
pole handling, and measure residuals.

The direct integration of the nonlinear equation is the independent oracle:
its trajectory is differentiated by finite differences only, never through
the algebra used to construct solutions, so agreement between the two
routes actually means something.
"""

from __future__ import annotations

import json
import math
import sys
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence, TYPE_CHECKING

import numpy as np

from ._floatfmt import _BLOCK, join_rows, repr_fields
from .expr import (Expr, Param, UnboundParameterError, as_expr, diff,
                   free_params, lambdify, lambdify_ode)

if TYPE_CHECKING:  # pragma: no cover
    from .colehopf import TransformBundle

__all__ = [
    "Grid", "IntegratorConfig", "Trajectory", "ResidualReport",
    "SegmentResidual", "ErrorMetrics", "StepUnderflowError",
    "SegmentTooShortError", "NonFiniteCoefficientError",
    "DisjointSegmentsError", "integrate_linear",
    "integrate_vdp", "cole_hopf_map", "residual", "lienard_residual",
    "compare", "trajectory_csv", "trajectory_json", "regular_window",
    "DEFAULT_POLE_TOL", "DEFAULT_GUARD_TOL",
]

DEFAULT_POLE_TOL = 1e-8
DEFAULT_GUARD_TOL = 1e-2
# a pole bracket is bisected down to this width
_POLE_BRACKET_WIDTH = 1e-10
# regular_window samples this many points and pads each end by this share
_WINDOW_POINTS = 2001
_WINDOW_MARGIN = 0.05


class StepUnderflowError(Exception):
    """The integrator could not continue (blow-up or singular coefficient).
    Carries the x-bracket of the failure and the partial trajectory; the
    message ends with the cause where the integrator knows one."""

    def __init__(self, bracket: tuple[float, float],
                 partial: "Trajectory | None", cause: str = ""):
        message = f"integration stalled in [{bracket[0]:g}, {bracket[1]:g}]"
        super().__init__(f"{message}: {cause}" if cause else message)
        self.bracket = bracket
        self.partial = partial


class SegmentTooShortError(Exception):
    """No pole-free segment long enough for the difference stencils."""


class NonFiniteCoefficientError(Exception):
    """A coefficient of the equation is not finite at any grid point."""


class DisjointSegmentsError(Exception):
    """Two trajectories have no overlapping pole-free region."""


@dataclass(frozen=True)
class Grid:
    """Uniform output grid on [x0, x1] with n samples, whose span x1 - x0
    is a finite float and whose spacing h keeps the 12*h^2 of the residual
    stencils from underflowing or overflowing."""

    x0: float
    x1: float
    n: int

    def __post_init__(self):
        for name in ("x0", "x1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: need finite "
                                 f"bounds, got [{self.x0}, {self.x1}]")
        if not (self.x1 > self.x0):
            raise ValueError(f"need x1 > x0, got [{self.x0}, {self.x1}]")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not math.isfinite(self.x1 - self.x0):
            raise ValueError(f"the grid's span x1 - x0 overflows a float: "
                             f"[{self.x0}, {self.x1}]")
        h = self.spacing
        if not math.isfinite(12 * h * h):
            raise ValueError(f"grid spacing {h:g} is too coarse for the "
                             "residual stencils: 12*h^2 overflows")
        if 12 * h * h < sys.float_info.min:
            raise ValueError(f"grid spacing {h:g} is too fine for the "
                             "residual stencils: 12*h^2 underflows")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.n)

    @property
    def spacing(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)


@dataclass(frozen=True)
class IntegratorConfig:
    """rtol/atol drive the embedded adaptive pair; "rk4" selects classical
    RK4 with one step per grid interval (rtol/atol unused), for
    integrate_linear only: integrate_vdp is adaptive only."""

    rtol: float = 1e-9
    atol: float = 1e-12
    method: str = "adaptive"

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):  # nan is not positive
            raise ValueError("rtol and atol must be positive")
        for name in ("rtol", "atol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass
class Trajectory:
    """Sampled solution: grid, values, first-derivative samples, the
    pole-free index ranges (half-open; ``values`` is NaN exactly outside
    them, and two meet where a pole splits a run of finite samples between
    neighbours) and the x-brackets of the poles.  The grid is the one
    asked for, or its prefix up to the last point reached when integration
    stalled, so trajectories of one grid compare index by index.  ``expr``
    is set when the samples come from a closed form, which lets residuals
    take psi'' exactly; ``dense`` maps x to (value, derivative), in memory
    only (never serialized): the adaptive integrator's interpolant, or a
    closed form's two tapes."""

    xs: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    segments: list[tuple[int, int]]
    pole_brackets: list[tuple[float, float]] = field(default_factory=list)
    expr: Expr | None = None
    dense: Callable | None = None

    @classmethod
    def from_expr(cls, e: Expr, grid: Grid) -> "Trajectory":
        xs = grid.xs
        fn, dfn = lambdify(e), lambdify(diff(e))
        vals, derivs = fn(xs), dfn(xs)
        good = np.isfinite(vals) & np.isfinite(derivs)
        return cls(xs=xs, values=np.where(good, vals, np.nan),
                   derivatives=np.where(good, derivs, np.nan),
                   segments=_runs(good), expr=e,
                   dense=lambda x: (fn(x), dfn(x)))


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal half-open index ranges on which mask is true."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[0::2], edges[1::2]))


# ---------------------------------------------------------------------------
# integrators

def _integrate(rhs, grid: Grid, y0: Sequence[float],
               cfg: IntegratorConfig) -> Trajectory:
    def guarded(x, y):
        # scalar callbacks raise on a singular or out-of-domain coefficient
        try:
            return rhs(x, y)
        except (ArithmeticError, ValueError):
            raise StepUnderflowError((float(x), grid.x1), None) from None

    xs = grid.xs
    ts, starts, stages, finished = _dopri45(guarded, grid.x0, grid.x1, y0,
                                            cfg.rtol, cfg.atol)
    # the grid points up to the last accepted step
    n_ok = len(xs) if finished else int(np.searchsorted(xs, ts[-1], "right"))
    dense = _dense_output(ts, starts, stages) if len(ts) > 1 else None
    if not finished:
        partial = None
        if n_ok >= 2:
            ys = dense(xs[:n_ok])
            partial = Trajectory(xs=xs[:n_ok], values=ys[0],
                                 derivatives=ys[1], segments=[(0, n_ok)],
                                 dense=dense)
        raise StepUnderflowError((float(xs[n_ok - 1]), grid.x1), partial)
    ys = dense(xs)
    return Trajectory(xs=xs, values=ys[0], derivatives=ys[1],
                      segments=[(0, len(xs))], dense=dense)


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) with the step control
# and the initial step of scipy's RK45, and Shampine's (1986) free quartic
# interpolant; the coefficients are scipy's.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
# row i is stage i's contribution to the coefficients of theta .. theta^4
_DENSE_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# accepted steps a run may take, over 100 times the most any test or
# documented run takes; every step is kept for the dense output, so a
# stiff run creeping on at steps near the smallest stops at about 100 MB
_MAX_STEPS = 300_000
_EXPONENT = -1 / 5  # minus one over (error estimator order + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps
_SQRT2 = 2 ** 0.5


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _initial_step(rhs, t: float, ya: float, yb: float, fa: float, fb: float,
                  length: float, rtol: float, atol: float) -> float:
    """The first step size of Hairer, Norsett and Wanner, Sec. II.4."""
    sa, sb = atol + abs(ya) * rtol, atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    ga, gb = rhs(t + h0, (ya + h0 * fa, yb + h0 * fb))
    # h0 is 0 only for an infinite d1, and then h1 is 0 whatever d2 is; a
    # float divided by zero raises, where numpy's gives inf
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0 if h0 > 0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** 0.2 if d > 0 else math.inf
    return min(100 * h0, h1, length)


def _dopri45(rhs, x0: float, x1: float, y0: Sequence[float], rtol: float,
             atol: float) -> tuple[array, array, array, bool]:
    """Integrate the pair y' = rhs(x, y) from x0 to x1 > x0 on Python
    floats, step for step as scipy's RK45.  Returns the step ends (x0
    first), the state at each step start and the seven stages of each
    step, both flattened, and whether x1 was reached; a step that would
    have to shrink below ten ulps of x, a non-finite initial state, or
    _MAX_STEPS accepted steps short of x1 end the run early."""
    t, x1 = float(x0), float(x1)
    ya, yb = float(y0[0]), float(y0[1])
    # 8 bytes a value: a long run keeps every stage of every step
    ts, starts, stages = array("d", [t]), array("d"), array("d")
    if not (math.isfinite(ya) and math.isfinite(yb)):
        return ts, starts, stages, False
    rtol = max(rtol, _RTOL_FLOOR)
    fa, fb = rhs(t, (ya, yb))
    h_abs = _initial_step(rhs, t, ya, yb, fa, fb, x1 - t, rtol, atol)
    while t < x1:
        if len(ts) > _MAX_STEPS:
            return ts, starts, stages, False
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step size fails too
                return ts, starts, stages, False
            t_new = min(t + h_abs, x1)
            h = h_abs = t_new - t
            k2a, k2b = rhs(t + _C2 * h, (ya + _A21 * fa * h,
                                         yb + _A21 * fb * h))
            k3a, k3b = rhs(t + _C3 * h, (ya + (_A31 * fa + _A32 * k2a) * h,
                                         yb + (_A31 * fb + _A32 * k2b) * h))
            k4a, k4b = rhs(t + _C4 * h, (
                ya + (_A41 * fa + _A42 * k2a + _A43 * k3a) * h,
                yb + (_A41 * fb + _A42 * k2b + _A43 * k3b) * h))
            k5a, k5b = rhs(t + _C5 * h, (
                ya + (_A51 * fa + _A52 * k2a + _A53 * k3a + _A54 * k4a) * h,
                yb + (_A51 * fb + _A52 * k2b + _A53 * k3b + _A54 * k4b) * h))
            k6a, k6b = rhs(t + h, (
                ya + (_A61 * fa + _A62 * k2a + _A63 * k3a + _A64 * k4a
                      + _A65 * k5a) * h,
                yb + (_A61 * fb + _A62 * k2b + _A63 * k3b + _A64 * k4b
                      + _A65 * k5b) * h))
            na = ya + h * (_B1 * fa + _B3 * k3a + _B4 * k4a + _B5 * k5a
                           + _B6 * k6a)
            nb = yb + h * (_B1 * fb + _B3 * k3b + _B4 * k4b + _B5 * k5b
                           + _B6 * k6b)
            k7a, k7b = rhs(t + h, (na, nb))
            ea = (_E1 * fa + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
                  + _E7 * k7a) * h
            eb = (_E1 * fb + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b
                  + _E7 * k7b) * h
            err = _rms(ea / (atol + max(abs(ya), abs(na)) * rtol),
                       eb / (atol + max(abs(yb), abs(nb)) * rtol))
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # a nan error norm shrinks the step too
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        starts.extend((ya, yb))
        stages.extend((fa, fb, k2a, k2b, k3a, k3b, k4a, k4b, k5a, k5b, k6a,
                       k6b, k7a, k7b))
        ts.append(t_new)
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
    return ts, starts, stages, True


def _dense_output(ts: array, starts: array, stages: array) -> Callable:
    """The interpolant of the accepted steps of _dopri45, as a function of
    x (a float or an array) that returns the pair (y, y') with shape (2,)
    or (2, len(x)).  A step end belongs to the step that ends there."""
    ends = np.array(ts)
    t_old, h = ends[:-1], np.diff(ends)
    y_old = np.array(starts).reshape(-1, 2)
    q = _DENSE_P.T @ np.array(stages).reshape(-1, 7, 2)  # (steps, 4, 2)
    last = len(h) - 1

    def dense(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        s = np.clip(np.searchsorted(ends, xa) - 1, 0, last)
        theta = (xa - t_old[s]) / h[s]
        powers = np.cumprod(np.repeat(theta[:, None], 4, axis=1), axis=1)
        y = h[s] * np.einsum("pjc,pj->cp", q[s], powers) + y_old[s].T
        return y[:, 0] if np.ndim(x) == 0 else y

    return dense


_SCAN_BLOCK = 64  # steps per block of the RK4 scan


def _step_matrices(ufn, xs: np.ndarray) -> np.ndarray:
    """RK4 for y = (phi, phi') under phi'' = U phi is linear, so step n is
    exactly y_{n+1} = M_n y_n with a 2x2 M_n that depends only on U at x_n,
    x_n + h/2 and x_n + h.  Returns every M_n, shape (2, 2, n - 1): U is
    evaluated once on all stage nodes, and the columns come from the stage
    formulas applied elementwise to the basis vectors."""
    h = float(xs[1] - xs[0])
    x = xs[:-1]
    u1, u2, u4 = ufn(x), ufn(x + h / 2), ufn(x + h)

    def step(a, b):
        # the stages of rhs(x, y) = (y1, U y0) from y = (a, b)
        k1 = (b, u1 * a)
        k2 = (b + h / 2 * k1[1], u2 * (a + h / 2 * k1[0]))
        k3 = (b + h / 2 * k2[1], u2 * (a + h / 2 * k2[0]))
        k4 = (b + h * k3[1], u4 * (a + h * k3[0]))
        return (a + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                b + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

    m = np.empty((2, 2, len(x)))
    with np.errstate(all="ignore"):
        m[0, 0], m[1, 0] = step(1.0, 0.0)
        m[0, 1], m[1, 1] = step(0.0, 1.0)
    return m


def _linear_rk4(ufn, xs: np.ndarray, phi0: float, dphi0: float) -> Trajectory:
    """RK4 for phi'' = U phi from (phi0, phi0'), as a blocked scan of the
    step matrices (Blelloch 1990): the running products inside every block
    of _SCAN_BLOCK steps, all blocks at once; then the state at each block
    start, carried from block to block; then every state as its in-block
    product applied to its block's start.

    A block whose products are not all finite is stepped one M_n at a time
    instead, so neither a product that overflows while the state does not
    nor an inf times a zero component of the state stops the run early: the
    first non-finite state is the one the step-by-step recurrence reaches."""
    n_steps = len(xs) - 1
    size = min(_SCAN_BLOCK, n_steps)
    n_blocks = -(-n_steps // size)
    # m[k, i, j, b] is entry (i, j) of M_{b * size + k}; identities pad
    flat = np.empty((2, 2, n_blocks * size))
    flat[:, :, :n_steps] = _step_matrices(ufn, xs)
    flat[:, :, n_steps:] = np.eye(2)[:, :, None]
    m = flat.reshape(2, 2, n_blocks, size).transpose(3, 0, 1, 2).copy()
    prod = np.empty_like(m)
    prod[0] = m[0]
    with np.errstate(all="ignore"):
        for k in range(1, size):
            np.multiply(m[k, :, :1], prod[k - 1, :1], out=prod[k])
            prod[k] += m[k, :, 1:] * prod[k - 1, 1:]
    finite = np.isfinite(prod).all(axis=(0, 1, 2)).tolist()

    starts = np.full((2, n_blocks), np.nan)
    stepped = {}
    y0, y1 = float(phi0), float(dphi0)
    last = prod[-1].reshape(4, n_blocks).T.tolist()
    for b in range(n_blocks):
        if not (math.isfinite(y0) and math.isfinite(y1)):
            break
        starts[:, b] = y0, y1
        if finite[b]:
            p00, p01, p10, p11 = last[b]
            y0, y1 = p00 * y0 + p01 * y1, p10 * y0 + p11 * y1
            continue
        states = []
        for a00, a01, a10, a11 in m[:, :, :, b].reshape(size, 4).tolist():
            y0, y1 = a00 * y0 + a01 * y1, a10 * y0 + a11 * y1
            states.append((y0, y1))
        stepped[b] = states
    with np.errstate(all="ignore"):
        ys = prod[:, :, 0] * starts[0] + prod[:, :, 1] * starts[1]
    for b, states in stepped.items():
        ys[:, :, b] = states
    values = np.concatenate(([phi0], ys[:, 0].T.ravel()[:n_steps]))
    derivatives = np.concatenate(([dphi0], ys[:, 1].T.ravel()[:n_steps]))
    bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(derivatives)))
    if bad.size:
        # a non-finite initial state fails the first step; a first step
        # from a finite one fails on a U too large for the step, named
        # where it is finite
        cause = ""
        if bad[0] == 1:
            with np.errstate(all="ignore"):
                top = float(np.max(np.abs(ufn(xs))))
            if math.isfinite(top):
                cause = f"|U| reaches {top:.3g} on the grid"
        # the finite prefix is the partial trajectory when it has two points
        i = max(int(bad[0]), 1) - 1
        partial = None
        if i >= 1:
            partial = Trajectory(xs=xs[:i + 1], values=values[:i + 1],
                                 derivatives=derivatives[:i + 1],
                                 segments=[(0, i + 1)])
        raise StepUnderflowError((float(xs[i]), float(xs[-1])), partial,
                                 cause)
    return Trajectory(xs=xs, values=values, derivatives=derivatives,
                      segments=[(0, len(xs))])


# Compiled right-hand sides, held weakly by what they are compiled from: a
# potential U, or a bundle with its mu, beta and alpha as float.hex (which
# tells 0.0 from -0.0).  The rate expression is built for a compile and dies
# with the call, so it cannot hold them; the functions reference no node and
# no bundle.
_RHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _compiled_rhs(owner, key: tuple, state: tuple[str, str],
                  rate: Callable[[Expr, Expr], Expr]) -> Callable:
    """The rhs of u'' = rate(u, u') for the state parameters named by
    ``state``, compiled on the first call for (owner, key) and looked up
    after that."""
    hit = _RHS.get(owner)
    if hit is not None and hit[0] == key:
        return hit[1]
    fn = lambdify_ode(rate(*map(Param, state)), *state)
    _RHS[owner] = (key, fn)
    return fn


def _bound(e: Expr) -> Expr:
    """e, refused if it holds a parameter: a state argument of the rhs
    must never take a user parameter's place, even one named like it."""
    missing = free_params(e)
    if missing:
        raise UnboundParameterError(min(missing))
    return e


def integrate_linear(U: Expr, grid: Grid, phi0: float, dphi0: float,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Integrate phi'' = U(x) phi from (phi0, phi0')."""
    if cfg.method == "rk4":
        return _linear_rk4(lambdify(U), grid.xs, phi0, dphi0)
    rhs = _compiled_rhs(U, (), ("phi", "dphi"),
                        lambda phi, dphi: _bound(U) * phi)
    return _integrate(rhs, grid, (phi0, dphi0), cfg)


def integrate_vdp(bundle: "TransformBundle", grid: Grid, psi0: float,
                  dpsi0: float,
                  cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Directly integrate the full nonlinear equation carried by a bundle,
    psi'' = mu (beta - psi^2) psi' - alpha psi + v psi^2 + h psi^3
    + g psi^4 + f.  This is the oracle route: it never sees the
    substitution algebra.  The right-hand side is one compiled function
    of (x, psi, psi'), so the subexpressions v, h, g and f share are
    evaluated once per call; it is compiled on the first run of a bundle
    and reused by the next.  The integration is adaptive only: "rk4" is
    refused."""
    if cfg.method != "adaptive":
        raise ValueError(f"integrate_vdp is adaptive only, got method "
                         f"{cfg.method!r}")
    p = bundle.params

    def rate(psi: Expr, dpsi: Expr) -> Expr:
        v, h, g, f = map(_bound, (bundle.v, bundle.h, bundle.g, bundle.f))
        # products, not powers: a float power that overflows raises
        p2 = psi * psi
        return (p.mu * (p.beta - p2) * dpsi - p.alpha * psi + v * p2
                + h * (p2 * psi) + g * (p2 * p2) + f)

    key = (p.mu.hex(), p.beta.hex(), p.alpha.hex())
    rhs = _compiled_rhs(bundle, key, ("psi", "dpsi"), rate)
    return _integrate(rhs, grid, (psi0, dpsi0), cfg)


# ---------------------------------------------------------------------------
# the substitution map

def cole_hopf_map(P: Expr, phi: Trajectory, U: Expr,
                  pole_tol: float = DEFAULT_POLE_TOL) -> Trajectory:
    """psi = P + phi'/phi, sampled on phi's grid.

    Zeros of phi are movable poles of psi: points where |phi| drops below
    pole_tol times the running maximum are excluded, sign changes of phi
    are bracketed (bisecting phi's dense output when it has one) and
    segments are split there.  Poles are data, not errors.
    psi' is computed through phi'' = U phi.
    """
    xs = phi.xs
    vals = phi.values
    pfn = lambdify(P)
    dpfn = lambdify(diff(P))

    finite = np.isfinite(vals)
    runmax = np.maximum.accumulate(np.where(finite, np.abs(vals), 0.0))
    runmax = np.maximum(runmax, 1e-300)
    keep = finite & (np.abs(vals) >= pole_tol * runmax)

    with np.errstate(all="ignore"):
        w = phi.derivatives / vals
        psi = pfn(xs) + w
        dpsi = dpfn(xs) + lambdify(U)(xs) - w * w
    keep &= np.isfinite(psi)

    # sign changes between neighbouring finite samples
    with np.errstate(all="ignore"):
        crossing = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    cuts = np.flatnonzero(finite[:-1] & finite[1:] & crossing)
    brackets = [_refine_zero(phi, i) for i in cuts.tolist()]

    segments = []
    for i0, i1 in _runs(keep):
        start = i0
        for i in cuts[(cuts >= i0) & (cuts < i1 - 1)].tolist():
            segments.append((start, i + 1))
            start = i + 1
        segments.append((start, i1))

    psi_expr = (None if phi.expr is None
                else P + diff(phi.expr) / phi.expr)
    return Trajectory(xs=xs, values=np.where(keep, psi, np.nan),
                      derivatives=np.where(keep, dpsi, np.nan),
                      segments=segments, pole_brackets=brackets,
                      expr=psi_expr)


def _refine_zero(phi: Trajectory, i: int) -> tuple[float, float]:
    """Bracket phi's sign change on [xs[i], xs[i + 1]]: bisect its dense
    output; an RK4 phi has none, and its bracket is the grid interval, one
    step wide.  A midpoint where phi is not finite ends the bisection, with
    the last bracket that holds the sign change."""
    a, b = float(phi.xs[i]), float(phi.xs[i + 1])
    if phi.dense is None:
        return (a, b)
    f = lambda x: phi.dense(x)[0]
    fa = float(f(a))
    if fa == 0.0:
        return (a, a)
    for _ in range(200):
        if b - a <= _POLE_BRACKET_WIDTH:
            break
        m = 0.5 * (a + b)
        fm = float(f(m))
        if not math.isfinite(fm):
            break
        if fm == 0.0:
            return (m, m)
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return (a, b)


def _fd_second(y: np.ndarray, h: float) -> np.ndarray:
    """Five-point central second derivative; ends filled with nan."""
    out = np.full_like(y, np.nan)
    out[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1]
                 - y[4:]) / (12 * h * h)
    return out


# ---------------------------------------------------------------------------
# residuals

@dataclass(frozen=True)
class SegmentResidual:
    x_start: float
    x_end: float
    n_points: int
    max_abs: float
    l2: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ResidualReport:
    segments: tuple[SegmentResidual, ...]
    max_abs: float
    guard_tol: float
    skipped_segments: int

    def to_dict(self) -> dict:
        return {**vars(self), "segments": [s.to_dict() for s in self.segments]}


def _on_grid(coeffs: Sequence, xs: np.ndarray) -> list[np.ndarray]:
    """The values of each coefficient, an Expr or a float, on the grid xs."""
    return [lambdify(as_expr(e))(xs) for e in coeffs]


def _residual(traj: Trajectory, c: Sequence, b: Sequence,
              guard_tol: float) -> ResidualReport:
    """Residual R = psi'' + (c0 + c1 psi + c2 psi^2) psi' + sum b_i psi^i of
    the Lienard equation with coefficients c0..c2, b0..b4 (Exprs or
    floats), on traj's samples.

    Both polynomials are evaluated in Horner form.  psi and psi' are the
    trajectory's own samples on every route; psi'' is exact for a closed
    form and a five-point stencil of psi otherwise, whose ends are nan.  A
    guard band of width guard_tol in x is excluded around every pole
    bracket; segments shorter than the stencil's five points, or with no
    point left, are skipped and counted.  If none is left, the error names
    the first coefficient finite nowhere."""
    xs, psi, dpsi = traj.xs, traj.values, traj.derivatives
    c, b = _on_grid(c, xs), _on_grid(b, xs)
    c0, c1, c2 = c
    b0, b1, b2, b3, b4 = b
    with np.errstate(all="ignore"):
        if traj.expr is not None:
            ddpsi = lambdify(diff(diff(traj.expr)))(xs)
        else:
            ddpsi = np.full_like(psi, np.nan)
            h = float(xs[1] - xs[0])
            for i0, i1 in traj.segments:
                ddpsi[i0:i1] = _fd_second(psi[i0:i1], h)
        R = (ddpsi + ((c2 * psi + c1) * psi + c0) * dpsi
             + (((b4 * psi + b3) * psi + b2) * psi + b1) * psi + b0)

    stats, skipped = [], 0
    for i0, i1 in traj.segments:
        x = xs[i0:i1]
        ok = np.isfinite(R[i0:i1])
        for (lo, hi) in traj.pole_brackets:
            ok &= (x < lo - guard_tol) | (x > hi + guard_tol)
        if i1 - i0 < 5 or not ok.any():
            skipped += 1
            continue
        x, r = x[ok], R[i0:i1][ok]
        seg_max = float(np.max(np.abs(r)))
        seg_l2 = float(np.sqrt(np.trapezoid(r ** 2, x))) if len(r) > 1 \
            else seg_max
        stats.append(SegmentResidual(float(x[0]), float(x[-1]), len(r),
                                     seg_max, seg_l2))
    if not stats:
        names = ("c0", "c1", "c2", "b0", "b1", "b2", "b3", "b4")
        for name, vals in zip(names, (*c, *b)):
            if not np.isfinite(vals).any():
                raise NonFiniteCoefficientError(
                    f"coefficient {name} is not finite anywhere on the grid")
        raise SegmentTooShortError(
            "no segment long enough for the residual stencils")
    return ResidualReport(segments=tuple(stats),
                          max_abs=max(s.max_abs for s in stats),
                          guard_tol=guard_tol, skipped_segments=skipped)


def residual(bundle: "TransformBundle", traj: Trajectory,
             guard_tol: float = DEFAULT_GUARD_TOL) -> ResidualReport:
    """Residual of the full nonlinear equation on a trajectory:
    R = psi'' - mu (beta - psi^2) psi' + alpha psi - v psi^2 - h psi^3
        - g psi^4 - f,
    the Lienard residual at the (c, b) that ``VdpParams.lienard`` gives
    for the bundle's v, h, g and f."""
    return _residual(traj, *bundle.params.lienard(bundle.v, bundle.h,
                                                  bundle.g, bundle.f),
                     guard_tol)


def lienard_residual(c: Sequence[Expr], b: Sequence[Expr], traj: Trajectory,
                     guard_tol: float = DEFAULT_GUARD_TOL) -> ResidualReport:
    """Residual of psi'' + (sum c_i psi^i) psi' + sum b_i psi^i = 0."""
    return _residual(traj, c, b, guard_tol)


# ---------------------------------------------------------------------------
# trajectory comparison

@dataclass(frozen=True)
class ErrorMetrics:
    linf: float
    rel_linf: float
    rel_l2: float
    n_points: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def compare(a: Trajectory, b: Trajectory) -> ErrorMetrics:
    """Pointwise error metrics at the grid points where both trajectories
    have a sample, a finite value, taken by index: the two must share one
    grid, though either may stop short of the other, as a partial
    trajectory does.  Relative metrics are floored at scale 1."""
    n = min(len(a.xs), len(b.xs))
    if not np.array_equal(a.xs[:n], b.xs[:n]):
        raise ValueError("trajectories compared need one grid")
    good = np.isfinite(a.values[:n]) & np.isfinite(b.values[:n])
    ya, yb = a.values[:n][good], b.values[:n][good]
    if not ya.size:
        raise DisjointSegmentsError("no overlapping pole-free region")
    d = np.abs(ya - yb)
    scale = np.maximum(1.0, np.maximum(np.abs(ya), np.abs(yb)))
    linf = float(np.max(d))
    rel_linf = float(np.max(d / scale))
    rel_l2 = float(np.sqrt(np.sum(d ** 2)) / max(1.0, np.sqrt(np.sum(ya ** 2))))
    return ErrorMetrics(linf=linf, rel_linf=rel_linf, rel_l2=rel_l2,
                        n_points=int(d.size))


# ---------------------------------------------------------------------------
# serialization and grid utilities

def _shared_grid(trajs: Sequence[Trajectory]) -> np.ndarray:
    xs = trajs[0].xs
    for traj in trajs[1:]:
        if traj.xs is not xs and not np.array_equal(traj.xs, xs):
            raise ValueError("trajectories printed together need one grid")
    return xs


def trajectory_csv(*trajs: Trajectory) -> list[bytes]:
    """The CSV file of each trajectory, all on one grid: header
    x,value,derivative,segment, pole brackets as comment lines, then one row
    per grid point inside a pole-free segment, floats as shortest round-trip
    decimals (the bytes of ``repr``).  The files are printed together in
    blocks of ``_BLOCK`` grid points: one ``repr_fields`` call formats a
    block's grid points and every file's samples kept in it, and one
    ``join_rows`` call per file prints its lines of the block.  A file that
    keeps every row of a block takes the grid's fields by a slice, and a
    block within one segment has one tail, which ``join_rows`` broadcasts."""
    xs = _shared_grid(trajs)
    files, seg_of_row, tails = [], [], []
    for traj in trajs:
        files.append([("x,value,derivative,segment\n" + "".join(
            f"# pole [{float(a)!r},{float(b)!r}]\n"
            for a, b in traj.pole_brackets)).encode()])
        seg = np.full(len(xs), -1, dtype=np.intp)  # -1 outside segments
        for i, (i0, i1) in enumerate(traj.segments):
            seg[i0:i1] = i
        seg_of_row.append(seg)
        tails.append([f",{i}\n".encode() for i in range(len(traj.segments))])
    for start in range(0, len(xs), _BLOCK):
        block = slice(start, start + _BLOCK)
        at = len(xs[block])
        # each file's rows of the block, a slice when it keeps them all
        kept = [np.flatnonzero(seg[block] >= 0) for seg in seg_of_row]
        kept = [(r.size, slice(at) if r.size == at else r) for r in kept]
        fields = repr_fields(np.concatenate([xs[block]] + [
            col[block][rows] for traj, (_, rows) in zip(trajs, kept)
            for col in (traj.values, traj.derivatives)]))[0]
        for file, seg, tail, (n, rows) in zip(files, seg_of_row, tails, kept):
            if n:
                ids = seg[block][rows]  # nondecreasing segment ids
                file.append(join_rows(
                    [fields[rows], fields[at:at + n],
                     fields[at + n:at + 2 * n]],
                    tail[ids[0]:ids[-1] + 1], ids - ids[0]))
            at += 2 * n
    # each file's blocks are freed once joined
    return [b"".join(files.pop(0)) for _ in trajs]


def _json_array(values: np.ndarray) -> bytes:
    """A float array as ``json.dumps(list, indent=2)`` prints it one level
    deep, each non-finite value as null."""
    chunks = [b"[\n    " if len(values) else b"[]"]
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        fields = repr_fields(block)[0]
        null = ~np.isfinite(block)
        fields[null] = 0
        fields[null, :4] = np.frombuffer(b"null", dtype=np.uint8)
        chunks.append(join_rows([fields], [b",\n    "], None))
    if len(values):  # the last value ends the array instead
        chunks[-1] = chunks[-1][:-len(b",\n    ")] + b"\n  ]"
    return b"".join(chunks)


def trajectory_json(*trajs: Trajectory) -> list[bytes]:
    """The JSON file of each trajectory, all on one grid: the bytes of
    ``json.dumps(doc, indent=2)`` and a newline, for doc = {"x", "value",
    "derivative", "segments", "pole_brackets"} with non-finite samples as
    null.  The grid array is formatted once."""
    x_text = _json_array(_shared_grid(trajs))

    def nested(doc) -> bytes:
        return json.dumps(doc, indent=2).replace("\n", "\n  ").encode()

    return [b"".join((
        b'{\n  "x": ', x_text,
        b',\n  "value": ', _json_array(traj.values),
        b',\n  "derivative": ', _json_array(traj.derivatives),
        b',\n  "segments": ', nested([list(s) for s in traj.segments]),
        b',\n  "pole_brackets": ',
        nested([list(b) for b in traj.pole_brackets]),
        b"\n}\n")) for traj in trajs]


def regular_window(exprs: Sequence[Expr], x0: float, x1: float,
                   cap: float) -> tuple[float, float]:
    """Largest subinterval of [x0, x1] on which every expression stays
    finite and below cap in magnitude, shrunk by a relative margin at both
    ends.  Raises if nothing usable remains."""
    xs = np.linspace(x0, x1, _WINDOW_POINTS)
    good = np.ones(_WINDOW_POINTS, dtype=bool)
    for e in exprs:
        vals = lambdify(e)(xs)
        good &= np.isfinite(vals) & (np.abs(vals) <= cap)
    best = max(_runs(good), key=lambda r: r[1] - r[0], default=None)
    if best is None or best[1] - best[0] < 2:
        raise ValueError("no regular subinterval found")
    a, b = xs[best[0]], xs[best[1] - 1]
    pad = _WINDOW_MARGIN * (b - a)
    if b - a - 2 * pad <= 0:
        raise ValueError("regular subinterval too small")
    return float(a + pad), float(b - pad)
