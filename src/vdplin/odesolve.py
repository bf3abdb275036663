"""Numerical layer: integrate the linear and the full nonlinear equations,
map linear solutions through the logarithmic-derivative substitution with
pole handling, and measure residuals.

The direct integration of the nonlinear equation is the independent oracle:
its trajectory is differentiated by finite differences only, never through
the algebra used to construct solutions, so agreement between the two
routes actually means something.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .expr import Expr, diff, lambdify, simplify

if TYPE_CHECKING:  # pragma: no cover
    from .colehopf import TransformBundle

__all__ = [
    "Grid", "IntegratorConfig", "Trajectory", "ResidualReport",
    "SegmentResidual", "ErrorMetrics", "StepUnderflowError",
    "SegmentTooShortError", "DisjointSegmentsError", "integrate_linear",
    "integrate_vdp", "cole_hopf_map", "residual", "lienard_residual",
    "compare", "trajectory_csv", "regular_window",
    "DEFAULT_POLE_TOL", "DEFAULT_GUARD_TOL",
]

DEFAULT_POLE_TOL = 1e-8
DEFAULT_GUARD_TOL = 1e-2


class StepUnderflowError(Exception):
    """The integrator could not continue (blow-up or singular coefficient).
    Carries the x-bracket of the failure and the partial trajectory."""

    def __init__(self, bracket: tuple[float, float], partial: "Trajectory | None"):
        super().__init__(f"integration stalled in [{bracket[0]:g}, {bracket[1]:g}]")
        self.bracket = bracket
        self.partial = partial


class SegmentTooShortError(Exception):
    """No pole-free segment long enough for the difference stencils."""


class DisjointSegmentsError(Exception):
    """Two trajectories have no overlapping pole-free region."""


@dataclass(frozen=True)
class Grid:
    """Uniform output grid on [x0, x1] with n samples."""

    x0: float
    x1: float
    n: int

    def __post_init__(self):
        if not (self.x1 > self.x0):
            raise ValueError(f"need x1 > x0, got [{self.x0}, {self.x1}]")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.n)

    @property
    def spacing(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)


@dataclass(frozen=True)
class IntegratorConfig:
    """rtol/atol drive the embedded adaptive pair; "rk4" selects classical
    RK4 with one step per grid interval (rtol/atol unused)."""

    rtol: float = 1e-9
    atol: float = 1e-12
    method: str = "adaptive"

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass
class Trajectory:
    """Sampled solution: grid, values, first-derivative samples, the
    maximal pole-free index ranges (half-open) and the x-brackets of the
    poles.  ``expr`` is set when the samples come from a closed form, which
    lets residuals differentiate exactly; ``dense`` is an in-memory
    interpolant from the adaptive integrator (never serialized)."""

    xs: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    segments: list[tuple[int, int]]
    pole_brackets: list[tuple[float, float]] = field(default_factory=list)
    expr: Expr | None = None
    dense: Callable | None = None

    @classmethod
    def from_expr(cls, e: Expr, grid: Grid,
                  env: Mapping[str, float] | None = None) -> "Trajectory":
        e = simplify(e)
        xs = grid.xs
        vals = lambdify(e, env)(xs)
        derivs = lambdify(simplify(diff(e)), env)(xs)
        good = np.isfinite(vals) & np.isfinite(derivs)
        return cls(xs=xs, values=np.where(good, vals, np.nan),
                   derivatives=np.where(good, derivs, np.nan),
                   segments=_runs(good), expr=e)

    def segment_spans(self) -> list[tuple[float, float]]:
        return [(float(self.xs[i0]), float(self.xs[i1 - 1]))
                for i0, i1 in self.segments]


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
    if cfg.method == "rk4":
        return _integrate_rk4(guarded, xs, y0)
    from scipy.integrate import solve_ivp  # only this path needs scipy

    sol = solve_ivp(guarded, (grid.x0, grid.x1), np.asarray(y0, dtype=float),
                    method="RK45", rtol=cfg.rtol, atol=cfg.atol,
                    t_eval=xs, dense_output=True)
    if sol.status != 0 or len(sol.t) < len(xs):
        n_ok = len(sol.t)
        reached = float(sol.t[-1]) if n_ok else grid.x0
        partial = None
        if n_ok >= 2:
            partial = Trajectory(xs=np.asarray(sol.t), values=sol.y[0],
                                 derivatives=sol.y[1],
                                 segments=[(0, n_ok)], dense=sol.sol)
        raise StepUnderflowError((reached, grid.x1), partial)
    return Trajectory(xs=xs, values=sol.y[0], derivatives=sol.y[1],
                      segments=[(0, len(xs))], dense=sol.sol)


def _integrate_rk4(rhs, xs: np.ndarray, y0: Sequence[float]) -> Trajectory:
    """Classical RK4 for a general system y' = rhs(x, y), one step per grid
    interval; stops at the first non-finite state."""
    h = float(xs[1] - xs[0])
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(xs), len(y)))
    out[0] = y
    for i in range(len(xs) - 1):
        x = float(xs[i])
        k1 = np.asarray(rhs(x, y))
        k2 = np.asarray(rhs(x + h / 2, y + h / 2 * k1))
        k3 = np.asarray(rhs(x + h / 2, y + h / 2 * k2))
        k4 = np.asarray(rhs(x + h, y + h * k3))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise _stalled(xs, out[:, 0], out[:, 1], i)
        out[i + 1] = y
    return Trajectory(xs=xs, values=out[:, 0], derivatives=out[:, 1],
                      segments=[(0, len(xs))])


def _stalled(xs: np.ndarray, values: np.ndarray, derivatives: np.ndarray,
             i: int) -> StepUnderflowError:
    """The error for a step i whose end state is non-finite; its partial
    trajectory is the finite prefix xs[:i + 1] when that has two points."""
    partial = None
    if i >= 1:
        partial = Trajectory(xs=xs[:i + 1], values=values[:i + 1],
                             derivatives=derivatives[:i + 1],
                             segments=[(0, i + 1)])
    return StepUnderflowError((float(xs[i]), float(xs[-1])), partial)


def _linear_rk4(ufn, xs: np.ndarray, phi0: float, dphi0: float) -> Trajectory:
    """RK4 for y = (phi, phi') under phi'' = U phi.  The system is linear,
    so step n is exactly y_{n+1} = M_n y_n with a 2x2 M_n that depends only
    on U at x_n, x_n + h/2 and x_n + h.  U is evaluated once on all stage
    nodes, the columns of every M_n come from the stage formulas applied
    elementwise to the basis vectors, and the trajectory is the running
    product, accumulated over Python floats."""
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

    with np.errstate(all="ignore"):
        m00, m10 = step(1.0, 0.0)
        m01, m11 = step(0.0, 1.0)
    y0, y1 = float(phi0), float(dphi0)
    vals, ders = [y0], [y1]
    for a00, a01, a10, a11 in zip(m00.tolist(), m01.tolist(),
                                  m10.tolist(), m11.tolist()):
        y0, y1 = a00 * y0 + a01 * y1, a10 * y0 + a11 * y1
        vals.append(y0)
        ders.append(y1)
    values = np.array(vals)
    derivatives = np.array(ders)
    bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(derivatives)))
    if bad.size:
        # a non-finite initial state fails the first step
        raise _stalled(xs, values, derivatives, max(int(bad[0]), 1) - 1)
    return Trajectory(xs=xs, values=values, derivatives=derivatives,
                      segments=[(0, len(xs))])


def integrate_linear(U: Expr, grid: Grid, phi0: float, dphi0: float,
                     cfg: IntegratorConfig = DEFAULT_CONFIG,
                     env: Mapping[str, float] | None = None) -> Trajectory:
    """Integrate phi'' = U(x) phi from (phi0, phi0')."""
    U = simplify(U)
    if cfg.method == "rk4":
        return _linear_rk4(lambdify(U, env), grid.xs, phi0, dphi0)
    ufn = lambdify(U, env, scalar=True)

    def rhs(x, y):
        return (y[1], ufn(x) * y[0])

    return _integrate(rhs, grid, (phi0, dphi0), cfg)


def integrate_vdp(bundle: "TransformBundle", grid: Grid, psi0: float,
                  dpsi0: float, cfg: IntegratorConfig = DEFAULT_CONFIG,
                  env: Mapping[str, float] | None = None) -> Trajectory:
    """Directly integrate the full nonlinear equation carried by a bundle.
    This is the oracle route: it never sees the substitution algebra."""
    p = bundle.params
    vfn = lambdify(simplify(bundle.v), env, scalar=True)
    hfn = lambdify(simplify(bundle.h), env, scalar=True)
    gfn = lambdify(simplify(bundle.g), env, scalar=True)
    ffn = lambdify(simplify(bundle.f), env, scalar=True)
    mu, beta, alpha = p.mu, p.beta, p.alpha

    def rhs(x, y):
        psi, dpsi = y
        dd = (mu * (beta - psi * psi) * dpsi - alpha * psi
              + vfn(x) * psi ** 2 + hfn(x) * psi ** 3 + gfn(x) * psi ** 4
              + ffn(x))
        return (dpsi, dd)

    return _integrate(rhs, grid, (psi0, dpsi0), cfg)


# ---------------------------------------------------------------------------
# the substitution map

def cole_hopf_map(P: Expr, phi: Trajectory, U: Expr | None = None,
                  pole_tol: float = DEFAULT_POLE_TOL,
                  env: Mapping[str, float] | None = None) -> Trajectory:
    """psi = P + phi'/phi, sampled on phi's grid.

    Zeros of phi are movable poles of psi: points where |phi| drops below
    pole_tol times the running maximum are excluded, sign changes of phi
    are bracketed (bisecting the dense output or the closed form when
    available) and segments are split there.  Poles are data, not errors.

    When U is supplied, psi' is computed through phi'' = U phi; otherwise
    it falls back to five-point finite differences of the psi samples.
    """
    xs = phi.xs
    vals = phi.values
    P = simplify(P)
    pfn = lambdify(P, env)
    dpfn = lambdify(simplify(diff(P)), env)

    finite = np.isfinite(vals)
    runmax = np.maximum.accumulate(np.where(finite, np.abs(vals), 0.0))
    runmax = np.maximum(runmax, 1e-300)
    keep = finite & (np.abs(vals) >= pole_tol * runmax)

    with np.errstate(all="ignore"):
        w = phi.derivatives / vals
        psi = pfn(xs) + w
        if U is not None:
            dpsi = dpfn(xs) + lambdify(simplify(U), env)(xs) - w * w
        else:
            dpsi = _fd_first(psi, float(xs[1] - xs[0]))
    keep &= np.isfinite(psi)

    # sign changes between finite samples that lie inside phi's segments
    usable = np.zeros_like(finite)
    for i0, i1 in phi.segments:
        usable[i0:i1] = True
    usable &= finite
    with np.errstate(all="ignore"):
        crossing = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    cuts = np.flatnonzero(usable[:-1] & usable[1:] & crossing)
    brackets = [_refine_zero(phi, i) for i in cuts.tolist()]

    segments = []
    for i0, i1 in _runs(keep):
        start = i0
        for i in cuts[(cuts >= i0) & (cuts < i1 - 1)].tolist():
            segments.append((start, i + 1))
            start = i + 1
        segments.append((start, i1))

    psi_expr = None
    if phi.expr is not None:
        psi_expr = simplify(P + diff(phi.expr) / phi.expr)

    return Trajectory(xs=xs, values=np.where(keep, psi, np.nan),
                      derivatives=np.where(keep, dpsi, np.nan),
                      segments=segments, pole_brackets=brackets,
                      expr=psi_expr)


def _refine_zero(phi: Trajectory, i: int, width: float = 1e-10) -> tuple[float, float]:
    a, b = float(phi.xs[i]), float(phi.xs[i + 1])
    if phi.dense is not None:
        f = lambda x: float(phi.dense(x)[0])
    elif phi.expr is not None:
        f = lambdify(phi.expr, scalar=True)
    else:
        return (a, b)
    fa = f(a)
    if fa == 0.0:
        return (a, a)
    for _ in range(200):
        if b - a <= width:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return (m, m)
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return (a, b)


def _fd_first(y: np.ndarray, h: float) -> np.ndarray:
    """Five-point central first derivative; ends filled with nan."""
    out = np.full_like(y, np.nan)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    return out


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
        return {"x_start": self.x_start, "x_end": self.x_end,
                "n_points": self.n_points, "max_abs": self.max_abs,
                "l2": self.l2}


@dataclass(frozen=True)
class ResidualReport:
    segments: tuple[SegmentResidual, ...]
    max_abs: float
    guard_tol: float
    skipped_segments: int

    def to_dict(self) -> dict:
        return {"segments": [s.to_dict() for s in self.segments],
                "max_abs": self.max_abs, "guard_tol": self.guard_tol,
                "skipped_segments": self.skipped_segments}


def _residual_core(traj: Trajectory, rfun, guard_tol: float) -> ResidualReport:
    """Shared residual machinery.  rfun(x, psi, dpsi, ddpsi) -> R array.

    Closed-form trajectories are differentiated exactly; sampled ones use
    five-point stencils (two points trimmed at each segment end).  A guard
    band of width guard_tol in x is excluded around every pole bracket;
    segments too short for the stencil are skipped and counted."""
    xs = traj.xs
    if traj.expr is not None:
        d1e = simplify(diff(traj.expr))
        d2e = simplify(diff(d1e))
        psi_all = lambdify(traj.expr)(xs)
        dpsi_all = lambdify(d1e)(xs)
        ddpsi_all = lambdify(d2e)(xs)
        trim = 0
    else:
        h = float(xs[1] - xs[0])
        psi_all = traj.values
        dpsi_all = traj.derivatives
        trim = 2

    stats = []
    skipped = 0
    overall = 0.0
    for i0, i1 in traj.segments:
        if i1 - i0 < max(5, 2 * trim + 1):
            skipped += 1
            continue
        sl = slice(i0, i1)
        x = xs[sl]
        psi = psi_all[sl]
        dpsi = dpsi_all[sl]
        if traj.expr is not None:
            ddpsi = ddpsi_all[sl]
        else:
            ddpsi = _fd_second(psi, h)
        with np.errstate(all="ignore"):
            R = rfun(x, psi, dpsi, ddpsi)
        ok = np.isfinite(R)
        if trim:
            ok[:trim] = False
            ok[-trim:] = False
        for (a, b) in traj.pole_brackets:
            ok &= (x < a - guard_tol) | (x > b + guard_tol)
        if not ok.any():
            skipped += 1
            continue
        Rok = np.abs(R[ok])
        seg_max = float(np.max(Rok))
        seg_l2 = float(np.sqrt(np.trapezoid(R[ok] ** 2, x[ok]))) if ok.sum() > 1 \
            else seg_max
        stats.append(SegmentResidual(float(x[ok][0]), float(x[ok][-1]),
                                     int(ok.sum()), seg_max, seg_l2))
        overall = max(overall, seg_max)
    if not stats:
        raise SegmentTooShortError(
            "no segment long enough for the residual stencils")
    return ResidualReport(segments=tuple(stats), max_abs=overall,
                          guard_tol=guard_tol, skipped_segments=skipped)


def residual(bundle: "TransformBundle", traj: Trajectory,
             guard_tol: float = DEFAULT_GUARD_TOL,
             env: Mapping[str, float] | None = None) -> ResidualReport:
    """Residual of the full nonlinear equation on a trajectory:
    R = psi'' - mu (beta - psi^2) psi' + alpha psi - v psi^2 - h psi^3
        - g psi^4 - f."""
    p = bundle.params
    vfn = lambdify(simplify(bundle.v), env)
    hfn = lambdify(simplify(bundle.h), env)
    gfn = lambdify(simplify(bundle.g), env)
    ffn = lambdify(simplify(bundle.f), env)

    def rfun(x, psi, dpsi, ddpsi):
        return (ddpsi - p.mu * (p.beta - psi ** 2) * dpsi + p.alpha * psi
                - vfn(x) * psi ** 2 - hfn(x) * psi ** 3 - gfn(x) * psi ** 4
                - ffn(x))

    return _residual_core(traj, rfun, guard_tol)


def lienard_residual(c: Sequence[Expr], b: Sequence[Expr], traj: Trajectory,
                     guard_tol: float = DEFAULT_GUARD_TOL,
                     env: Mapping[str, float] | None = None) -> ResidualReport:
    """Residual of psi'' + (sum c_i psi^i) psi' + sum b_i psi^i = 0."""
    cfns = [lambdify(simplify(ci), env) for ci in c]
    bfns = [lambdify(simplify(bi), env) for bi in b]

    def rfun(x, psi, dpsi, ddpsi):
        damping = sum(fn(x) * psi ** i for i, fn in enumerate(cfns))
        restoring = sum(fn(x) * psi ** i for i, fn in enumerate(bfns))
        return ddpsi + damping * dpsi + restoring

    return _residual_core(traj, rfun, guard_tol)


# ---------------------------------------------------------------------------
# trajectory comparison

@dataclass(frozen=True)
class ErrorMetrics:
    linf: float
    rel_linf: float
    rel_l2: float
    n_points: int

    def to_dict(self) -> dict:
        return {"linf": self.linf, "rel_linf": self.rel_linf,
                "rel_l2": self.rel_l2, "n_points": self.n_points}


def compare(a: Trajectory, b: Trajectory) -> ErrorMetrics:
    """Pointwise error metrics over the intersection of pole-free segments,
    resampling b onto a's grid by cubic interpolation when the grids differ.
    Relative metrics are floored at scale 1."""
    diffs = []
    avals = []
    bvals = []
    for ia0, ia1 in a.segments:
        for ib0, ib1 in b.segments:
            lo = max(a.xs[ia0], b.xs[ib0])
            hi = min(a.xs[ia1 - 1], b.xs[ib1 - 1])
            if hi <= lo:
                continue
            sel = (a.xs >= lo) & (a.xs <= hi)
            sel[:ia0] = False
            sel[ia1:] = False
            if not sel.any():
                continue
            x = a.xs[sel]
            ya = a.values[sel]
            bx = b.xs[ib0:ib1]
            by = b.values[ib0:ib1]
            if len(bx) == len(a.xs[sel]) and np.array_equal(bx, x):
                yb = by
            elif len(bx) >= 4:
                from scipy.interpolate import CubicSpline
                yb = CubicSpline(bx, by)(x)
            else:
                yb = np.interp(x, bx, by)
            good = np.isfinite(ya) & np.isfinite(yb)
            diffs.append(np.abs(ya[good] - yb[good]))
            avals.append(ya[good])
            bvals.append(yb[good])
    if not diffs or not np.concatenate(diffs).size:
        raise DisjointSegmentsError("no overlapping pole-free region")
    d = np.concatenate(diffs)
    ya = np.concatenate(avals)
    yb = np.concatenate(bvals)
    scale = np.maximum(1.0, np.maximum(np.abs(ya), np.abs(yb)))
    linf = float(np.max(d))
    rel_linf = float(np.max(d / scale))
    rel_l2 = float(np.sqrt(np.sum(d ** 2)) / max(1.0, np.sqrt(np.sum(ya ** 2))))
    return ErrorMetrics(linf=linf, rel_linf=rel_linf, rel_l2=rel_l2,
                        n_points=int(d.size))


# ---------------------------------------------------------------------------
# serialization and grid utilities

def trajectory_csv(traj: Trajectory) -> str:
    """CSV with header x,value,derivative,segment; one row per grid point
    inside a pole-free segment, floats as shortest round-trip decimals.
    Pole brackets appear as comment lines."""
    lines = ["x,value,derivative,segment"]
    for (a, b) in traj.pole_brackets:
        lines.append(f"# pole [{float(a)!r},{float(b)!r}]")
    for seg_id, (i0, i1) in enumerate(traj.segments):
        rows = zip(traj.xs[i0:i1].tolist(), traj.values[i0:i1].tolist(),
                   traj.derivatives[i0:i1].tolist())
        lines.extend(f"{x!r},{v!r},{d!r},{seg_id}" for x, v, d in rows)
    return "\n".join(lines) + "\n"


def regular_window(exprs: Sequence[Expr], x0: float, x1: float,
                   cap: float = 1e6, n: int = 2001,
                   env: Mapping[str, float] | None = None,
                   margin: float = 0.05) -> tuple[float, float]:
    """Largest subinterval of [x0, x1] on which every expression stays
    finite and below cap in magnitude, shrunk by a relative margin at both
    ends.  Raises if nothing usable remains."""
    xs = np.linspace(x0, x1, n)
    good = np.ones(n, dtype=bool)
    for e in exprs:
        vals = lambdify(simplify(e), env)(xs)
        good &= np.isfinite(vals) & (np.abs(vals) <= cap)
    best = max(_runs(good), key=lambda r: r[1] - r[0], default=None)
    if best is None or best[1] - best[0] < 2:
        raise ValueError("no regular subinterval found")
    a, b = xs[best[0]], xs[best[1] - 1]
    pad = margin * (b - a)
    if b - a - 2 * pad <= 0:
        raise ValueError("regular subinterval too small")
    return float(a + pad), float(b - pad)
