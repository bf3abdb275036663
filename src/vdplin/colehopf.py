"""The solve-for chain behind the generalized Cole-Hopf substitution.

For the perturbed Van der Pol equation

    psi'' = mu (beta - psi^2) psi' - alpha psi
            + v(x) psi^2 + h(x) psi^3 + g(x) psi^4 + f(x)

and the substitution psi = P(x) + phi'/phi with phi'' = U(x) phi, requiring
the reduced coefficients a_1..a_4 to vanish fixes g, h, v and U in terms of
P, and a_0 = 0 then defines the forcing f.  Here g, h, v and U are that
solution typed in as closed forms; they are not derived by the reduction
engine in :mod:`vdplin.wcalc`, only checked against it by sampling
(``verify_annihilation`` evaluates the engine's a_0..a_4 on a grid).  The
forcing f is the engine's a_0, and hand-derived reference formulas are
kept as cross-checks whose outcome is recorded in a discrepancy ledger
carried by the bundle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import Const, Expr, as_expr, diff, lambdify, parse, simplify, to_str
from .wcalc import CoeffSet, reduce_vdp

__all__ = [
    "VdpParams", "TransformBundle", "LedgerEntry", "AnnihilationReport",
    "SingularGridError", "BundleFormatError", "solve_chain", "seeded_construction",
    "verify_annihilation", "verify_printed_coeffs", "compare_forms",
    "reference_coefficient_forms", "reference_forcing_form",
    "bundle_to_json", "bundle_from_json", "DEFAULT_CHECK_POINTS",
]

DEFAULT_CHECK_POINTS = np.linspace(0.0, 5.0, 1000)

ANNIHILATION_TOL = 1e-9
# an engine-derived coefficient (a_i, Lienard b_i) against its transcribed
# closed form
PRINTED_COEFF_TOL = 1e-10


class SingularGridError(Exception):
    """A verification grid point hit a singularity of the bundle."""

    def __init__(self, xs: Sequence[float], what: str):
        locs = ", ".join(f"{x:g}" for x in list(xs)[:5])
        super().__init__(f"{what} is singular at grid points [{locs}...]")
        self.xs = list(xs)


class BundleFormatError(ValueError):
    """A bundle document does not have the shape bundle_to_dict writes."""


@dataclass(frozen=True)
class VdpParams:
    """Scalar coefficients of the unperturbed equation
    psi'' = mu (beta - psi^2) psi' - alpha psi."""

    mu: float
    beta: float
    alpha: float

    def __post_init__(self):
        for name in ("mu", "beta", "alpha"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not np.isfinite(self.mu * self.beta):
            raise ex.ExprError(f"mu*beta = {self.mu!r}*{self.beta!r} "
                               "overflows a float")


@dataclass(frozen=True)
class LedgerEntry:
    """Outcome of one reference-form cross-check.

    ``agrees`` is None when the comparison could not be evaluated (free
    parameters or no regular grid points)."""

    check: str
    agrees: bool | None
    max_abs_diff: float | None
    tol: float
    points: int
    reference: str = ""
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "agrees": self.agrees,
            "max_abs_diff": self.max_abs_diff,
            "tol": self.tol,
            "points": self.points,
            "reference": self.reference,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(check=d["check"], agrees=d["agrees"],
                   max_abs_diff=d["max_abs_diff"], tol=d["tol"],
                   points=d["points"], reference=d.get("reference", ""),
                   note=d.get("note", ""))


@dataclass(frozen=True)
class TransformBundle:
    """One linearizable instance: the shift P, potential U, the coefficient
    functions (g, h, v, f) they induce, and the cross-check ledger."""

    P: Expr
    U: Expr
    g: Expr
    h: Expr
    v: Expr
    f: Expr
    params: VdpParams
    ledger: tuple[LedgerEntry, ...] = field(default_factory=tuple)

    def with_entries(self, entries: Sequence[LedgerEntry]) -> "TransformBundle":
        return replace(self, ledger=self.ledger + tuple(entries))

    def coefficients(self) -> CoeffSet:
        return reduce_vdp(self.P, self.U, self.params, self.v, self.h,
                          self.g, self.f)


@dataclass(frozen=True)
class AnnihilationReport:
    max_abs: tuple[float, float, float, float, float]
    tol: float
    n_points: int
    passed: bool

    def to_dict(self) -> dict:
        return {"max_abs": list(self.max_abs), "tol": self.tol,
                "n_points": self.n_points, "passed": self.passed}


def _grid_xs(grid) -> np.ndarray:
    if grid is None:
        return DEFAULT_CHECK_POINTS
    if hasattr(grid, "xs"):
        return np.asarray(grid.xs, dtype=float)
    return np.asarray(grid, dtype=float)


def compare_forms(check: str, derived: Expr, reference: Expr,
                  grid=None, tol: float = ANNIHILATION_TOL) -> LedgerEntry:
    """Evaluate a derived and a reference expression on a grid and record
    the largest pointwise difference.  Points where either side is not
    finite (poles, domain edges) are masked out."""
    xs = _grid_xs(grid)
    ref_str = to_str(simplify(reference))
    try:
        d = lambdify(derived)(xs)
        r = lambdify(reference)(xs)
    except ex.UnboundParameterError as err:
        return LedgerEntry(check, None, None, tol, 0, ref_str,
                           f"not evaluated: {err}")
    mask = np.isfinite(d) & np.isfinite(r)
    if not mask.any():
        return LedgerEntry(check, None, None, tol, 0, ref_str,
                           "not evaluated: no regular grid points")
    gap = float(np.max(np.abs(d[mask] - r[mask])))
    return LedgerEntry(check, gap <= tol, gap, tol, int(mask.sum()), ref_str)


# ---------------------------------------------------------------------------
# reference forms (transcribed closed-form expressions, used only as checks)

def reference_coefficient_forms(P: Expr, U: Expr, params: VdpParams, v: Expr,
                                h: Expr, g: Expr, f: Expr) -> tuple[Expr, ...]:
    """The commonly quoted closed forms for a_0..a_4 of the reduced
    identity, transcribed verbatim.  The engine never uses these; they are
    assertions checked against reduce_vdp."""
    mu = Const(params.mu)
    beta = Const(params.beta)
    alpha = Const(params.alpha)
    mb = Const(params.mu * params.beta)
    dP = diff(P)
    ddP = diff(dP)
    dU = diff(U)
    a4 = -mu - g
    a3 = -(2.0 * mu + 4.0 * g) * P - h + 2.0
    a2 = mu * dP - (6.0 * g + mu) * P ** 2 - 3.0 * h * P - v + mu * U + mb
    a1 = (-4.0 * g * P ** 3 - 3.0 * h * P ** 2
          + (2.0 * mu * dP - 2.0 * v + 2.0 * mu * U) * P - 2.0 * U + alpha)
    a0 = (ddP + mu * (P ** 2 - beta) * dP + dU - g * P ** 4 - h * P ** 3
          + (mu * U - v) * P ** 2 + alpha * P - mb * U - f)
    return (a0, a1, a2, a3, a4)


def reference_forcing_form(P: Expr, params: VdpParams) -> Expr:
    """Closed form of the forcing induced by a_0 = 0 once g, h, v, U have
    been substituted; kept as a cross-check of the engine-derived f."""
    mu = Const(params.mu)
    beta = Const(params.beta)
    alpha = Const(params.alpha)
    mb = Const(params.mu * params.beta)
    dP = diff(P)
    ddP = diff(dP)
    return (ddP - 2.0 * mb * dP + (6.0 * dP + alpha + mu ** 2 * beta ** 2) * P
            + 4.0 * (P - mb) * P ** 2 - mb * alpha / 2.0)


# ---------------------------------------------------------------------------
# the chain

def solve_chain(P: Expr, params: VdpParams, grid=None) -> TransformBundle:
    """Build the unique TransformBundle for a given shift function P.

    g, h, v and U are the closed forms that annihilate a_4..a_1, typed in
    below rather than solved for; nothing here checks them, and
    ``verify_annihilation`` tests them by sampling the engine's a_1..a_4.
    f is the a_0 the engine produces with f = 0, so a_0 = 0 holds by
    construction.  The reference closed form for f is evaluated against
    the derived one on ``grid`` (1000 points on [0, 5] by default) and the
    outcome recorded in the bundle ledger.  Total: never raises for
    differentiable P."""
    P = simplify(as_expr(P))
    mu = Const(params.mu)
    mb = Const(params.mu * params.beta)

    g = Const(-params.mu)
    h = simplify(2.0 * (mu * P + 1.0))
    U = simplify(3.0 * P ** 2 - mb * P + Const(params.alpha / 2.0))
    dP = simplify(diff(P))
    v = simplify(mu * dP + mu * U - (mu * P + 6.0) * P + mb)

    base = reduce_vdp(P, U, params, v, h, g, Const(0.0))
    f = simplify(base.a0)

    entry = compare_forms("forcing-from-a0-vs-reference-closed-form", f,
                          reference_forcing_form(P, params), grid)
    return TransformBundle(P=P, U=U, g=g, h=h, v=v, f=f, params=params,
                           ledger=(entry,))


def seeded_construction(s: Expr, params: VdpParams, branch: str = "plus",
                        grid=None) -> TransformBundle:
    """Reverse-direction construction: pick the potential first.

    For an arbitrary smooth seed s, U = 3 s^2 - mu*beta*s + alpha/2 is
    realized by either shift P = s ("plus") or P = -s + mu*beta/3
    ("minus").  Both branches delegate to solve_chain; the claim that the
    minus branch reproduces the same potential is re-checked numerically
    and recorded in the ledger."""
    s = simplify(as_expr(s))
    if branch == "plus":
        P = s
    elif branch == "minus":
        P = simplify(-s + Const(params.mu * params.beta / 3.0))
    else:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    bundle = solve_chain(P, params, grid=grid)
    seed_potential = simplify(3.0 * s ** 2 - Const(params.mu * params.beta) * s
                              + Const(params.alpha / 2.0))
    entry = compare_forms(f"seed-potential-match-{branch}-branch", bundle.U,
                          seed_potential, grid, tol=1e-12)
    return bundle.with_entries([entry])


# ---------------------------------------------------------------------------
# verification

def verify_annihilation(bundle: TransformBundle, grid) -> AnnihilationReport:
    """Recompute a_0..a_4 from the bundle through the engine and report the
    max of |a_i| on the grid.  Grid points hitting a singularity raise."""
    xs = _grid_xs(grid)
    coeffs = bundle.coefficients()
    maxes = []
    for i, a in enumerate(coeffs.as_tuple()):
        vals = lambdify(a)(xs)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise SingularGridError(xs[bad], f"coefficient a{i}")
        maxes.append(float(np.max(np.abs(vals))))
    t = tuple(maxes)
    return AnnihilationReport(max_abs=t, tol=ANNIHILATION_TOL,
                              n_points=len(xs),
                              passed=all(m <= ANNIHILATION_TOL for m in t))


def verify_printed_coeffs(P: Expr, U: Expr, params: VdpParams, v: Expr,
                          h: Expr, g: Expr, f: Expr,
                          grid=None) -> list[LedgerEntry]:
    """Compare the engine's a_0..a_4 against the transcribed reference
    forms, pointwise on the grid.  Returns one ledger entry per
    coefficient; the differences are data, whatever they turn out to be."""
    engine = reduce_vdp(P, U, params, v, h, g, f).as_tuple()
    reference = reference_coefficient_forms(P, U, params, v, h, g, f)
    return [compare_forms(f"reduced-coefficient-a{i}", engine[i], reference[i],
                          grid, tol=PRINTED_COEFF_TOL)
            for i in range(5)]


# ---------------------------------------------------------------------------
# serialization

def bundle_to_dict(bundle: TransformBundle) -> dict:
    return {
        "params": {"mu": bundle.params.mu, "beta": bundle.params.beta,
                   "alpha": bundle.params.alpha},
        "P": to_str(bundle.P),
        "U": to_str(bundle.U),
        "g": to_str(bundle.g),
        "h": to_str(bundle.h),
        "v": to_str(bundle.v),
        "f": to_str(bundle.f),
        "ledger": [e.to_dict() for e in bundle.ledger],
    }


def bundle_to_json(bundle: TransformBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


def bundle_from_dict(d: dict) -> TransformBundle:
    """Rebuild a bundle; a document of the wrong shape raises
    ``BundleFormatError``, an expression that does not parse ``ParseError``."""
    try:
        if not isinstance(d, dict):
            raise TypeError("not a JSON object")
        params = VdpParams(mu=float(d["params"]["mu"]),
                           beta=float(d["params"]["beta"]),
                           alpha=float(d["params"]["alpha"]))
        return TransformBundle(
            P=parse(d["P"]), U=parse(d["U"]), g=parse(d["g"]), h=parse(d["h"]),
            v=parse(d["v"]), f=parse(d["f"]), params=params,
            ledger=tuple(map(LedgerEntry.from_dict, d.get("ledger", []))),
        )
    except (KeyError, TypeError, ValueError) as err:
        problem = f"missing field {err}" if isinstance(err, KeyError) else err
        raise BundleFormatError(f"malformed bundle: {problem}") from None


def bundle_from_json(text: str) -> TransformBundle:
    return bundle_from_dict(json.loads(text))
