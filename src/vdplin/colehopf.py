"""The solve-for chain behind the generalized Cole-Hopf substitution.

For the perturbed Van der Pol equation

    psi'' = mu (beta - psi^2) psi' - alpha psi
            + v(x) psi^2 + h(x) psi^3 + g(x) psi^4 + f(x)

and the substitution psi = P(x) + phi'/phi with phi'' = U(x) phi, requiring
the reduced coefficients a_1..a_4 to vanish fixes g, h, v and U in terms of
P, and a_0 = 0 then defines the forcing f; :mod:`vdplin.wcalc` derives all
five exactly.  Hand-derived reference formulas are kept as cross-checks
whose outcome is recorded in a discrepancy ledger carried by the bundle.
Every check follows one rule, ``gap_entries``': its gap, derived -
reference, decides it exactly when it folds to a number, as the ring's
gaps of a_0..a_4, f and the seeded U and the catalog's constant rows do,
and is sampled on a grid otherwise.
``verify_annihilation`` decides a bundle exactly too when its fields are
the chain's own for its P, as every bundle ``solve_chain`` writes is, and
samples a_0..a_4 for any other.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import ZERO, Const, Expr, as_expr, lambdify, parser, printer
from .wcalc import jet, reduce_vdp, reference_gaps, vdp_chain

__all__ = [
    "VdpParams", "TransformBundle", "LedgerEntry", "AnnihilationReport",
    "SingularGridError", "BundleFormatError", "solve_chain", "seeded_construction",
    "verify_annihilation", "verify_printed_coeffs", "compare_forms",
    "gap_entries", "bundle_to_json", "bundle_from_json", "DEFAULT_CHECK_POINTS",
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

    def lienard(self, v, h, g, f) -> tuple[tuple, tuple]:
        """The Van der Pol equation with coefficient functions v, h, g, f
        as the Lienard equation psi'' + (c0 + c1 psi + c2 psi^2) psi'
        + sum_i b_i psi^i = 0:

            c = (-mu beta, 0, mu),  b = (-f, alpha, -v, -h, -g).

        v, h, g and f may be Exprs or floats; the parameters enter as
        floats."""
        return ((-self.mu * self.beta, 0.0, self.mu),
                (-f, self.alpha, -v, -h, -g))


@dataclass(frozen=True)
class LedgerEntry:
    """Outcome of one reference-form cross-check.

    ``agrees`` is None when the comparison could not be evaluated (free
    parameters or no regular grid points).  A check decided exactly, with
    nothing sampled, has ``points`` 0 and ``note`` "exact"."""

    check: str
    agrees: bool | None
    max_abs_diff: float | None
    tol: float
    points: int
    reference: str = ""
    note: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(**{f.name: d[f.name] for f in fields(cls)
                      if f.default is MISSING or f.name in d})

    @classmethod
    def from_samples(cls, check: str, sizes: np.ndarray, tol: float,
                     reference: str) -> "LedgerEntry":
        """The entry of a check sampled as ``sizes``, one |difference| per
        point: its non-finite points (poles, domain edges, overflows) are
        masked out, and it agrees when the largest size left is within
        tol."""
        ok = np.isfinite(sizes)
        if not ok.any():
            return cls(check, None, None, tol, 0, reference,
                       "not evaluated: no regular grid points")
        size = float(np.max(sizes[ok]))
        return cls(check, size <= tol, size, tol, int(ok.sum()), reference)


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


@dataclass(frozen=True)
class AnnihilationReport:
    """The largest |a_i| of the reduced identity on a grid of ``n_points``.
    A bundle decided exactly, with nothing sampled, has every ``max_abs``
    0.0, ``n_points`` 0 and ``note`` "exact", as a ledger entry has."""

    max_abs: tuple[float, float, float, float, float]
    tol: float
    n_points: int
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))


def _grid_xs(grid) -> np.ndarray:
    if grid is None:
        return DEFAULT_CHECK_POINTS
    if hasattr(grid, "xs"):
        return np.asarray(grid.xs, dtype=float)
    return np.asarray(grid, dtype=float)


def compare_forms(check: str, derived: Expr, reference: Expr,
                  tol: float = ANNIHILATION_TOL) -> LedgerEntry:
    """The ledger entry of a derived form against a reference one:
    ``gap_entries``' rule applied to their gap, derived - reference."""
    return gap_entries([check], [(reference, derived - reference)], None,
                       tol)[0]


def gap_entries(checks: Sequence[str], gaps, grid,
                tol: float) -> list[LedgerEntry]:
    """One entry per check and its (reference, derived - reference), as
    ``wcalc.reference_gaps`` gives them.  A gap that folds to a number
    decides the check exactly, with ``max_abs_diff`` its size; any other is
    sampled once on the grid, its non-finite points (poles, domain edges,
    overflows) masked out.  The references print through one printer."""
    xs, print_expr = _grid_xs(grid), printer()
    return [_gap_entry(check, gap, xs, tol, print_expr(reference))
            for check, (reference, gap) in zip(checks, gaps)]


def _gap_entry(check: str, gap: Expr, xs: np.ndarray, tol: float,
               reference: str) -> LedgerEntry:
    if type(gap) is Const:
        size = abs(gap.value)
        return LedgerEntry(check, size <= tol, size, tol, 0, reference,
                           "exact")
    try:
        vals = lambdify(gap)(xs)
    except ex.UnboundParameterError as err:
        return LedgerEntry(check, None, None, tol, 0, reference,
                           f"not evaluated: {err}")
    return LedgerEntry.from_samples(check, np.abs(vals), tol, reference)


# ---------------------------------------------------------------------------
# the chain

def solve_chain(P: Expr, params: VdpParams) -> TransformBundle:
    """The unique TransformBundle for the shift P: g, h, v, U and f are
    ``wcalc.vdp_chain``'s, derived exactly.  The reference closed form for
    f is checked against the derived one by their gap, zero in the ring,
    and ledgered.  Never raises for differentiable P."""
    P = as_expr(P)
    chain = vdp_chain(P, params)
    gaps = reference_gaps("forcing", P, ZERO,
                          *params.lienard(0.0, 0.0, 0.0, 0.0))
    ledger = gap_entries(["forcing-from-a0-vs-reference-closed-form"], gaps,
                         None, ANNIHILATION_TOL)
    return TransformBundle(P=P, params=params, ledger=tuple(ledger), **chain)


def seeded_construction(s: Expr, params: VdpParams,
                        branch: str = "plus") -> TransformBundle:
    """Reverse-direction construction: pick the potential first.

    For an arbitrary smooth seed s, U = 3 s^2 - mu*beta*s + alpha/2 is
    realized by either shift P = s ("plus") or P = -s + mu*beta/3
    ("minus").  Both branches delegate to solve_chain; the claim that the
    shift reproduces that potential is decided exactly, by the ring gap of
    the chain's U to 3 P^2 - mu*beta*P + alpha/2, a form the minus shift
    leaves unchanged, and recorded in the ledger."""
    s = as_expr(s)
    if branch == "plus":
        P = s
    elif branch == "minus":
        P = -s + Const(params.mu * params.beta / 3.0)
    else:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    gaps = reference_gaps("seed", P, ZERO,
                          *params.lienard(0.0, 0.0, 0.0, 0.0))
    return solve_chain(P, params).with_entries(gap_entries(
        [f"seed-potential-match-{branch}-branch"], gaps, None, 1e-12))


# ---------------------------------------------------------------------------
# verification

def verify_annihilation(bundle: TransformBundle, grid) -> AnnihilationReport:
    """The max of |a_i| on the grid.  A bundle whose U, g, h, v and f
    are the very nodes ``wcalc.vdp_chain`` derives for its P has
    a_0..a_4 the zero polynomial in P, P' and P'', so where those are
    finite on the grid it is decided exactly, with nothing built or
    sampled.  Any other bundle has a_0..a_4 recomputed through the engine
    and sampled; grid points hitting a singularity raise."""
    xs = _grid_xs(grid)
    if _is_chain_bundle(bundle, xs):
        return AnnihilationReport(max_abs=(0.0,) * 5, tol=ANNIHILATION_TOL,
                                  n_points=0, passed=True, note="exact")
    coeffs = reduce_vdp(bundle.P, bundle.U, bundle.params, bundle.v,
                        bundle.h, bundle.g, bundle.f)
    maxes = []
    for i, a in enumerate(coeffs):
        vals = lambdify(a)(xs)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise SingularGridError(xs[bad], f"coefficient a{i}")
        maxes.append(float(np.max(np.abs(vals))))
    t = tuple(maxes)
    return AnnihilationReport(max_abs=t, tol=ANNIHILATION_TOL,
                              n_points=len(xs),
                              passed=all(m <= ANNIHILATION_TOL for m in t))


def _is_chain_bundle(bundle: TransformBundle, xs: np.ndarray) -> bool:
    """Whether the fields are the chain's for P, and P's jet is finite on
    xs; an unbound parameter answers no, so the sampled path raises."""
    P = bundle.P
    chain = vdp_chain(P, bundle.params)
    if any(getattr(bundle, name) is not node
           for name, node in chain.items()):
        return False
    try:
        return all(np.isfinite(lambdify(e)(xs)).all() for e in jet(P))
    except ex.UnboundParameterError:
        return False


def verify_printed_coeffs(P: Expr, U: Expr, params: VdpParams, v: Expr,
                          h: Expr, g: Expr, f: Expr) -> list[LedgerEntry]:
    """Check the engine's a_0..a_4 against the transcribed reference
    forms by their gaps (``gap_entries``).  Returns one ledger entry per
    coefficient; the differences are data, whatever they turn out to be."""
    gaps = reference_gaps("vdp", P, U, *params.lienard(v, h, g, f))
    return gap_entries([f"reduced-coefficient-a{i}" for i in range(5)], gaps,
                       None, PRINTED_COEFF_TOL)


# ---------------------------------------------------------------------------
# serialization

def bundle_to_dict(bundle: TransformBundle) -> dict:
    """The bundle as a document; its fields print through one
    ``expr.printer``, so P's text is made once for all of them."""
    print_expr = printer()
    return {
        "params": dict(vars(bundle.params)),
        **{name: print_expr(getattr(bundle, name))
           for name in ("P", "U", "g", "h", "v", "f")},
        "ledger": [e.to_dict() for e in bundle.ledger],
    }


def bundle_to_json(bundle: TransformBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


@contextmanager
def reading_document(d, kind: str):
    """Read the fields of ``d`` in the body; a ``d`` that is not a dict or
    a field missing or wrong raises "malformed <kind>: ...", one error."""
    try:
        if not isinstance(d, dict):
            raise TypeError("not a JSON object")
        yield
    except (KeyError, TypeError, ValueError) as err:
        problem = f"missing field {err}" if isinstance(err, KeyError) else err
        raise BundleFormatError(f"malformed {kind}: {problem}") from None


def bundle_from_dict(d: dict) -> TransformBundle:
    """Rebuild a bundle; a document of the wrong shape raises
    ``BundleFormatError``, an expression that does not parse ``ParseError``."""
    parse = parser()
    with reading_document(d, "bundle"):
        params = VdpParams(**{f.name: float(d["params"][f.name])
                              for f in fields(VdpParams)})
        return TransformBundle(
            P=parse(d["P"]), U=parse(d["U"]), g=parse(d["g"]), h=parse(d["h"]),
            v=parse(d["v"]), f=parse(d["f"]), params=params,
            ledger=tuple(map(LedgerEntry.from_dict, d.get("ledger", []))),
        )


def bundle_from_json(text: str) -> TransformBundle:
    return bundle_from_dict(json.loads(text))
