"""The transcribed reference forms as data: each printed text, read into
``wcalc``'s ring, against the ``Expr`` builder it replaced, kept here
verbatim as a reference; the gaps between derivation and reference, pinned
exactly with sympy; and the ledger entries those gaps decide without
compiling anything."""

from fractions import Fraction

import numpy as np
import pytest

from vdplin import colehopf, wcalc
from vdplin.colehopf import VdpParams, solve_chain, verify_printed_coeffs
from vdplin.expr import ZERO, Const, as_expr, diff, lambdify, parse
from vdplin.lienard import lienard_coeffs

from conftest import general_instances

RNG = np.random.default_rng(19)
XS = np.linspace(0.1, 2.5, 241)
POOL = ["sin(x)/2", "cos(x)+2", "x^2/4", "exp(x/5)", "1+x", "x/(3+x^2)",
        "sinh(x/3)", "0.3", "-1.7"]

# ---------------------------------------------------------------------------
# references


def reference_coefficient_forms(P, U, params, v, h, g, f):
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


def reference_forcing_form(P, params):
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


def reference_restoring_forms(c, P, U):
    """Transcribed reference closed forms for b_0..b_4; checks only."""
    c0, c1, c2 = (as_expr(ci) for ci in c)
    dP = diff(P)
    ddP = diff(dP)
    dU = diff(U)
    b4 = c2
    b3 = c1 - 2.0 * c2 * P + 2.0
    b2 = c2 * P ** 2 - 2.0 * (3.0 - c1) * P - c2 * (dP - U) + c0
    b1 = (6.0 + c1) * P ** 2 - 2.0 * c0 * P - c1 * dP - (c1 + 2.0) * U
    b0 = ddP - c0 * dP + dU - 2.0 * P ** 3 + 2.0 * P * U + c0 * (P ** 2 - U)
    return (b0, b1, b2, b3, b4)


# ---------------------------------------------------------------------------
# the texts against the builders


def _picks(n):
    return [parse(POOL[i]) for i in RNG.integers(0, len(POOL), n)]


def _assert_same_samples(ring, built):
    assert len(ring) == len(built)
    for i, (r, b) in enumerate(zip(ring, built)):
        want = lambdify(b)(XS)
        assert np.all(np.isfinite(want)), i
        np.testing.assert_allclose(lambdify(r)(XS), want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)),
                                   err_msg=str(i))


@pytest.mark.parametrize("trial", range(8))
def test_ring_references_sample_as_their_builders(trial):
    P, U, v, h, g, f = _picks(6)
    c, b = _picks(3), _picks(5)
    params = VdpParams(*map(float, RNG.uniform(-2.0, 2.0, 3)))

    def ring(kind, *instance):
        return [r for r, _ in wcalc.reference_gaps(kind, *instance)]

    _assert_same_samples(ring("vdp", P, U, *params.lienard(v, h, g, f)),
                         reference_coefficient_forms(P, U, params, v, h, g,
                                                     f))
    _assert_same_samples(ring("forcing", P, ZERO,
                              *params.lienard(0.0, 0.0, 0.0, 0.0)),
                         [reference_forcing_form(P, params)])
    _assert_same_samples(ring("lienard", P, U, c, b),
                         reference_restoring_forms(c, P, U))


# ---------------------------------------------------------------------------
# the gaps


def test_gaps_pinned_with_sympy():
    # the ring's gap, and derived minus the text read by sympy, equal the
    # gap stated by hand
    sp = pytest.importorskip("sympy")
    names = "w ddP dP P dU U c0 c1 c2 b0 b1 b2 b3 b4".split()
    gens = sp.symbols(names)
    _, ddP, dP, P, dU, U, c0, c1, c2, b0, b1, b2, b3, b4 = gens
    aliases = {"mu": c2, "mb": -c0, "alpha": b1, "v": -b2, "h": -b3,
               "g": -b4, "f": -b0}

    def to_sympy(p):
        return sum((sp.Rational(Fraction(k)) * sp.Mul(*(gens[g] for g in m))
                    for m, k in p.items()), sp.Integer(0))

    derived = {"vdp": [wcalc._subst(a, {wcalc.C1: {}})
                       for a in wcalc._reduced()],
               "forcing": [wcalc._chain()["f"]],
               "lienard": wcalc._restoring()}
    stated = {"vdp": [0] * 5, "forcing": [0],
              "lienard": [4 * P ** 3 - 4 * P * U - 2 * ddP - 2 * dU,
                          4 * U - 12 * P ** 2,
                          (12 - 4 * c1) * P - 2 * c2 * U,
                          -4,
                          0]}
    for kind, want in stated.items():
        gaps = wcalc._gaps(kind)
        texts = wcalc._REFERENCE_FORMS[kind]
        assert len(gaps) == len(texts) == len(want)
        for d, (_, gap), text, w in zip(derived[kind], gaps, texts, want):
            read = sp.sympify(text.replace("^", "**"),
                              locals={**dict(zip(names, gens)), **aliases})
            assert sp.expand(to_sympy(d) - read - w) == 0, (kind, text)
            assert sp.expand(to_sympy(gap) - w) == 0, (kind, text)
        # read into the ring once per process
        assert wcalc._gaps(kind) is gaps


def test_zero_and_numeric_gaps_compile_nothing(monkeypatch):
    compiled = []
    real = colehopf.lambdify

    def recording(e, **kw):
        compiled.append(e)
        return real(e, **kw)

    monkeypatch.setattr(colehopf, "lambdify", recording)
    (params, P), = general_instances(1, seed=5)
    b = solve_chain(P, params)
    entries = b.ledger + tuple(verify_printed_coeffs(b.P, b.U, params, b.v,
                                                     b.h, b.g, b.f))
    # constant P and U: every Lienard gap folds to a number
    spec = lienard_coeffs([Const(0.4), Const(-0.2), Const(0.3)], Const(0.7),
                          Const(1.5))
    assert compiled == []
    for e in entries + spec.ledger:
        assert (e.points, e.note) == (0, "exact"), e.check
    assert [e.agrees for e in spec.ledger] == [False] * 4 + [True]
    assert spec.ledger[3].max_abs_diff == 4.0

    # a gap still a function of x is one tape, sampled against 0
    spec = lienard_coeffs([Const(0.4), parse("x/4"), Const(0.3)],
                          parse("x/5"), parse("cos(x)"))
    assert [e for e in compiled if e is not ZERO] == [
        gap for _, gap in wcalc.reference_gaps(
            "lienard", spec.P, spec.U, spec.c, (0.0,) * 5)[:3]]
    assert [e.note for e in spec.ledger] == ["", "", "", "exact", "exact"]
