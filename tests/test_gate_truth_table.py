"""The sampled residual gate's truth table on an input whose answer is known.

phi'' = -phi from (phi, phi') = (1, 0) is phi = cos x, so at P = 0 the map
gives psi = phi'/phi = -tan x, with poles at (k + 1/2) pi.  Its Lienard
spec is c = 0 with the b that wcalc derives for P = 0 and U = -1, and the
gate is the CLI's 1e-6 for a sampled residual.  A right row integrates U
and must pass the gate; a wrong row integrates U (1 + 1e-6), is checked
against the spec's own (c, b) and must fail it.  Beside each verdict a row
reports psi's true relative error and the largest distance of a pole
bracket from its pole (a pole of the equation the row integrates), so that
the verdict can be read against the answer it judged.  A right row that fails today is a strict xfail naming its
defect: the change that mends the defect turns it into an XPASS, which
fails the run until the mark goes.  This is the method of manufactured
solutions (Roache, *Verification and Validation in Computational Science
and Engineering*, 1998).
"""

import math
from functools import cache
from itertools import count
from typing import NamedTuple

import numpy as np
import pytest

from vdplin.cli import RESIDUAL_GATE_SAMPLED
from vdplin.expr import Const
from vdplin.odesolve import (Grid, IntegratorConfig, cole_hopf_map,
                             integrate_linear, lienard_residual)
from vdplin.wcalc import restoring_coeffs

C = (Const(0.0),) * 3
U = Const(-1.0)
DELTA = 1e-6  # a wrong row's relative error in U

STENCIL_FLOOR = ("the five-point stencil's eps/h^2 roundoff floor fails a "
                 "right answer on a fine grid")
DENSE_OUTPUT = ("the stencil differentiates the Dormand-Prince dense "
                "output, which is smooth only within a step")
NEAR_POLES = ("the stencil's truncation error, about h^4/d^7 at distance d "
              "from a pole, fails a right answer near the poles")


class Row(NamedTuple):
    method: str
    n: int
    x1: float
    delta: float


class Outcome(NamedTuple):
    residual: float
    rel_error: float  # psi against -tan x, floored at scale 1
    poles: int
    bracket_distance: float  # the largest, 0 with no pole of the row's U

    @property
    def passes(self) -> bool:
        return self.residual <= RESIDUAL_GATE_SAMPLED


@cache
def _run(row: Row) -> Outcome:
    # the CLI's tolerances for the adaptive integrator; RK4 ignores them
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12, method=row.method)
    grid = Grid(0.0, row.x1, row.n)
    phi = integrate_linear(Const(-(1.0 + row.delta)), grid, 1.0, 0.0, cfg)
    psi = cole_hopf_map(Const(0.0), phi, U=U)
    report = lienard_residual(C, restoring_coeffs(C, Const(0.0), U), psi)
    ok = np.isfinite(psi.values)
    true = -np.tan(psi.xs[ok])
    rel = np.abs(psi.values[ok] - true) / np.maximum(1.0, np.abs(true))
    # phi = cos(w x) with w = sqrt(1 + delta) has its poles at (k + 1/2) pi/w
    w = math.sqrt(1.0 + row.delta)
    distance = max((max(abs(lo - p), abs(hi - p)) for (lo, hi), p in zip(
        psi.pole_brackets, ((k + 0.5) * math.pi / w for k in count()))),
        default=0.0)
    return Outcome(report.max_abs, float(np.max(rel)),
                   len(psi.pole_brackets), distance)


def _right(method, n, x1, defect=None):
    marks = () if defect is None else pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=defect)
    return pytest.param(Row(method, n, x1, 0.0), marks=marks,
                        id=f"right-{method}-n{n}-x1_{x1:g}")


def _wrong(method, n, x1):
    return pytest.param(Row(method, n, x1, DELTA),
                        id=f"wrong-{method}-n{n}-x1_{x1:g}")


# each row's comment is the residual it reads today
ROWS = [
    # pole-free: [0, 1.4] stops short of pi/2
    _right("rk4", 2001, 1.4),  # 4.3e-7
    _right("rk4", 20001, 1.4, STENCIL_FLOOR),  # 1.08e-6
    _right("rk4", 100001, 1.4, STENCIL_FLOOR),  # 3.2e-5
    _right("adaptive", 2001, 1.4, DENSE_OUTPUT),  # 1.41e-6
    _right("adaptive", 20001, 1.4, DENSE_OUTPUT),  # 2.87e-6
    # the floor alone fails it, as the RK4 row on this grid shows
    _right("adaptive", 100001, 1.4, STENCIL_FLOOR),  # 6.5e-5
    # 13 poles on [0, 40]
    _right("rk4", 2001, 40.0, NEAR_POLES),  # 5.6e5
    _right("rk4", 20001, 40.0, NEAR_POLES),  # 9.45e3
    _right("rk4", 100001, 40.0, NEAR_POLES),  # 20.4
    _right("adaptive", 2001, 40.0, NEAR_POLES),  # 5.6e5
    _right("adaptive", 20001, 40.0, NEAR_POLES),  # 1.57e4
    _right("adaptive", 100001, 40.0, NEAR_POLES),  # 20.6
    # U (1 + 1e-6): 1.1e-5 to 7.6e-5 on [0, 1.4], 20 to 5.8e5 on [0, 40]
    *(_wrong(method, n, x1) for x1 in (1.4, 40.0)
      for method in ("rk4", "adaptive") for n in (2001, 20001, 100001)),
]


@pytest.mark.parametrize("row", [p.values[0] for p in ROWS],
                         ids=[p.id for p in ROWS])
def test_each_row_is_what_it_claims(row):
    # a right row's psi is -tan x to within its integrator's error, with
    # every pole found and bracketed within a grid step of it; a wrong
    # row's psi is off by about DELTA, which the gate has to see
    out = _run(row)
    h = Grid(0.0, row.x1, row.n).spacing
    assert out.poles == (13 if row.x1 == 40.0 else 0)
    assert out.bracket_distance <= h
    if row.method == "adaptive":
        assert out.bracket_distance <= 1e-9
    if row.delta:
        assert out.rel_error >= DELTA
    else:
        assert out.rel_error <= 1e-4


@pytest.mark.parametrize("row", ROWS)
def test_the_gate_passes_right_rows_and_fails_wrong_ones(row):
    out = _run(row)
    print(f"{row}: residual {out.residual:.3g}, psi rel error "
          f"{out.rel_error:.3g}, {out.poles} poles, brackets within "
          f"{out.bracket_distance:.2g}")
    assert out.passes is not bool(row.delta), out
