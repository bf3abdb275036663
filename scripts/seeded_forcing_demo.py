#!/usr/bin/env python3
"""Seeded construction demo: pick the potential through a seed function,
recover the forcing that makes the perturbed equation linearizable, and
check the produced trajectory by residual.

Two seeds: a linear ramp (polynomial forcing, both shift branches) and
tan(x) (oscillatory forcing, no closed-form linear solution).

Usage: python scripts/seeded_forcing_demo.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from vdplin import (Grid, IntegratorConfig, VdpParams, cole_hopf_map,
                    integrate_linear, residual, seeded_construction,
                    trajectory_csv)
from vdplin.expr import lambdify, parse, subst, to_str

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/seeded")

CFG = IntegratorConfig(method="rk4")


def run(tag, seed_text, params, branch, grid, consts=None):
    seed = subst(parse(seed_text), consts or {})
    bundle = seeded_construction(seed, params, branch)
    phi = integrate_linear(bundle.U, grid, 1.0, 0.0, CFG)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
    rep = residual(bundle, psi)

    xs = grid.xs
    fvals = lambdify(bundle.f)(xs)
    header = "x,forcing"
    rows = [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, fvals)]
    (OUT / f"{tag}.forcing.csv").write_text("\n".join([header] + rows) + "\n")
    (OUT / f"{tag}.psi.csv").write_bytes(trajectory_csv(psi)[0])

    print(f"{tag} ({branch} branch): P = {to_str(bundle.P)}")
    print(f"  potential U = {to_str(bundle.U)}")
    print(f"  forcing range [{np.min(fvals):+.4f}, {np.max(fvals):+.4f}], "
          f"residual max {rep.max_abs:.2e}")
    for e in bundle.ledger:
        print(f"  ledger {e.check}: "
              f"{'agrees' if e.agrees else e.max_abs_diff}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    params = VdpParams(1.0, 1.2, 0.5)
    run("ramp-plus", "a*x", params, "plus", Grid(0.0, 4.0, 2001),
        {"a": 0.4})
    run("ramp-minus", "a*x", params, "minus", Grid(0.0, 4.0, 2001),
        {"a": 0.4})
    run("tan", "tan(x)", params, "plus", Grid(-0.6, 0.6, 1201))
    print(f"\nartifacts in {OUT}/")


if __name__ == "__main__":
    main()
