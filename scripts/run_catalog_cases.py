#!/usr/bin/env python3
"""Build the three closed-form catalog families, write their artifacts and
print what the discrepancy ledger found.

Usage: python scripts/run_catalog_cases.py [outdir]
"""

import json
import sys
from pathlib import Path

from vdplin import (Grid, Trajectory, VdpParams, case1, case2, case3,
                    cole_hopf_map, residual, trajectory_csv)
from vdplin.colehopf import bundle_to_json
from vdplin.expr import subst

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/catalog")

RUNS = [
    ("case1", lambda: case1(VdpParams(2.0, 1.0, 0.75))),
    ("case2", lambda: case2(VdpParams(2.0, 2.0, 4.0))),
    ("case3", lambda: case3(VdpParams(1.0, 1.0, 0.0), c=1.0)),
]


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    grid = Grid(0.0, 5.0, 501)
    for name, build in RUNS:
        sol = build()
        bundle = sol.bundle
        phi = Trajectory.from_expr(subst(sol.phi, {"C3": 1.0, "C4": 1.0}),
                                   grid)
        psi = cole_hopf_map(bundle.P, phi, U=bundle.U)
        rep = residual(bundle, psi)

        (OUT / f"{name}.bundle.json").write_text(bundle_to_json(bundle))
        with open(OUT / f"{name}.phi.csv", "wb") as phi_csv, \
                open(OUT / f"{name}.psi.csv", "wb") as psi_csv:
            trajectory_csv(phi, psi, out=(phi_csv, psi_csv))
        (OUT / f"{name}.residual.json").write_text(
            json.dumps(rep.to_dict(), indent=2) + "\n")

        print(f"{name}: residual max {rep.max_abs:.2e}")
        for e in bundle.ledger:
            if e.agrees is False:
                gap = (f"max diff {e.max_abs_diff:.3g}"
                       if e.max_abs_diff is not None else e.note)
                print(f"  DISCREPANCY {e.check}: {gap}")
        agree = sum(1 for e in bundle.ledger if e.agrees)
        print(f"  {agree}/{len(bundle.ledger)} reference checks agree")
    print(f"\nartifacts in {OUT}/")


if __name__ == "__main__":
    main()
