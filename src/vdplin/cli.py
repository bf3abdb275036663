"""Command-line front end.

Every subcommand runs one pipeline: build -> integrate -> map -> residual
-> emit -> gate.  Only build depends on the subcommand, and it returns data,
not callbacks: P, U, the closed-form phi of case1-3, the Lienard (c, b)
whose residual is measured (VdpParams.lienard's for a Van der Pol run), the
spec to write (a bundle with its ledger, or a Lienard spec), the report
document and the gates failed before the residual gate (b0 for lienard
--riccati, annihilation for verify).  A run writes the spec, the phi/psi
trajectories and a residual report; verify writes verify.json.
Exit codes: 0 success, 1 usage, 2 expression parse/eval failure or
unusable input file, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import catalog
from .colehopf import (ANNIHILATION_TOL, BundleFormatError,
                       SingularGridError, VdpParams, bundle_from_json,
                       bundle_to_dict, seeded_construction, solve_chain,
                       verify_annihilation, verify_printed_coeffs)
from .expr import Expr, ExprError, lambdify, parse, subst
from .lienard import lienard_coeffs, lienard_spec_to_dict, riccati_u
from .odesolve import (DEFAULT_GUARD_TOL, DEFAULT_POLE_TOL, Grid,
                       IntegratorConfig, NonFiniteCoefficientError,
                       SegmentTooShortError, StepUnderflowError, Trajectory,
                       cole_hopf_map, integrate_linear, lienard_residual,
                       trajectory_csv, trajectory_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXPR = 2
EXIT_VERIFY = 3

# finite differencing of sampled trajectories cannot reach the closed-form
# residual floor; the gate reflects which route produced psi''
RESIDUAL_GATE_SYMBOLIC = 1e-8
RESIDUAL_GATE_SAMPLED = 1e-6


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


# the options the subcommands share, in --help order; True marks the model
# options, which only the run subcommands take (verify reads its model from
# the bundle and writes no trajectories)
_SHARED_OPTIONS = (
    (True, "--mu", dict(type=float, default=1.0)),
    (True, "--beta", dict(type=float, default=1.0)),
    (True, "--alpha", dict(type=float, default=0.0)),
    (False, "--x0", dict(type=float, default=0.0)),
    (False, "--x1", dict(type=float, default=5.0)),
    (False, "--n", dict(type=int, default=501)),
    # tight enough for the sampled residual gate on the adaptive route
    (False, "--rtol", dict(
        type=float, default=1e-12,
        help="adaptive integrator relative tolerance (default 1e-12)")),
    (False, "--atol", dict(type=float, default=1e-12)),
    (False, "--pole-tol", dict(type=float, default=DEFAULT_POLE_TOL)),
    (False, "--guard-tol", dict(type=float, default=DEFAULT_GUARD_TOL)),
    (False, "--residual-tol", dict(
        type=float, default=None,
        help="residual gate; defaults to 1e-8 for closed-form "
             "trajectories, 1e-6 for sampled ones")),
    (False, "--phi0", dict(type=float, default=1.0)),
    (False, "--dphi0", dict(type=float, default=0.0)),
    (True, "--C1", dict(type=float, default=0.0)),
    (True, "--C2", dict(type=float, default=0.0)),
    (True, "--C3", dict(type=float, default=1.0)),
    (True, "--C4", dict(type=float, default=1.0)),
    (True, "--c", dict(type=float, default=1.0)),
    (True, "--a", dict(type=float, default=1.0)),
    (False, "--out", dict(type=Path, default=Path("."))),
    (True, "--format", dict(dest="fmt", choices=("csv", "json"),
                            default="csv")),
    (False, "--method", dict(
        choices=("rk4", "adaptive"), default="rk4",
        help="linear integrator; the fixed-step default keeps the "
             "discretization error smooth so the finite-difference "
             "residual check stays meaningful")),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="vdplin", description=(
        "Solve the perturbed Van der Pol equation through the substitution "
        "psi = P + phi'/phi, phi'' = U phi: a run subcommand builds one "
        "instance, integrates phi, maps it to psi, checks the residual and "
        "writes its files to --out; verify checks a stored bundle again. "
        "Exit codes: 0 success, 1 usage error, 2 expression parse/eval "
        "failure or unusable input file, 3 verification failure."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_options = argparse.ArgumentParser(add_help=False)
    verify_options = argparse.ArgumentParser(add_help=False)
    for model, flag, kwargs in _SHARED_OPTIONS:
        run_options.add_argument(flag, **kwargs)
        if not model:
            verify_options.add_argument(flag, **kwargs)

    def add(name: str, text: str, shared=run_options):
        return sub.add_parser(name, help=text, parents=[shared])

    for name in ("case1", "case2", "case3"):
        p = add(name, f"catalog {name} pipeline")
        if name == "case1":
            p.add_argument("--k-sign", choices=("plus", "minus"),
                           default="plus")

    p = add("custom", "solve the chain for a given shift P")
    p.add_argument("--P", required=True)

    p = add("seeded", "seeded potential construction")
    p.add_argument("--s", required=True)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")

    p = add("lienard", "polynomial Lienard pipeline")
    p.add_argument("--c0", default="0")
    p.add_argument("--c1", default="0")
    p.add_argument("--c2", default="0")
    p.add_argument("--P", required=True)
    p.add_argument("--U", default=None)
    p.add_argument("--riccati", action="store_true",
                   help="set U = P^2 - P' and require b0 to vanish")

    p = add("verify", "re-verify a stored bundle", verify_options)
    p.add_argument("--bundle", type=Path, required=True)

    return parser


# run() parses with one parser per process; parse_args leaves it unchanged
_parser = cache(build_parser)


def _check_args(ns: argparse.Namespace) -> tuple[Grid, IntegratorConfig]:
    """Refuse values no run can use; returns the run's grid and integrator
    configuration."""
    try:
        grid = Grid(ns.x0, ns.x1, ns.n)
        cfg = IntegratorConfig(rtol=ns.rtol, atol=ns.atol, method=ns.method)
    except ValueError as err:
        raise UsageError(str(err)) from None
    for name in ("mu", "beta", "alpha", "C1", "C2", "C3", "C4", "c", "a",
                 "phi0", "dphi0"):
        # verify takes no model options
        if not math.isfinite(getattr(ns, name, 0.0)):
            raise UsageError(f"{name} must be finite")
    for name in ("pole_tol", "guard_tol", "residual_tol"):
        value = getattr(ns, name)
        if value is not None and not value > 0:  # nan fails too
            raise UsageError(f"{name} must be positive")
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{name} must be finite")
    return grid, cfg


# ---------------------------------------------------------------------------
# output helpers

def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


# every file a subcommand can write into --out
_ARTIFACTS = ("bundle.json", "lienard.json", "phi.csv", "psi.csv",
              "phi.json", "psi.json", "residual.json", "verify.json")


def _emit_run(ns: argparse.Namespace, spec_name: str, spec: dict,
              phi: Trajectory, psi: Trajectory, report_doc: dict) -> None:
    """Write a run's spec, trajectories and residual report, and remove the
    artifacts of other runs, so --out holds only this run's files."""
    printer = trajectory_json if ns.fmt == "json" else trajectory_csv
    phi_data, psi_data = printer(phi, psi)
    files = {spec_name: _json_bytes(spec), f"phi.{ns.fmt}": phi_data,
             f"psi.{ns.fmt}": psi_data,
             "residual.json": _json_bytes(report_doc)}
    for name, data in files.items():
        _write(ns.out / name, data)
    for name in _ARTIFACTS:
        if name not in files:
            (ns.out / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# the pipeline

def _build(ns: argparse.Namespace, grid: Grid):
    """Returns ``(P, U, phi_expr, (c, b), spec, doc, failures)``: the
    closed-form phi or None; the Lienard coefficients whose residual the
    run measures; the spec's (file name, document), None for verify; the
    report document, whose "residual" slot the pipeline fills; and the
    messages of the gates that failed before the residual gate."""
    def flag_expr(name: str) -> Expr:
        constants = {k: getattr(ns, k)
                     for k in ("C1", "C2", "C3", "C4", "c", "a")}
        try:
            return subst(parse(getattr(ns, name)), constants)
        except ExprError as err:
            raise ExprError(f"--{name}: {err}") from err

    doc, failures = {"residual": None}, []
    if ns.subcommand == "lienard":
        if ns.riccati and ns.U is not None:
            raise UsageError("lienard takes --riccati or --U <expr>, not both")
        c = [flag_expr(f"c{i}") for i in range(3)]
        P = flag_expr("P")
        if ns.riccati:
            U = riccati_u(P)
        elif ns.U is not None:
            U = flag_expr("U")
        else:
            raise UsageError("lienard needs --riccati or --U <expr>")
        lien = lienard_coeffs(c, P, U, grid=grid.xs)
        if ns.riccati:
            b0 = float(np.max(np.abs(lambdify(lien.b[0])(grid.xs))))
            doc["b0_max"] = b0
            if b0 > ANNIHILATION_TOL:
                failures.append(f"Riccati potential left b0 at {b0:g}")
        return (lien.P, lien.U, None, (lien.c, lien.b),
                ("lienard.json", lienard_spec_to_dict(lien)), doc, failures)

    phi_expr, spec = None, None
    if ns.subcommand == "verify":
        bundle = bundle_from_json(ns.bundle.read_text())
        ann = verify_annihilation(bundle, grid)
        doc = {"annihilation": ann.to_dict(), "residual": None,
               "ledger": [e.to_dict() for e in bundle.ledger]}
        if not ann.passed:
            failures.append(
                f"annihilation failed: max|a_i| = {max(ann.max_abs):g}")
    else:
        params = VdpParams(ns.mu, ns.beta, ns.alpha)
        if ns.subcommand == "custom":
            bundle = solve_chain(flag_expr("P"), params)
        elif ns.subcommand == "seeded":
            bundle = seeded_construction(flag_expr("s"), params, ns.branch)
        else:
            if ns.subcommand == "case1":
                sol = catalog.case1(params, 1 if ns.k_sign == "plus" else -1)
            elif ns.subcommand == "case2":
                sol = catalog.case2(params)
            else:
                sol = catalog.case3(params, ns.c)
            bundle = sol.bundle
            if sol.phi is not None:
                phi_expr = subst(sol.phi, {"C3": ns.C3, "C4": ns.C4})
        bundle = bundle.with_entries(verify_printed_coeffs(
            bundle.P, bundle.U, params, bundle.v, bundle.h, bundle.g,
            bundle.f))
        spec = ("bundle.json", bundle_to_dict(bundle))
    return (bundle.P, bundle.U, phi_expr,
            bundle.params.lienard(bundle.v, bundle.h, bundle.g, bundle.f),
            spec, doc, failures)


def _pipeline(ns: argparse.Namespace, grid: Grid,
              cfg: IntegratorConfig) -> None:
    P, U, phi_expr, (c, b), spec, doc, failures = _build(ns, grid)
    if phi_expr is not None:
        phi = Trajectory.from_expr(phi_expr, grid)
    elif ns.phi0 == 0.0 and ns.dphi0 == 0.0:
        raise UsageError("phi0 and dphi0 are both 0: phi would vanish "
                         "everywhere, and psi = P + phi'/phi with it")
    else:
        phi = integrate_linear(U, grid, ns.phi0, ns.dphi0, cfg)
    psi = cole_hopf_map(P, phi, U=U, pole_tol=ns.pole_tol)
    report = lienard_residual(c, b, psi, guard_tol=ns.guard_tol)
    doc["residual"] = report.to_dict()
    if spec is None:
        _write(ns.out / "verify.json", _json_bytes(doc))
    else:
        _emit_run(ns, *spec, phi, psi, doc)
    gate = ns.residual_tol or (RESIDUAL_GATE_SAMPLED if psi.expr is None
                               else RESIDUAL_GATE_SYMBOLIC)
    if report.max_abs > gate:
        failures.append(f"residual {report.max_abs:g} above gate {gate:g}")
    if failures:
        raise VerificationFailure(failures[0])


def run(argv: list[str]) -> int:
    try:
        ns = _parser().parse_args(argv)
        _pipeline(ns, *_check_args(ns))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ExprError, catalog.CatalogError, StepUnderflowError,
            SingularGridError, BundleFormatError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EXPR
    except RecursionError:  # a parse deeper than the stack
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_EXPR
    except (VerificationFailure, SegmentTooShortError,
            NonFiniteCoefficientError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
