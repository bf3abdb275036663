"""Command-line front end.

Subcommands build bundles (catalog cases, a custom shift, a seeded
potential, a Lienard instance), integrate, verify and write deterministic
artifacts: bundle JSON with the discrepancy ledger, phi/psi trajectory CSV
and a residual report.  Exit codes: 0 success, 1 usage, 2 expression
parse/eval failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .colehopf import (TransformBundle, VdpParams, bundle_from_json,
                       bundle_to_dict, seeded_construction, solve_chain,
                       verify_annihilation, verify_printed_coeffs)
from .expr import Expr, ExprError, parse, subst
from .lienard import lienard_coeffs, lienard_spec_to_dict, riccati_u
from .odesolve import (Grid, IntegratorConfig, StepUnderflowError, Trajectory,
                       cole_hopf_map, integrate_linear, lienard_residual,
                       residual, trajectory_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXPR = 2
EXIT_VERIFY = 3

# finite differencing of sampled trajectories cannot reach the closed-form
# residual floor; the gate reflects which route produced psi''
RESIDUAL_GATE_SYMBOLIC = 1e-8
RESIDUAL_GATE_SAMPLED = 1e-6

ANNIHILATION_GATE = 1e-9


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


@dataclass
class RunConfig:
    """Validated invocation: one subcommand plus everything it may need."""

    subcommand: str
    mu: float
    beta: float
    alpha: float
    P: str | None
    s: str | None
    branch: str
    k_sign: int
    C1: float
    C2: float
    C3: float
    C4: float
    c: float
    a: float
    c0: str | None
    c1: str | None
    c2: str | None
    U: str | None
    riccati: bool
    x0: float
    x1: float
    n: int
    rtol: float
    atol: float
    pole_tol: float
    guard_tol: float
    residual_tol: float | None
    phi0: float
    dphi0: float
    out: Path
    fmt: str
    method: str
    bundle_path: Path | None

    def validate(self) -> None:
        if not (self.x1 > self.x0):
            raise UsageError(f"need x1 > x0, got [{self.x0}, {self.x1}]")
        if self.n < 2:
            raise UsageError(f"need n >= 2, got {self.n}")
        for name in ("rtol", "atol", "pole_tol", "guard_tol"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")

    @property
    def params(self) -> VdpParams:
        return VdpParams(self.mu, self.beta, self.alpha)

    @property
    def grid(self) -> Grid:
        return Grid(self.x0, self.x1, self.n)

    @property
    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol,
                                method=self.method)

    @property
    def constants(self) -> dict[str, float]:
        return {"C1": self.C1, "C2": self.C2, "C3": self.C3, "C4": self.C4,
                "c": self.c, "a": self.a}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="vdplin", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--x0", type=float, default=0.0)
        p.add_argument("--x1", type=float, default=5.0)
        p.add_argument("--n", type=int, default=501)
        p.add_argument("--rtol", type=float, default=None,
                       help="adaptive integrator relative tolerance "
                            "(default 1e-9; env VDP_RTOL overrides, flag wins)")
        p.add_argument("--atol", type=float, default=1e-12)
        p.add_argument("--pole-tol", type=float, default=1e-8)
        p.add_argument("--guard-tol", type=float, default=1e-2)
        p.add_argument("--residual-tol", type=float, default=None,
                       help="residual gate; defaults to 1e-8 for closed-form "
                            "trajectories, 1e-6 for sampled ones")
        p.add_argument("--phi0", type=float, default=1.0)
        p.add_argument("--dphi0", type=float, default=0.0)
        p.add_argument("--C1", type=float, default=0.0)
        p.add_argument("--C2", type=float, default=0.0)
        p.add_argument("--C3", type=float, default=1.0)
        p.add_argument("--C4", type=float, default=1.0)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--out", type=Path, default=Path("."))
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--method", choices=("rk4", "adaptive"), default="rk4",
                       help="linear integrator; the fixed-step default keeps "
                            "the discretization error smooth so the finite-"
                            "difference residual check stays meaningful")

    for name in ("case1", "case2", "case3"):
        p = sub.add_parser(name, help=f"catalog {name} pipeline")
        common(p)
        if name == "case1":
            p.add_argument("--k-sign", choices=("plus", "minus"),
                           default="plus")

    p = sub.add_parser("custom", help="solve the chain for a given shift P")
    common(p)
    p.add_argument("--P", required=True)

    p = sub.add_parser("seeded", help="seeded potential construction")
    common(p)
    p.add_argument("--s", required=True)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")

    p = sub.add_parser("lienard", help="polynomial Lienard pipeline")
    common(p)
    p.add_argument("--c0", default="0")
    p.add_argument("--c1", default="0")
    p.add_argument("--c2", default="0")
    p.add_argument("--P", required=True)
    p.add_argument("--U", default=None)
    p.add_argument("--riccati", action="store_true",
                   help="set U = P^2 - P' and require b0 to vanish")

    p = sub.add_parser("verify", help="re-verify a stored bundle")
    common(p)
    p.add_argument("--bundle", type=Path, required=True)

    return parser


def _resolve_rtol(flag_value: float | None) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("VDP_RTOL")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise UsageError(f"VDP_RTOL is not a number: {env!r}") from None
    return 1e-9


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        subcommand=ns.subcommand,
        mu=ns.mu, beta=ns.beta, alpha=ns.alpha,
        P=getattr(ns, "P", None), s=getattr(ns, "s", None),
        branch=getattr(ns, "branch", "plus"),
        k_sign=1 if getattr(ns, "k_sign", "plus") == "plus" else -1,
        C1=ns.C1, C2=ns.C2, C3=ns.C3, C4=ns.C4, c=ns.c, a=ns.a,
        c0=getattr(ns, "c0", None), c1=getattr(ns, "c1", None),
        c2=getattr(ns, "c2", None), U=getattr(ns, "U", None),
        riccati=getattr(ns, "riccati", False),
        x0=ns.x0, x1=ns.x1, n=ns.n,
        rtol=_resolve_rtol(ns.rtol), atol=ns.atol,
        pole_tol=ns.pole_tol, guard_tol=ns.guard_tol,
        residual_tol=ns.residual_tol,
        phi0=ns.phi0, dphi0=ns.dphi0,
        out=ns.out, fmt=ns.fmt, method=ns.method,
        bundle_path=getattr(ns, "bundle", None),
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# output helpers

def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode())


def _trajectory_text(traj: Trajectory, fmt: str) -> tuple[str, str]:
    if fmt == "json":
        doc = {
            "x": traj.xs.tolist(),
            "value": [v if math.isfinite(v) else None
                      for v in traj.values.tolist()],
            "derivative": [v if math.isfinite(v) else None
                           for v in traj.derivatives.tolist()],
            "segments": [list(s) for s in traj.segments],
            "pole_brackets": [list(b) for b in traj.pole_brackets],
        }
        return json.dumps(doc, indent=2) + "\n", "json"
    return trajectory_csv(traj), "csv"


def _emit_run(cfg: RunConfig, bundle: TransformBundle, phi: Trajectory,
              psi: Trajectory, report, extra: dict | None = None) -> None:
    _write(cfg.out / "bundle.json", json.dumps(bundle_to_dict(bundle),
                                               indent=2) + "\n")
    for name, traj in (("phi", phi), ("psi", psi)):
        text, ext = _trajectory_text(traj, cfg.fmt)
        _write(cfg.out / f"{name}.{ext}", text)
    doc = {"residual": report.to_dict()}
    if extra:
        doc.update(extra)
    _write(cfg.out / "residual.json", json.dumps(doc, indent=2) + "\n")


def _parse_expr(text: str, what: str) -> Expr:
    try:
        return parse(text)
    except ExprError as err:
        raise ExprError(f"{what}: {err}") from err


def _residual_gate(cfg: RunConfig, traj: Trajectory) -> float:
    if cfg.residual_tol is not None:
        return cfg.residual_tol
    return (RESIDUAL_GATE_SYMBOLIC if traj.expr is not None
            else RESIDUAL_GATE_SAMPLED)


# ---------------------------------------------------------------------------
# subcommands

def _run_case(cfg: RunConfig) -> None:
    params = cfg.params
    if cfg.subcommand == "case1":
        sol = catalog.case1(params, cfg.k_sign)
    elif cfg.subcommand == "case2":
        sol = catalog.case2(params)
    else:
        sol = catalog.case3(params, cfg.c)
    bundle = sol.bundle

    if sol.phi is not None:
        phi_expr = subst(sol.phi, {"C3": cfg.C3, "C4": cfg.C4})
        phi = Trajectory.from_expr(phi_expr, cfg.grid)
    else:
        phi = integrate_linear(bundle.U, cfg.grid, cfg.phi0, cfg.dphi0,
                               cfg.integrator)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U, pole_tol=cfg.pole_tol)
    report = residual(bundle, psi, guard_tol=cfg.guard_tol)
    bundle = bundle.with_entries(verify_printed_coeffs(
        bundle.P, bundle.U, params, bundle.v, bundle.h, bundle.g, bundle.f))
    _emit_run(cfg, bundle, phi, psi, report)
    gate = _residual_gate(cfg, psi)
    if report.max_abs > gate:
        raise VerificationFailure(
            f"residual {report.max_abs:g} above gate {gate:g}")


def _run_custom_or_seeded(cfg: RunConfig) -> None:
    params = cfg.params
    if cfg.subcommand == "custom":
        P = subst(_parse_expr(cfg.P, "--P"), cfg.constants)
        bundle = solve_chain(P, params)
    else:
        s = subst(_parse_expr(cfg.s, "--s"), cfg.constants)
        bundle = seeded_construction(s, params, cfg.branch)
    bundle = bundle.with_entries(verify_printed_coeffs(
        bundle.P, bundle.U, params, bundle.v, bundle.h, bundle.g, bundle.f))

    phi = integrate_linear(bundle.U, cfg.grid, cfg.phi0, cfg.dphi0,
                           cfg.integrator)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U, pole_tol=cfg.pole_tol)
    report = residual(bundle, psi, guard_tol=cfg.guard_tol)
    _emit_run(cfg, bundle, phi, psi, report)
    gate = _residual_gate(cfg, psi)
    if report.max_abs > gate:
        raise VerificationFailure(
            f"residual {report.max_abs:g} above gate {gate:g}")


def _run_lienard(cfg: RunConfig) -> None:
    env = cfg.constants
    c = [subst(_parse_expr(text, f"--c{i}"), env)
         for i, text in enumerate((cfg.c0, cfg.c1, cfg.c2))]
    P = subst(_parse_expr(cfg.P, "--P"), env)
    if cfg.riccati:
        U = riccati_u(P)
    elif cfg.U is not None:
        U = subst(_parse_expr(cfg.U, "--U"), env)
    else:
        raise UsageError("lienard needs --riccati or --U <expr>")

    spec = lienard_coeffs(c, P, U, grid=cfg.grid.xs)
    phi = integrate_linear(spec.U, cfg.grid, cfg.phi0, cfg.dphi0,
                           cfg.integrator)
    psi = cole_hopf_map(spec.P, phi, U=spec.U, pole_tol=cfg.pole_tol)
    report = lienard_residual(spec.c, spec.b, psi, guard_tol=cfg.guard_tol)

    extra = {}
    if cfg.riccati:
        from .expr import lambdify
        b0 = np.max(np.abs(lambdify(spec.b[0])(cfg.grid.xs)))
        extra["b0_max"] = float(b0)
    _write(cfg.out / "lienard.json",
           json.dumps(lienard_spec_to_dict(spec), indent=2) + "\n")
    for name, traj in (("phi", phi), ("psi", psi)):
        text, ext = _trajectory_text(traj, cfg.fmt)
        _write(cfg.out / f"{name}.{ext}", text)
    doc = {"residual": report.to_dict()}
    doc.update(extra)
    _write(cfg.out / "residual.json", json.dumps(doc, indent=2) + "\n")

    if cfg.riccati and extra["b0_max"] > ANNIHILATION_GATE:
        raise VerificationFailure(
            f"Riccati potential left b0 at {extra['b0_max']:g}")
    gate = _residual_gate(cfg, psi)
    if report.max_abs > gate:
        raise VerificationFailure(
            f"residual {report.max_abs:g} above gate {gate:g}")


def _run_verify(cfg: RunConfig) -> None:
    bundle = bundle_from_json(cfg.bundle_path.read_text())
    ann = verify_annihilation(bundle, cfg.grid)
    phi = integrate_linear(bundle.U, cfg.grid, cfg.phi0, cfg.dphi0,
                           cfg.integrator)
    psi = cole_hopf_map(bundle.P, phi, U=bundle.U, pole_tol=cfg.pole_tol)
    report = residual(bundle, psi, guard_tol=cfg.guard_tol)
    doc = {
        "annihilation": ann.to_dict(),
        "residual": report.to_dict(),
        "ledger": [e.to_dict() for e in bundle.ledger],
    }
    _write(cfg.out / "verify.json", json.dumps(doc, indent=2) + "\n")
    if not ann.passed:
        raise VerificationFailure(
            f"annihilation failed: max|a_i| = {max(ann.max_abs):g}")
    gate = _residual_gate(cfg, psi)
    if report.max_abs > gate:
        raise VerificationFailure(
            f"residual {report.max_abs:g} above gate {gate:g}")


def run(argv: list[str]) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = config_from_args(ns)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if cfg.subcommand in ("case1", "case2", "case3"):
            _run_case(cfg)
        elif cfg.subcommand in ("custom", "seeded"):
            _run_custom_or_seeded(cfg)
        elif cfg.subcommand == "lienard":
            _run_lienard(cfg)
        elif cfg.subcommand == "verify":
            _run_verify(cfg)
        else:  # pragma: no cover
            raise UsageError(f"unknown subcommand {cfg.subcommand!r}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ExprError, catalog.CatalogError, StepUnderflowError,
            FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EXPR
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
