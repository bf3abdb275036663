"""The four benchmark workloads.

Each workload draws its inputs from the seed, does its set-up once, and then
runs operations in whole cycles of its mix.  An operation checks its own
output and returns an ``Outcome``:

* ``ok`` is false when the program refused (nonzero exit, an exception, its
  own gate reporting failure) or when a check of the benchmark failed;
* ``wrong`` is true only when a check of the benchmark rejected an answer:
  an artifact digest that differs from the same input's first run, a
  round trip above its tolerance, a serialization that does not reproduce
  itself.  A wrong answer also counts as a failed operation.

Failed operations are never timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

ANNIHILATION_TOL = 1e-9
ROUND_TRIP_TOL = 1e-6


@dataclasses.dataclass
class Outcome:
    kind: str
    ok: bool
    wrong: bool = False
    note: str = ""
    seconds: float = 0.0
    ref_s: float = 0.0


# -- input generation ----------------------------------------------------------

def _num(rng: random.Random, lo: float, hi: float) -> float:
    """A value in [lo, hi] with three decimals, so argv stays readable."""
    return math.floor(rng.uniform(lo, hi) * 1000.0) / 1000.0


def _arg(v: float) -> str:
    return repr(float(v))


def cli_mix(rng: random.Random) -> list[tuple[str, list[str]]]:
    """One invocation of each subcommand but verify, inside its valid region:
    case1 needs alpha <= (mu beta)^2/4, case2 alpha = (mu beta)^2/4 and case3
    alpha = 0.  Grids are the CLI defaults except lienard's, which follows
    the documented example (--x1 2 --n 2001)."""
    mix = []
    mu, beta = _num(rng, 0.5, 2.0), _num(rng, 0.5, 2.0)
    mb = mu * beta
    alpha = _num(rng, -1.0, mb * mb / 4.0)
    mix.append(("case1", ["case1", "--mu", _arg(mu), "--beta", _arg(beta),
                          "--alpha", _arg(alpha)]))
    mu, beta = _num(rng, 0.5, 2.0), _num(rng, 0.5, 2.0)
    mb = mu * beta
    mix.append(("case2", ["case2", "--mu", _arg(mu), "--beta", _arg(beta),
                          "--alpha", _arg(mb * mb / 4.0)]))
    mix.append(("case3", ["case3", "--mu", _arg(_num(rng, 0.5, 2.0)),
                          "--beta", _arg(_num(rng, 0.5, 2.0)),
                          "--alpha", "0", "--c", _arg(_num(rng, 0.2, 2.0))]))
    mix.append(("custom", custom_argv(rng)))
    # with a above about 0.5 the 501-point grid no longer resolves the
    # growing solution to the 1e-6 residual gate
    mix.append(("seeded", ["seeded", "--s", "a*x",
                           "--a", _arg(_num(rng, 0.2, 0.45)),
                           "--mu", _arg(_num(rng, 0.5, 1.5)),
                           "--beta", _arg(_num(rng, 0.5, 1.5)),
                           "--alpha", _arg(_num(rng, 0.0, 0.8))]))
    p0, p1, p2 = (_num(rng, 0.2, 0.4), _num(rng, 0.1, 0.3),
                  _num(rng, 0.1, 0.2))
    mix.append(("lienard", ["lienard", "--c0", _arg(_num(rng, 0.2, 0.6)),
                            "--c1", _arg(-_num(rng, 0.1, 0.3)),
                            "--c2", _arg(_num(rng, 0.1, 0.5)),
                            "--P", f"{p0!r} - {p1!r}*x + {p2!r}*x^2",
                            "--riccati", "--x1", "2", "--n", "2001",
                            "--dphi0", _arg(_num(rng, 0.2, 0.4))]))
    return mix


def custom_argv(rng: random.Random) -> list[str]:
    """mu*beta <= 1 keeps U = 3P^2 - mu*beta*P + alpha/2 above -1/12, so phi
    keeps its sign on [0, 5]: a pole there runs into the residual defect
    that fine_grid's custom_poles input shows on purpose."""
    a, b = _num(rng, 0.5, 1.5), _num(rng, 1.5, 3.0)
    return ["custom", "--P", f"{a!r}*x/({b!r}+x^2)",
            "--mu", _arg(_num(rng, 0.5, 1.0)),
            "--beta", _arg(_num(rng, 0.5, 1.0)),
            "--alpha", _arg(_num(rng, 0.0, 0.8))]


def pole_argv(rng: random.Random) -> list[str]:
    """An oscillatory shift on a long window: phi has a dozen or more sign
    changes, so psi has movable poles, brackets and segmented residuals."""
    amp = _num(rng, 0.08, 0.12)
    return ["custom", "--P", f"0.5+{amp!r}*sin(x)", "--mu", "2", "--beta",
            "2", "--alpha", "0", "--x1", "40"]


def vdp_instance(rng: random.Random):
    """Parameters of a general-P instance: mu, beta in [-2, 2] away from
    zero, alpha at or below (mu beta)^2/4, C1, C2 in [-1, 1]."""
    while True:
        mu, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if abs(mu) >= 0.05 and abs(beta) >= 0.05:
            break
    alpha = rng.uniform(-2.0, (mu * beta) ** 2 / 4.0)
    C1, C2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
    k_sign = 1 if rng.random() < 0.5 else -1
    return mu, beta, alpha, C1, C2, k_sign


# -- helpers -------------------------------------------------------------------

def dir_digest(path: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of the files in ``path``, and their
    total size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(path.iterdir()):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def dag_nodes(e) -> int:
    """Distinct node objects reachable from an expression."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if dataclasses.is_dataclass(child):
                stack.append(child)
    return len(seen)


def src_env(root: Path) -> dict:
    """The environment for a child interpreter that imports vdplin from the
    checkout's ``src``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Workload:
    """Base: ``cycle`` operations make one whole mix."""

    name = ""
    cycle = 1
    in_process = True

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    nominal_s = reference.KERNEL_NOMINAL_S

    def reference(self) -> float:
        """Seconds the reference work takes now (see reference.py)."""
        return reference.time_kernel()

    def calibrated(self, seconds: float, ref_s: float) -> float:
        """``seconds`` scaled to a host where the reference takes
        ``nominal_s``."""
        return seconds * self.nominal_s / ref_s

    def count(self, key, value):
        if self.tracer is not None:
            self.tracer.count(key, value)


class _Digests:
    """First-run digest per input; later runs must match it."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def check(self, key: str, digest: str) -> bool:
        return self.first.setdefault(key, digest) == digest


# -- CLI workloads -------------------------------------------------------------

def with_n(argv: list[str], n: str) -> list[str]:
    """A copy of argv with its grid size set to n."""
    argv = list(argv)
    if "--n" in argv:
        argv[argv.index("--n") + 1] = n
    else:
        argv += ["--n", n]
    return argv


class _CliWorkload(Workload):
    """Shared verdict for CLI invocations: the exit code, and the artifact
    digest against the first run of the same input."""

    def outcome(self, kind, code, err, out: Path, seconds) -> Outcome:
        digest, size = dir_digest(out) if out.exists() else ("", 0)
        stable = self.digests.check(kind, digest)
        self.count("cli.bytes_written", size)
        note = "" if code == 0 else f"exit {code}: {err.strip()[-200:]}"
        if not stable:
            note = "artifact digest differs from the first run of this input"
        return Outcome(kind, code == 0 and stable, not stable, note, seconds)


class CliCold(_CliWorkload):
    """Each operation is ``python -m vdplin <sub>`` in a fresh interpreter."""

    name = "cli_cold"
    in_process = False
    nominal_s = reference.IMPORT_NOMINAL_S

    def reference(self) -> float:
        return reference.time_import(self.env)

    def setup(self) -> None:
        self.mix = cli_mix(random.Random(self.seed))
        self.env = src_env(self.root)
        setup_out = self.work / "setup"
        r = subprocess.run([sys.executable, "-m", "vdplin",
                            *dict(self.mix)["custom"], "--out", str(setup_out)],
                           env=self.env, capture_output=True, text=True,
                           timeout=120)
        if r.returncode != 0:
            raise RuntimeError(f"set-up bundle: exit {r.returncode}: "
                               f"{r.stderr.strip()[-500:]}")
        self.mix.append(("verify", ["verify", "--bundle",
                                    str(setup_out / "bundle.json")]))
        self.cycle = len(self.mix)
        self.digests = _Digests()

    def op(self, i: int) -> Outcome:
        kind, argv = self.mix[i % self.cycle]
        out = _fresh(self.work / "op")
        cmd = [sys.executable, "-m", "vdplin"]
        if self.tracer is not None:
            spans = self.work / "child-spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(spans), "--"]
        t0 = perf_counter()
        r = subprocess.run([*cmd, *argv, "--out", str(out)], env=self.env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, timeout=120)
        dt = perf_counter() - t0
        if self.tracer is not None and spans.exists():
            self.tracer.merge(json.loads(spans.read_text()), i)
        return self.outcome(kind, r.returncode, r.stderr, out, dt)


class FineGrid(_CliWorkload):
    """``vdplin.cli.run(argv)`` at --n 20001 in one warm process."""

    name = "fine_grid"
    N = "20001"

    def setup(self) -> None:
        self.cli = importlib.import_module("vdplin.cli")
        rng = random.Random(self.seed)
        mix = dict(cli_mix(rng))
        self.mix = [(kind, with_n(argv, self.N)) for kind, argv in
                    (("custom", mix["custom"]), ("seeded", mix["seeded"]),
                     ("lienard", mix["lienard"]),
                     ("custom_poles", pole_argv(rng)))]
        self.cycle = len(self.mix)
        self.digests = _Digests()
        # warm-up: the first input on a coarse grid
        code, err = self._run(with_n(self.mix[0][1], "501"),
                              _fresh(self.work / "warm"))
        if code != 0:
            raise RuntimeError(f"warm-up: exit {code}: {err}")

    def _run(self, argv, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.run(argv + ["--out", str(out)])
        return code, err.getvalue()

    def op(self, i: int) -> Outcome:
        kind, argv = self.mix[i % self.cycle]
        out = _fresh(self.work / "op")
        t0 = perf_counter()
        code, err = self._run(argv, out)
        dt = perf_counter() - t0
        return self.outcome(kind, code, err, out, dt)


# -- symbolic_batch ------------------------------------------------------------

class SymbolicBatch(Workload):
    """One fresh general-P instance per operation; no integration."""

    name = "symbolic_batch"

    def setup(self) -> None:
        self.vd = importlib.import_module("vdplin")
        warm = self._instance(random.Random(f"warm-{self.seed}"))
        if not warm.ok:
            raise RuntimeError(f"warm-up: {warm.note}")

    def op(self, i: int) -> Outcome:
        return self._instance(random.Random(self.seed * 1_000_003 + i))

    def _instance(self, rng: random.Random) -> Outcome:
        vd = self.vd
        colehopf, odesolve = vd.colehopf, vd.odesolve
        mu, beta, alpha, C1, C2, k_sign = vdp_instance(rng)
        params = colehopf.VdpParams(mu, beta, alpha)
        t0 = perf_counter()
        try:
            P = vd.catalog.p_general(params, C1, C2, k_sign)
            b = colehopf.solve_chain(P, params)
            b = b.with_entries(colehopf.verify_printed_coeffs(
                b.P, b.U, params, b.v, b.h, b.g, b.f))
            k = math.sqrt((mu * beta) ** 2 - 4 * alpha)
            a, c = odesolve.regular_window([P], 0.0, 5.0,
                                           cap=4.0 + abs(mu * beta) + k)
            grid = odesolve.Grid(a, c, 501)
            before = colehopf.verify_annihilation(b, grid)
            text = colehopf.bundle_to_json(b)
            if self.tracer is not None:
                self.tracer.tag = "roundtrip"
            try:
                b2 = colehopf.bundle_from_json(text)
                after = colehopf.verify_annihilation(b2, grid)
            finally:
                if self.tracer is not None:
                    self.tracer.tag = None
            text2 = colehopf.bundle_to_json(b2)
            expr = vd.expr
            cs = [expr.Const(_num(rng, -0.5, 0.5)) for _ in range(3)]
            PL = expr.parse(f"{_num(rng, 0.2, 0.4)!r} - {_num(rng, 0.1, 0.3)!r}*x"
                            f" + {_num(rng, 0.1, 0.2)!r}*x^2")
            xs = odesolve.Grid(0.0, 2.0, 201).xs
            spec = vd.lienard.lienard_coeffs(cs, PL, vd.lienard.riccati_u(PL),
                                             grid=xs)
            b0 = float(abs(expr.lambdify(spec.b[0])(xs)).max())
        except Exception as err:  # the program refused this instance
            return Outcome("general_p", False, False,
                           f"{type(err).__name__}: {err}")
        dt = perf_counter() - t0

        ledger = b.ledger + spec.ledger
        self.count("expr.nodes_f", dag_nodes(b.f))
        self.count("expr.nodes_f_roundtrip", dag_nodes(b2.f))
        self.count("colehopf.ledger_entries", len(ledger))
        self.count("colehopf.ledger_disagree",
                   sum(e.agrees is False for e in ledger))
        self.count("colehopf.ledger_evaluated",
                   sum(e.agrees is not None for e in ledger))

        notes = []
        if not before.passed:
            notes.append(f"annihilation {max(before.max_abs):.3g}")
        if not after.passed:
            notes.append(f"annihilation after round trip {max(after.max_abs):.3g}")
        wrong = []
        if text2 != text:
            wrong.append("round-tripped bundle serializes differently")
        if not b0 <= ANNIHILATION_TOL:
            wrong.append(f"Riccati b0 = {b0:.3g}")
        ok = not notes and not wrong
        return Outcome("general_p", ok, bool(wrong), "; ".join(notes + wrong),
                       dt)


# -- oracle_roundtrip ----------------------------------------------------------

class OracleRoundtrip(Workload):
    """The criterion-2 pipeline on bundles built during set-up."""

    name = "oracle_roundtrip"
    POOL = 16
    BUDGET = 11.0
    # the cost of one pipeline run varies tenfold between bundles, so the
    # bundles are one fixed family of parameters, jittered by the seed:
    # every seed then gets the same spread of costs, and the same tail
    FAMILY_SEED = 20260808
    JITTER = 0.05

    def reference(self) -> float:
        return reference.time_kernel(reference.numpy_kernel)

    def setup(self) -> None:
        self.vd = vd = importlib.import_module("vdplin")
        self.np = importlib.import_module("numpy")
        self.cfg = vd.odesolve.IntegratorConfig(rtol=1e-12, atol=1e-14)
        family = random.Random(self.FAMILY_SEED)
        rng = random.Random(self.seed)
        self.pool = [self._build(vdp_instance(family), rng)
                     for _ in range(self.POOL)]
        self.cycle = self.POOL
        self.digests = _Digests()
        warm = self.op(0)
        if not warm.ok:
            raise RuntimeError(f"warm-up: {warm.note}")
        self.digests = _Digests()

    def _build(self, base, rng):
        """A bundle from the family member ``base`` with each parameter moved
        by up to JITTER of its size, and the sub-window on which a 1e-6
        comparison is meaningful: before the first pole and before direct
        integration has amplified its error by e^BUDGET."""
        vd = self.vd
        od = vd.odesolve

        def jitter(v):
            return v * (1.0 + rng.uniform(-self.JITTER, self.JITTER))

        mu, beta, alpha, C1, C2, k_sign = base
        mu, beta, C1, C2 = jitter(mu), jitter(beta), jitter(C1), jitter(C2)
        # keep alpha's distance below the real-rate threshold (mu beta)^2/4
        gap = (base[0] * base[1]) ** 2 / 4.0 - alpha
        alpha = (mu * beta) ** 2 / 4.0 - jitter(gap)
        params = vd.colehopf.VdpParams(mu, beta, alpha)
        P = vd.catalog.p_general(params, C1, C2, k_sign)
        bundle = vd.colehopf.solve_chain(P, params)
        k = math.sqrt((mu * beta) ** 2 - 4 * alpha)
        a, b = od.regular_window([P], 0.0, 5.0, cap=4.0 + abs(mu * beta) + k)
        w0 = rng.uniform(0.1, 0.5)
        phi = od.integrate_linear(bundle.U, od.Grid(a, b, 501), 1.0, w0,
                                  self.cfg)
        psi = od.cole_hopf_map(bundle.P, phi, U=bundle.U)
        end = self._growth_cut(bundle, psi)
        if psi.pole_brackets:
            first = psi.pole_brackets[0][0] - 0.15
            end = min(end, int(self.np.searchsorted(psi.xs, first)))
        i0 = psi.segments[0][0]
        end = max(end, i0 + 50)
        sub = od.Grid(float(psi.xs[i0]), float(psi.xs[end]), 301)
        return bundle, sub, w0

    def _growth_cut(self, bundle, psi) -> int:
        np = self.np
        p = bundle.params
        xs, y, dy = psi.xs, psi.values, psi.derivatives
        lam = self.vd.expr.lambdify
        vf, hf, gf = (lam(e)(xs) for e in (bundle.v, bundle.h, bundle.g))
        fpsi = (-2 * p.mu * y * dy - p.alpha + 2 * vf * y + 3 * hf * y ** 2
                + 4 * gf * y ** 3)
        fdpsi = p.mu * (p.beta - y ** 2)
        disc = np.maximum(fdpsi ** 2 + 4 * fpsi, 0.0)
        rate = np.maximum(0.0, np.maximum((fdpsi + np.sqrt(disc)) / 2.0,
                                          fdpsi / 2.0))
        rate = np.where(np.isfinite(rate), rate, np.inf)
        h = float(xs[1] - xs[0])
        cum = np.concatenate([[0.0], np.cumsum((rate[1:] + rate[:-1]) / 2 * h)])
        return min(int(np.searchsorted(cum, self.BUDGET)), len(xs) - 1)

    def op(self, i: int) -> Outcome:
        od = self.vd.odesolve
        bundle, sub, w0 = self.pool[i % self.cycle]
        t0 = perf_counter()
        try:
            phi = od.integrate_linear(bundle.U, sub, 1.0, w0, self.cfg)
            psi = od.cole_hopf_map(bundle.P, phi, U=bundle.U)
            j0 = psi.segments[0][0]
            try:
                direct = od.integrate_vdp(bundle, sub, float(psi.values[j0]),
                                          float(psi.derivatives[j0]), self.cfg)
            except od.StepUnderflowError as err:
                if err.partial is None:
                    raise
                direct = err.partial
            m = od.compare(psi, direct)
        except Exception as err:  # the program refused this instance
            return Outcome(f"bundle{i % self.cycle}", False, False,
                           f"{type(err).__name__}: {err}")
        dt = perf_counter() - t0
        key = f"bundle{i % self.cycle}"
        stable = self.digests.check(key, repr(m.to_dict()))
        close = m.rel_linf <= ROUND_TRIP_TOL
        note = ""
        if not close:
            note = f"round trip rel_linf {m.rel_linf:.3g} above {ROUND_TRIP_TOL:g}"
        if not stable:
            note = "round-trip metrics differ from the first run of this input"
        return Outcome(key, close and stable, not (close and stable), note, dt)


WORKLOADS = {w.name: w for w in (CliCold, FineGrid, SymbolicBatch,
                                  OracleRoundtrip)}
