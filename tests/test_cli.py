"""Command-line front end: artifact generation, exit codes, determinism,
environment overrides."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vdplin
from vdplin.cli import build_parser, run
from vdplin.colehopf import (TransformBundle, VdpParams, bundle_to_dict,
                             bundle_to_json, solve_chain)
from vdplin.expr import lambdify, parse
from vdplin.odesolve import Grid, IntegratorConfig, integrate_linear


def _read_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root)] = path.read_bytes()
    return out


def _child_env():
    """The environment of a child interpreter that imports this vdplin."""
    src = str(Path(vdplin.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_case1_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = run(["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75",
                "--x0", "0", "--x1", "5", "--n", "501", "--out", str(out)])
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"bundle.json", "phi.csv",
                                               "psi.csv", "residual.json"}
    rep = json.loads((out / "residual.json").read_text())
    assert rep["residual"]["max_abs"] <= 1e-8
    bundle = json.loads((out / "bundle.json").read_text())
    assert bundle["params"] == {"mu": 2.0, "beta": 1.0, "alpha": 0.75}
    assert bundle["ledger"]  # never silent
    header = (out / "psi.csv").read_text().splitlines()[0]
    assert header == "x,value,derivative,segment"


def test_custom_base_instance(tmp_path):
    out = tmp_path / "run"
    code = run(["custom", "--P", "0", "--mu", "1", "--beta", "2",
                "--alpha", "0", "--out", str(out)])
    assert code == 0
    bundle = json.loads((out / "bundle.json").read_text())
    assert float(lambdify(parse(bundle["g"]))(0.0)) == -1.0
    assert float(lambdify(parse(bundle["h"]))(0.0)) == 2.0
    assert float(lambdify(parse(bundle["v"]))(0.0)) == 2.0
    assert float(lambdify(parse(bundle["f"]))(0.0)) == 0.0


def test_tan_shift_ledger_agrees(tmp_path):
    # forcing, a0 and a1 sampled near tan's poles once read false for
    # identities; their gaps are zero in the ring
    assert run(["custom", "--P", "tan(x)", "--x0", "-1", "--x1", "1",
                "--out", str(tmp_path)]) == 0
    ledger = json.loads((tmp_path / "bundle.json").read_text())["ledger"]
    assert len(ledger) == 6
    assert all(e["agrees"] is True for e in ledger)


def test_case3_writes_discrepancy_findings(tmp_path):
    out = tmp_path / "run"
    code = run(["case3", "--mu", "1", "--beta", "1", "--alpha", "0",
                "--c", "1", "--out", str(out)])
    assert code == 0
    bundle = json.loads((out / "bundle.json").read_text())
    flagged = {e["check"] for e in bundle["ledger"] if e["agrees"] is False}
    assert {"case3-reference-P", "case3-reference-U"} <= flagged


def test_seeded_branches(tmp_path):
    for branch in ("plus", "minus"):
        out = tmp_path / branch
        code = run(["seeded", "--s", "a*x", "--a", "0.4", "--branch", branch,
                    "--mu", "1", "--beta", "1", "--alpha", "0.5",
                    "--x1", "3", "--n", "601", "--out", str(out)])
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        checks = {e["check"]: e["agrees"] for e in bundle["ledger"]}
        assert checks[f"seed-potential-match-{branch}-branch"] is True


def test_lienard_riccati(tmp_path):
    out = tmp_path / "run"
    code = run(["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
                "--P", "0.3 - 0.2*x + 0.15*x^2", "--riccati",
                "--x0", "0", "--x1", "2", "--n", "2001", "--dphi0", "0.3",
                "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "residual.json").read_text())
    assert rep["b0_max"] <= 1e-9
    assert rep["residual"]["max_abs"] <= 1e-6
    spec = json.loads((out / "lienard.json").read_text())
    assert spec["b"][4] == spec["c"][2]


def test_lienard_needs_potential(tmp_path):
    code = run(["lienard", "--P", "x", "--out", str(tmp_path)])
    assert code == 1


def test_lienard_riccati_refuses_a_potential(tmp_path, capsys):
    # --riccati sets U itself; a --U beside it would be ignored
    code = run(["lienard", "--P", "x", "--riccati", "--U", "100*x",
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == \
        "usage error: lienard takes --riccati or --U <expr>, not both\n"
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_verify_round_trip_and_tamper(tmp_path):
    out = tmp_path / "run"
    assert run(["custom", "--P", "0.25", "--mu", "2", "--beta", "1",
                "--alpha", "0.75", "--out", str(out)]) == 0
    vout = tmp_path / "verify"
    assert run(["verify", "--bundle", str(out / "bundle.json"),
                "--out", str(vout)]) == 0

    doc = json.loads((out / "bundle.json").read_text())
    doc["f"] = doc["f"] + " + 1"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--bundle", str(bad), "--out",
                str(tmp_path / "v2")]) == 3


def test_exit_codes_usage_and_parse(tmp_path):
    assert run(["custom", "--P", "0", "--n", "1", "--out", str(tmp_path)]) == 1
    assert run(["nonsense"]) == 1
    assert run(["custom", "--P", "x +* 2", "--out", str(tmp_path)]) == 2
    assert run(["case1", "--mu", "1", "--beta", "1", "--alpha", "99",
                "--out", str(tmp_path)]) == 2  # complex rate refused


@pytest.mark.parametrize("name", ["top", "case1", "case2", "case3", "custom",
                                  "seeded", "lienard"])
def test_help_text_is_pinned(monkeypatch, capsys, name):
    # tests/help holds the --help text of each run subcommand and of the
    # top level at 80 columns; the run subcommands' text is as it was
    # before the shared options were built once
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args(([] if name == "top" else [name])
                                  + ["--help"])
    want = (Path(__file__).parent / "help" / f"{name}.txt").read_text()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("option", [["--mu", "99"], ["--alpha", "7"],
                                    ["--C1", "2"], ["--format", "json"]])
def test_verify_refuses_model_options(tmp_path, capsys, option):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(bundle_to_json(solve_chain(parse("x/(2+x^2)"),
                                                 VdpParams(1, 1, 0))))
    argv = ["verify", "--bundle", str(bundle), "--out", str(tmp_path / "v")]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + option) == 1
    assert capsys.readouterr().err == (
        f"usage error: unrecognized arguments: {' '.join(option)}\n")


def test_byte_determinism_all_subcommands(tmp_path):
    invocations = {
        "case1": ["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75"],
        "case2": ["case2", "--mu", "2", "--beta", "2", "--alpha", "4"],
        "case3": ["case3", "--mu", "1", "--beta", "1", "--alpha", "0",
                  "--c", "1"],
        "custom": ["custom", "--P", "x/(2+x^2)", "--mu", "1", "--beta", "1.5",
                   "--alpha", "0.4", "--x1", "3"],
        "seeded": ["seeded", "--s", "a*x", "--a", "0.4", "--mu", "1",
                   "--beta", "1", "--alpha", "0.5", "--x1", "3"],
        "lienard": ["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
                    "--P", "0.3 - 0.2*x + 0.15*x^2", "--riccati",
                    "--x1", "2", "--n", "2001", "--dphi0", "0.3"],
    }
    for name, argv in invocations.items():
        d1 = tmp_path / f"{name}-1"
        d2 = tmp_path / f"{name}-2"
        assert run(argv + ["--out", str(d1)]) == 0, name
        assert run(argv + ["--out", str(d2)]) == 0, name
        t1, t2 = _read_tree(d1), _read_tree(d2)
        assert list(t1) == list(t2)
        for rel in t1:
            assert t1[rel] == t2[rel], f"{name}/{rel} differs between runs"


def test_json_trajectory_format(tmp_path):
    out = tmp_path / "run"
    code = run(["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "psi.json").read_text())
    assert set(doc) == {"x", "value", "derivative", "segments",
                        "pole_brackets"}
    assert len(doc["x"]) == len(doc["value"])


def test_rtol_flag_alone_sets_the_tolerance(tmp_path, monkeypatch):
    # the environment plays no part
    monkeypatch.setenv("VDP_RTOL", "not-a-number")
    parser = build_parser()
    assert parser.parse_args(["custom", "--P", "0"]).rtol == 1e-12
    assert parser.parse_args(["custom", "--P", "0",
                              "--rtol", "1e-9"]).rtol == 1e-9
    # the flag reaches the integrator: at 1e-9 this input fails the
    # sampled gate it passes at the default
    assert run(["custom", "--P", "x/(2+x^2)", "--method", "adaptive",
                "--rtol", "1e-9", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("method", ["rk4", "adaptive"])
@pytest.mark.parametrize("P", ["1/(x-1)", "sqrt(x-1)"])
def test_singular_potential_is_an_eval_failure(tmp_path, capsys, method, P):
    # U is infinite at x = 1 on the grid, or undefined on x < 1
    code = run(["custom", "--P", P, "--method", method, "--out", str(tmp_path)])
    assert code == 2
    assert "integration stalled" in capsys.readouterr().err


@pytest.mark.parametrize("model", [[], ["--mu", "1", "--beta", "1.5",
                                         "--alpha", "0.4"]])
def test_adaptive_default_rtol_passes_the_sampled_gate(tmp_path, capsys,
                                                       model):
    # at rtol 1e-9 these read 3.7e-6 and 1.4e-5 against the 1e-6 gate
    code = run(["custom", "--P", "x/(2+x^2)", "--method", "adaptive", *model,
                "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "residual.json").read_text())
    assert doc["residual"]["max_abs"] <= 1e-6


def test_no_subcommand_and_no_compare_imports_scipy(tmp_path):
    # scipy is a test dependency only: every subcommand, with either
    # method, and compare run without it
    argvs = [["custom", "--P", "x/(2+x^2)"],
             ["custom", "--P", "x/(2+x^2)", "--method", "adaptive",
              "--rtol", "1e-12"],
             ["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75"],
             ["case2", "--mu", "2", "--beta", "2", "--alpha", "4"],
             ["case3", "--mu", "1", "--beta", "1", "--alpha", "0", "--c", "1"],
             ["seeded", "--s", "a*x", "--a", "0.4", "--mu", "1", "--beta", "1",
              "--alpha", "0.5", "--x1", "3"],
             ["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
              "--P", "0.3 - 0.2*x + 0.15*x^2", "--riccati", "--x1", "2",
              "--dphi0", "0.3"],
             ["verify", "--bundle", str(tmp_path / "0" / "bundle.json")],
             ["custom", "--P", "x/(2+x^2)", "--format", "json"]]
    script = ("import sys\n"
              "from vdplin.cli import run\n"
              "assert 'scipy' not in sys.modules\n")
    for i, argv in enumerate(argvs):
        script += (f"assert run({argv + ['--out', str(tmp_path / str(i))]!r})"
                   " == 0\n"
                   "assert 'scipy' not in sys.modules\n")
    script += ("from vdplin import (Grid, VdpParams, cole_hopf_map, compare,\n"
               "                    integrate_linear, integrate_vdp,\n"
               "                    solve_chain)\n"
               "from vdplin.expr import parse\n"
               "b = solve_chain(parse('x/(4+x^2)'), VdpParams(0.7, 1.1, 0.2))\n"
               "grid = Grid(0.0, 3.0, 301)\n"
               "psi = cole_hopf_map(b.P, integrate_linear(b.U, grid, 1.0, 0.2),\n"
               "                    U=b.U)\n"
               "direct = integrate_vdp(b, grid, float(psi.values[0]),\n"
               "                       float(psi.derivatives[0]))\n"
               "assert compare(psi, direct).rel_linf <= 1e-6\n"
               "assert 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_runs_in_one_process_match_runs_made_alone(tmp_path, capsys):
    # run() parses with one parser per process: a usage error, a run and a
    # verify made in turn here give what each gives in a fresh interpreter
    bundle = tmp_path / "bundle.json"
    bundle.write_text(bundle_to_json(solve_chain(parse("x/(2+x^2)"),
                                                 VdpParams(1, 1, 0))))
    argvs = [["custom", "--P", "x", "--n", "many"],
             ["custom", "--P", "x/(2+x^2)", "--mu", "0.5", "--n", "301"],
             ["verify", "--bundle", str(bundle), "--n", "301"]]
    here = []
    for i, argv in enumerate(argvs):
        code = run(argv + ["--out", str(tmp_path / f"here{i}")])
        here.append((code, capsys.readouterr().err,
                     _read_tree(tmp_path / f"here{i}")))
    assert [h[0] for h in here] == [1, 0, 0]
    for i, argv in enumerate(argvs):
        proc = subprocess.run(
            [sys.executable, "-m", "vdplin", *argv,
             "--out", str(tmp_path / f"alone{i}")],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        assert here[i] == (proc.returncode, proc.stderr,
                           _read_tree(tmp_path / f"alone{i}")), argv


@pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--beta", "inf"),
                                         ("--alpha", "-inf"), ("--C1", "nan"),
                                         ("--a", "inf"), ("--x1", "inf"),
                                         ("--x0", "nan"), ("--x1", "nan"),
                                         ("--phi0", "nan"), ("--dphi0", "inf")])
def test_non_finite_parameter_is_a_usage_error(tmp_path, capsys, flag, value):
    code = run(["custom", "--P", "C1*x + a", f"{flag}={value}",
                "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be finite" in err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_non_positive_residual_tol_is_a_usage_error(tmp_path, capsys):
    code = run(["custom", "--P", "x/(2+x^2)", "--residual-tol", "-1",
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == \
        "usage error: residual_tol must be positive\n"


def test_grid_too_fine_for_the_stencils_is_a_usage_error(tmp_path):
    # 12*h^2 underflows to 0 at this spacing; a fresh interpreter shows
    # any numpy warning on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "vdplin", "custom", "--P", "x", "--x1",
         "1e-300", "--out", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("usage error: grid spacing 2e-303 is too fine for "
                           "the residual stencils: 12*h^2 underflows\n")


@pytest.mark.parametrize("bounds, cause", [
    (["--x0=-1e308", "--x1", "1e308", "--n", "5"],
     "the grid's span x1 - x0 overflows a float: [-1e+308, 1e+308]"),
    (["--x1", "1e160", "--n", "3"],
     "grid spacing 5e+159 is too coarse for the residual stencils: "
     "12*h^2 overflows"),
])
def test_grid_that_overflows_is_a_usage_error(tmp_path, bounds, cause):
    # both once exited 2 or 3 after numpy warnings: linspace made nan and
    # inf grid points, or the stencils divided by an infinite 12*h^2
    proc = subprocess.run(
        [sys.executable, "-m", "vdplin", "custom", "--P", "x/(2+x^2)",
         *bounds, "--out", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"usage error: {cause}\n"


@pytest.mark.parametrize("option, name", [
    (["--guard-tol", "inf"], "guard_tol"),
    (["--pole-tol", "inf"], "pole_tol"),
    (["--rtol", "inf", "--method", "adaptive"], "rtol"),
    (["--atol", "inf", "--method", "adaptive"], "atol"),
    (["--residual-tol", "inf"], "residual_tol"),
])
def test_infinite_tolerance_is_a_usage_error(tmp_path, option, name):
    # each once ran: exit 0 with "guard_tol": Infinity in residual.json (not
    # JSON), exit 3 or 2 blaming the grid or the integrator, or a residual
    # gate quietly switched off
    proc = subprocess.run(
        [sys.executable, "-m", "vdplin", "custom", "--P", "x/(2+x^2)",
         *option, "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"usage error: {name} must be finite\n"
    assert not (tmp_path / "out").exists()


def test_grid_too_short_for_the_stencils_is_a_verification_failure(
        tmp_path, capsys):
    code = run(["custom", "--P", "x/(2+x^2)", "--n", "3",
                "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == ("verification failure: no segment "
                                       "long enough for the residual "
                                       "stencils\n")


def test_stall_of_a_huge_shift_names_its_potential(tmp_path, capsys):
    # P = 1e80 + x and its U, about 3e160, are finite on the grid, so the
    # chain's bundle is verified exactly, but the first RK4 step overflows
    bundle = tmp_path / "bundle.json"
    bundle.write_text(bundle_to_json(solve_chain(parse("1e80 + x"),
                                                 VdpParams(1, 1, 0.5))))
    code = run(["verify", "--bundle", str(bundle), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: integration stalled in [0, 5]: |U| reaches 3e+160 on the "
        "grid\n")


@pytest.mark.parametrize("P", ["x + 1/0", "x + 0^(-1)"])
def test_constant_singularity_is_an_eval_failure(tmp_path, capsys, P):
    # U is infinite everywhere: the vector callables give inf, not a
    # ZeroDivisionError traceback
    code = run(["custom", "--P", P, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: integration stalled in [0, 5]\n"


def test_infinite_lienard_coefficient_is_a_verification_failure(
        tmp_path, capsys):
    code = run(["lienard", "--c2", "1/0", "--P", "0.3 - 0.2*x + 0.15*x^2",
                "--riccati", "--x1", "2", "--n", "2001",
                "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("verification failure: ")


def test_reused_out_holds_only_the_last_runs_files(tmp_path):
    out = tmp_path / "run"
    custom = ["custom", "--P", "x/(2+x^2)", "--x1", "3", "--out", str(out)]

    def names():
        return {p.name for p in out.iterdir()}

    assert run(["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
                "--P", "0.3 - 0.2*x + 0.15*x^2", "--riccati", "--x1", "2",
                "--n", "2001", "--dphi0", "0.3", "--out", str(out)]) == 0
    assert names() == {"lienard.json", "phi.csv", "psi.csv", "residual.json"}
    assert run(custom) == 0
    assert names() == {"bundle.json", "phi.csv", "psi.csv", "residual.json"}
    alone = _read_tree(out)
    assert run(custom + ["--format", "json"]) == 0
    assert names() == {"bundle.json", "phi.json", "psi.json", "residual.json"}

    # verify removes nothing: its --bundle may sit in the same directory
    assert run(["verify", "--bundle", str(out / "bundle.json"), "--x1", "3",
                "--out", str(out)]) == 0
    assert names() == {"bundle.json", "phi.json", "psi.json", "residual.json",
                       "verify.json"}
    # a later run removes the stale report, and its files are the bytes a
    # run into an empty directory writes
    assert run(custom) == 0
    assert _read_tree(out) == alone


def test_non_finite_lienard_coefficient_is_named(tmp_path, capsys):
    code = run(["lienard", "--c2", "1/0", "--P", "0.3 - 0.2*x + 0.15*x^2",
                "--riccati", "--x1", "2", "--n", "2001",
                "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == ("verification failure: coefficient "
                                       "c2 is not finite anywhere on the "
                                       "grid\n")


def test_non_finite_vdp_forcing_is_named(tmp_path, capsys, monkeypatch):
    # no derived bundle has an f finite nowhere whose U integrates, so the
    # chain is swapped for one that returns such a bundle
    def chain(P, params):
        bundle = solve_chain(P, params)
        return TransformBundle(P=bundle.P, U=bundle.U, g=bundle.g,
                               h=bundle.h, v=bundle.v,
                               f=parse("sqrt(-1 - x^2)"), params=params)

    monkeypatch.setattr("vdplin.cli.solve_chain", chain)
    code = run(["custom", "--P", "x/(2+x^2)", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == ("verification failure: coefficient "
                                       "b0 is not finite anywhere on the "
                                       "grid\n")


@pytest.mark.parametrize("argv, message", [
    (["custom", "--P", "1e400*x"],
     "error: --P: number 1e400 overflows a float (at byte 0)\n"),
    (["lienard", "--P", "x", "--U", "1e400"],
     "error: --U: number 1e400 overflows a float (at byte 0)\n"),
    # 1e300*1e300 stays unfolded, so U is infinite and integration stops
    (["custom", "--P", "1e300*1e300*x"],
     "error: integration stalled in [0, 5]\n"),
    # products of finite parameters that overflow
    (["custom", "--P", "x", "--mu", "1e200", "--beta", "1e200"],
     "error: mu*beta = 1e+200*1e+200 overflows a float\n"),
    (["case1", "--mu", "1e200", "--beta", "1e200"],
     "error: mu*beta = 1e+200*1e+200 overflows a float\n"),
    (["case1", "--mu", "1e100", "--beta", "1e60"],
     "error: mu^2 beta^2 - 4 alpha overflows a float\n"),
    # c mu^2 beta^2 of the case3 reference U reaches the printer
    (["case3", "--mu", "1e150", "--beta", "0.1", "--c", "1e10"],
     "error: constant inf is not finite\n"),
    # powers of mu in the reference constants, with mu*beta and k finite
    (["case1", "--mu", "1e150", "--beta", "0.1"],
     "error: mu^3 = 1e+150^3 overflows a float\n"),
    (["case1", "--mu", "1e160", "--beta", "1e-160"],
     "error: mu^3 = 1e+160^3 overflows a float\n"),
    (["case1", "--mu", "1e-160", "--beta", "1e160"],
     "error: beta^2 = 1e+160^2 overflows a float\n"),
    (["case2", "--mu", "1e160", "--beta", "1e-160", "--alpha", "0.25"],
     "error: mu^2 = 1e+160^2 overflows a float\n"),
    (["case3", "--mu", "1e160", "--beta", "1e-160"],
     "error: mu^2 = 1e+160^2 overflows a float\n"),
], ids=["P-literal", "U-literal", "P-product", "mu-beta-custom",
        "mu-beta-case1", "k-squared", "printed-constant", "mu-cubed-case1",
        "mu-cubed-case1-small-beta", "beta-squared-case1",
        "mu-squared-case2", "mu-squared-case3"])
def test_non_finite_constant_is_an_expression_error(tmp_path, capsys, argv,
                                                    message):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == message


def _write_bundle(path, P):
    path.write_text(bundle_to_json(solve_chain(parse(P), VdpParams(1, 1, 0))))


def _write_without_params(path):
    doc = bundle_to_dict(solve_chain(parse("x"), VdpParams(1, 1, 0)))
    del doc["params"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("make, message", [
    (lambda p: _write_bundle(p, "1/(x-1)"),
     "error: coefficient a0 is singular at grid points [1...]\n"),
    (lambda p: _write_bundle(p, "sqrt(x-1)"),
     "error: coefficient a0 is singular at grid points "
     "[0, 0.01, 0.02, 0.03, 0.04...]\n"),
    (_write_without_params,
     "error: malformed bundle: missing field 'params'\n"),
    (lambda p: p.write_text("[1, 2]"),
     "error: malformed bundle: not a JSON object\n"),
    (lambda p: p.mkdir(), None),
], ids=["pole", "sqrt-domain", "no-params", "json-array", "directory"])
def test_unusable_bundle_is_an_error_line(tmp_path, capsys, make, message):
    bundle = tmp_path / "bundle.json"
    make(bundle)
    code = run(["verify", "--bundle", str(bundle), "--out",
                str(tmp_path / "v")])
    assert code == 2
    err = capsys.readouterr().err
    if message is None:  # the OS words the directory error
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bundle) in err
    else:
        assert err == message


def _write_nested_forcing(path):
    doc = bundle_to_dict(solve_chain(parse("x/(2+x^2)"), VdpParams(1, 1, 0)))
    doc["f"] = "(" * 400 + doc["f"] + ")" * 400
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("argv", [
    # the recursion of the parser runs out of stack
    ["custom", "--P", "(" * 400 + "x" + ")" * 400],
    ["verify", "--bundle", "nested.json"],
], ids=["nested-P", "nested-bundle-f"])
def test_too_deep_an_expression_is_an_error_line(tmp_path, capsys,
                                                 monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        _write_nested_forcing(tmp_path / "nested.json")
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: expression nested too deeply\n"
    assert not (tmp_path / "out").exists()


def test_a_1500_term_sum_runs_through_the_chain(tmp_path, capsys):
    # the parser loops over a sum, and every pass after it is a loop over
    # the DAG, so a tree 1,500 levels deep is no error; the terms add up
    # to P = x/(2+x^2), whose run passes the residual gate
    out = tmp_path / "out"
    P = "x/(2+x^2)/1500+" * 1499 + "x/(2+x^2)/1500"
    assert run(["custom", "--P", P, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert {p.name for p in out.iterdir()} == {"bundle.json", "phi.csv",
                                               "psi.csv", "residual.json"}
    bundle = json.loads((out / "bundle.json").read_text())
    assert parse(bundle["P"]) is parse(P)
    assert float(lambdify(parse(bundle["P"]))(1.0)) == pytest.approx(
        1 / 3, rel=1e-12)
    rep = json.loads((out / "residual.json").read_text())
    assert rep["residual"]["max_abs"] <= 1e-6


_LIENARD = ["lienard", "--c0", "0.4", "--c1", "-0.2", "--c2", "0.3",
            "--P", "0.3 - 0.2*x + 0.15*x^2", "--x1", "2", "--n", "2001",
            "--dphi0", "0.3"]
_RUN_FILES = {"phi.csv", "psi.csv", "residual.json"}


@pytest.mark.parametrize("argv, files", [
    (["case1", "--mu", "2", "--beta", "1", "--alpha", "0.75"],
     {"bundle.json"} | _RUN_FILES),
    (["case2", "--mu", "2", "--beta", "2", "--alpha", "4"],
     {"bundle.json"} | _RUN_FILES),
    (["case3", "--mu", "1", "--beta", "1", "--alpha", "0", "--c", "1"],
     {"bundle.json"} | _RUN_FILES),
    (["custom", "--P", "x/(2+x^2)", "--x1", "3"],
     {"bundle.json"} | _RUN_FILES),
    (["seeded", "--s", "a*x", "--a", "0.4", "--x1", "3"],
     {"bundle.json"} | _RUN_FILES),
    (_LIENARD + ["--riccati"], {"lienard.json"} | _RUN_FILES),
    (_LIENARD + ["--U", "0.5"], {"lienard.json"} | _RUN_FILES),
    (["verify", "--x1", "3"], {"verify.json"}),
], ids=["case1", "case2", "case3", "custom", "seeded", "lienard-riccati",
        "lienard-U", "verify"])
def test_every_run_kind_applies_the_residual_gate(tmp_path, capsys, argv,
                                                  files):
    # every residual at the default settings lies between 1e-17 and 1e-9,
    # so a run kind that skipped the gate would exit 0 here
    if argv[0] == "verify":
        assert run(["custom", "--P", "x/(2+x^2)", "--x1", "3",
                    "--out", str(tmp_path / "src")]) == 0
        argv = argv + ["--bundle", str(tmp_path / "src" / "bundle.json")]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(argv + ["--residual-tol", "1e-20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"verification failure: residual \S+ above gate "
                        r"1e-20\n", err), err
    assert {p.name for p in out.iterdir()} == files


def test_annihilation_gate_runs_before_the_residual_gate(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["custom", "--P", "0.25", "--out", str(out)]) == 0
    doc = json.loads((out / "bundle.json").read_text())
    doc["f"] = doc["f"] + " + 1"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--bundle", str(bad), "--residual-tol", "1e-20",
                "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failure: annihilation failed")
    assert (tmp_path / "v" / "verify.json").is_file()


def test_report_documents_keep_their_key_order(tmp_path):
    # the build step places the "residual" slot among the other gates'
    # fields, and the pipeline fills it in place
    out = tmp_path / "run"
    assert run(_LIENARD + ["--riccati", "--out", str(out)]) == 0
    doc = json.loads((out / "residual.json").read_text())
    assert list(doc) == ["residual", "b0_max"]
    assert run(["custom", "--P", "x/(2+x^2)", "--x1", "3",
                "--out", str(out)]) == 0
    assert list(json.loads((out / "residual.json").read_text())) == \
        ["residual"]
    assert run(["verify", "--bundle", str(out / "bundle.json"), "--x1", "3",
                "--out", str(tmp_path / "v")]) == 0
    doc = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert list(doc) == ["annihilation", "residual", "ledger"]


# -0 is zero too
_ZERO_STATE = ["--phi0", "0", "--dphi0", "-0"]


@pytest.mark.parametrize("argv", [
    ["custom", "--P", "x/(2+x^2)"],
    ["seeded", "--s", "a*x"],
    ["lienard", "--P", "0", "--U=-1"],
    ["verify"],
    # sqrt(1 - 2 e^x) is nowhere real: the basis falls back to integration
    ["case3", "--mu", "1", "--beta", "1", "--alpha", "0", "--c=-2"],
], ids=["custom", "seeded", "lienard", "verify", "case3-fallback"])
def test_an_all_zero_initial_state_is_a_usage_error(tmp_path, capsys, argv):
    # phi = 0 everywhere would leave no point for psi, and the stencils
    # would be blamed
    if argv[0] == "verify":
        bundle = tmp_path / "bundle.json"
        bundle.write_text(bundle_to_json(solve_chain(parse("x/(2+x^2)"),
                                                     VdpParams(1, 1, 0))))
        argv = argv + ["--bundle", str(bundle)]
    out = tmp_path / "out"
    assert run(argv + _ZERO_STATE + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: phi0 and dphi0 are both 0: phi would vanish "
        "everywhere, and psi = P + phi'/phi with it\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["case1"], ["case2", "--mu", "2", "--beta", "2", "--alpha", "4"],
    ["case3", "--mu", "1", "--beta", "1", "--alpha", "0", "--c", "1"],
], ids=["case1", "case2", "case3"])
def test_a_closed_form_phi_ignores_the_initial_state(tmp_path, argv):
    runs = [tmp_path / "default", tmp_path / "zero"]
    assert run(argv + ["--out", str(runs[0])]) == 0
    assert run(argv + _ZERO_STATE + ["--out", str(runs[1])]) == 0
    assert _read_tree(runs[0]) == _read_tree(runs[1])


# ---------------------------------------------------------------------------
# the traced benchmark's contract: perfbench/tracing.py wraps vdplin's
# functions by name and reads integrate_linear's cfg argument

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", _PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_vdplin():
    tracing = _tracing()
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"vdplin.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
    # the integrator's span is labelled by cfg.method, defaulted or passed
    signature = inspect.signature(integrate_linear)
    assert signature.parameters["cfg"].default.method in ("adaptive", "rk4")
    label = tracing._integrator_label(signature)
    args = (parse("1"), Grid(0.0, 1.0, 11), 1.0, 0.0)
    rk4 = IntegratorConfig(method="rk4")
    assert label(None, args, {}) == signature.parameters["cfg"].default.method
    assert label(None, args + (rk4,), {}) == "rk4"
    assert label(None, args, {"cfg": rk4}) == "rk4"


@pytest.mark.parametrize("argv", [
    ["custom", "--P", "x/(2+x^2)", "--x1", "3"],
    ["lienard", "--P", "0", "--U", "1", "--x1", "3"],
], ids=["custom", "lienard"])
def test_a_traced_run_records_one_residual_span(tmp_path, argv):
    # every run kind measures the Lienard residual, a Van der Pol run at
    # VdpParams.lienard's coefficients; install() rebinds vdplin's module
    # attributes for the rest of the process, so the traced run gets an
    # interpreter of its own
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(_PERFBENCH / "cli_child.py"), str(spans), "--",
         *argv, "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    at = doc["fields"].index("name")
    names = [rec[at] for rec in doc["spans"]]
    residuals = {"odesolve.residual", "odesolve.lienard_residual"}
    assert [n for n in names if n in residuals] == \
        ["odesolve.lienard_residual"]
