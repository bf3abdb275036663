"""Command-line front end: artifact generation, exit codes, determinism,
environment overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vdplin
from vdplin.cli import run
from vdplin.expr import parse


def _read_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root)] = path.read_bytes()
    return out


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
    assert parse(bundle["g"]).eval(0.0) == -1.0
    assert parse(bundle["h"]).eval(0.0) == 2.0
    assert parse(bundle["v"]).eval(0.0) == 2.0
    assert parse(bundle["f"]).eval(0.0) == 0.0


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


def test_env_rtol_override(tmp_path, monkeypatch):
    # a parse failure in the environment variable is a usage error
    monkeypatch.setenv("VDP_RTOL", "not-a-number")
    assert run(["custom", "--P", "0", "--out", str(tmp_path / "a")]) == 1
    # valid env value is accepted; explicit flag wins
    monkeypatch.setenv("VDP_RTOL", "1e-7")
    assert run(["custom", "--P", "0", "--out", str(tmp_path / "b")]) == 0
    assert run(["custom", "--P", "0", "--rtol", "1e-9",
                "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("method", ["rk4", "adaptive"])
@pytest.mark.parametrize("P", ["1/(x-1)", "sqrt(x-1)"])
def test_singular_potential_is_an_eval_failure(tmp_path, capsys, method, P):
    # U is infinite at x = 1 on the grid, or undefined on x < 1
    code = run(["custom", "--P", P, "--method", method, "--out", str(tmp_path)])
    assert code == 2
    assert "integration stalled" in capsys.readouterr().err


def test_rk4_runs_never_import_scipy(tmp_path):
    script = (
        "import sys\n"
        "from vdplin.cli import run\n"
        "assert 'scipy' not in sys.modules\n"
        f"assert run(['custom', '--P', 'x/(2+x^2)', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(vdplin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
