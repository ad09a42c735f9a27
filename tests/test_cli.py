"""Command-line front end: artifacts, manifests, exit codes, determinism."""

import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torusspec
from torusspec.cli import _build_parser, _scalar, main
from torusspec.potentials import cosine, save_potential, zero_potential

GOLDEN_FREE_K1 = (
    "hbar,index,eigenvalue\n"
    "1.000000000000e+00,0,0.000000000000e+00\n"
    "1.000000000000e+00,1,5.000000000000e-01\n"
    "1.000000000000e+00,2,5.000000000000e-01\n"
)


@pytest.fixture()
def pots(tmp_path):
    free = tmp_path / "free.json"
    cos = tmp_path / "cos.json"
    save_potential(zero_potential(1), free)
    save_potential(cosine((1,)), cos)
    return {"free": str(free), "cos": str(cos)}


def test_scalar_forms():
    assert _scalar("1.5") == 1.5
    assert _scalar("pi") == math.pi
    assert _scalar("-pi/2") == -math.pi / 2.0
    assert _scalar("2pi") == 2.0 * math.pi
    assert _scalar("0.5*pi") == 0.5 * math.pi
    with pytest.raises(ValueError):
        _scalar("two")


def test_spectrum_run_and_manifest(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--potential", pots["free"], "--hbar", "1.0",
               "--K", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "spectrum.csv").read_text() == GOLDEN_FREE_K1
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["spectrum.csv"] == digest
    assert "seed" not in manifest
    assert pots["free"] in manifest["inputs"]
    assert set(manifest["versions"]) >= {"torusspec", "numpy", "scipy", "python"}


def test_identical_runs_byte_identical(pots, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["spectrum", "--potential", pots["cos"], "--hbar", "0.5,0.25",
                   "--K", "16", "--out", str(out)])
        assert rc == 0
        outs.append((out / "spectrum.csv").read_bytes())
    assert outs[0] == outs[1]


def test_missing_input_exits_2(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--potential", str(tmp_path / "nope.json"),
               "--hbar", "1.0", "--K", "4", "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert set(err) == {"error", "message"}


def test_oversized_dense_matrix_exits_2(tmp_path):
    # the auto cutoff at hbar 0.01 is K = 347: N = 695^2, a 3.7 TB matrix
    pot = tmp_path / "cos2d.json"
    save_potential(cosine((1, 1)), pot)
    out = tmp_path / "run"
    t0 = time.monotonic()
    rc = main(["spectrum", "--potential", str(pot), "--hbar", "0.01", "--out", str(out)])
    assert rc == 2
    assert time.monotonic() - t0 < 10.0
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert "N=483025" in err["message"] and "3733010410000 bytes" in err["message"]


def test_unknown_flag_exits_2(pots, tmp_path):
    rc = main(["spectrum", "--potential", pots["free"], "--hbar", "1.0",
               "--nope", "--out", str(tmp_path / "run")])
    assert rc == 2


def test_cell_nonconvergence_exits_3(tmp_path):
    hard = tmp_path / "hard.json"
    save_potential(cosine((1,)) * 1e6, hard)
    out = tmp_path / "run"
    rc = main(["cell-solve", "--potential", str(hard), "--p", "1.0",
               "--grid", "64", "--out", str(out)])
    assert rc == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CellConvergenceError"


def test_config_defaults_flags_override(pots, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"K": "2"}))
    out1 = tmp_path / "one"
    rc = main(["--config", str(cfg), "spectrum", "--potential", pots["free"],
               "--hbar", "1.0", "--out", str(out1)])
    assert rc == 0
    # K=2 from the config: 5 eigenvalues
    assert len((out1 / "spectrum.csv").read_text().splitlines()) == 6
    out2 = tmp_path / "two"
    rc = main(["--config", str(cfg), "spectrum", "--potential", pots["free"],
               "--hbar", "1.0", "--K", "3", "--out", str(out2)])
    assert rc == 0
    # the explicit --K 3 wins: 7 eigenvalues
    assert len((out2 / "spectrum.csv").read_text().splitlines()) == 8


def test_config_keys_no_flag_reads_are_refused(pots, tmp_path):
    # a typo, a removed flag, and a flag of another subcommand
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hbarr": 3, "seed": 7, "pmax": 2, "K": "2"}))
    out = tmp_path / "run"
    rc = main(["--config", str(cfg), "spectrum", "--potential", pots["free"],
               "--hbar", "1.0", "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert "hbarr, pmax, seed" in err["message"] and "K" not in err["message"]
    assert not (out / "spectrum.csv").exists()


def test_effective_subcommand(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["effective", "--potential", pots["cos"], "--method", "closed-form",
               "--pmax", "2", "--dp", "0.5", "--out", str(out)])
    assert rc == 0
    lines = (out / "effective.csv").read_text().splitlines()
    assert lines[0] == "P,Hbar,method,residual"
    assert len(lines) == 10
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["convex"] is True


def test_cell_solve_manifest_diagnostics(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["cell-solve", "--potential", pots["cos"], "--p", "2.0", "--p", "0.5",
               "--grid", "64", "--out", str(out)])
    assert rc == 0
    diags = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert [d["P"] for d in diags] == [[2.0], [0.5]]
    for d in diags:
        assert set(d) == {"P", "iterations", "alphas", "discount_values"}
        assert d["iterations"] > 0
        assert len(d["alphas"]) == 1 and d["alphas"][0] > 0.0
        assert len(d["discount_values"]) == 3
    # diagnostics stay out of the CSV
    assert (out / "cell.csv").read_text().splitlines()[0] == "P,Hbar,method,residual"


def test_cell_solve_grid_below_minimum_exits_2(pots, tmp_path):
    # --grid 0 is an input like --grid 16, not a request for the default
    for grid in ("0", "16"):
        out = tmp_path / f"grid{grid}"
        rc = main(["cell-solve", "--potential", pots["cos"], "--p", "1.0",
                   "--grid", grid, "--out", str(out)])
        assert rc == 2
        assert json.loads((out / "error.json").read_text())["error"] == "ValueError"


def test_flags_a_subcommand_ignores_are_refused(pots, tmp_path):
    base = ["--potential", pots["cos"], "--out", str(tmp_path / "run")]
    assert main(["effective", *base, "--pmax", "2", "--dp", "0.5", "--K", "8"]) == 2
    assert main(["effective", *base, "--pmax", "2", "--dp", "0.5", "--energy", "2"]) == 2
    assert main(["cell-solve", *base, "--p", "1.0", "--K", "8"]) == 2
    assert main(["egorov", *base, "--hbar", "0.5,0.25", "--energy", "2"]) == 2
    assert main(["spectrum", *base, "--hbar", "1.0", "--K", "4", "--seed", "1"]) == 2
    assert main(["weyl-count", *base, "--hbar", "0.5", "--window", "0,2",
                 "--K", "8", "--samples", "20000"]) == 2


# every subcommand with minimal flags besides --potential/--out
_SUBCOMMANDS = {
    "spectrum": ["--hbar", "0.5", "--K", "8"],
    "weyl-count": ["--hbar", "0.5", "--window", "0,2", "--K", "8"],
    "effective": ["--method", "cell-problem", "--pmax", "1", "--dp", "0.5", "--grid", "32"],
    "cell-solve": ["--p", "1.0", "--grid", "32"],
    "egorov": ["--hbar", "0.5", "--K", "8"],
    "isospectral-check": ["--relation", "translate", "--shift", "pi", "--hbar", "0.5",
                          "--K", "8"],
    "bs-reconstruct": ["--hbar", "0.5", "--K", "8"],
}


def _raw_potential(path, value):
    # written by hand: FourierPotential refuses to hold a non-finite coefficient
    path.write_text(json.dumps({"dim": 1, "coeffs": [
        {"q": [1], "re": value, "im": 0.0}, {"q": [-1], "re": value, "im": 0.0}]}))
    return str(path)


# a NaN scalar flag: the flags of each row, with --potential cos.json
_NAN_FLAGS = {
    "nan-p": ["--p", "nan"],
    "nan-hbar": ["--hbar", "nan", "--K", "8"],
    "nan-energy": ["--hbar", "0.5", "--energy", "nan"],
    "nan-window": ["--hbar", "0.5", "--window", "0,nan", "--K", "8"],
    "nan-pmax": ["--pmax", "nan", "--dp", "0.5"],
    "nan-dp": ["--pmax", "1", "--dp", "nan"],
    "nan-t": ["--hbar", "0.5", "--K", "8", "--t", "nan"],
    "nan-plateau": ["--hbar", "0.5", "--K", "8", "--plateau", "nan"],
}


@pytest.mark.parametrize("command,case", [
    *[(c, case) for c in _SUBCOMMANDS for case in ("missing", "nan", "inf")],
    ("cell-solve", "nan-p"),
    ("spectrum", "nan-hbar"),
    ("spectrum", "nan-energy"),
    ("weyl-count", "nan-window"),
    ("effective", "nan-pmax"),
    ("effective", "nan-dp"),
    ("egorov", "nan-t"),
    ("egorov", "nan-plateau"),
])
def test_missing_and_non_finite_input_exit_2(pots, tmp_path, command, case):
    args = [command, *_SUBCOMMANDS[command], "--out", str(tmp_path / "run")]
    if case in ("nan", "inf"):
        args += ["--potential", _raw_potential(tmp_path / "bad.json", float(case))]
    elif case in _NAN_FLAGS:
        args = [command, "--potential", pots["cos"], *_NAN_FLAGS[case],
                "--out", str(tmp_path / "run")]
    assert main(args) == 2
    assert json.loads((tmp_path / "run" / "error.json").read_text())["error"] == "ValueError"


def test_egorov_subcommand(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["egorov", "--potential", pots["cos"], "--hbar", "0.5,0.25",
               "--K", "8", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "egorov.json").read_text())
    assert set(rep) == {"hbar", "residual", "slope", "exact"}
    assert rep["hbar"] == [0.5, 0.25]
    assert len(rep["residual"]) == 2
    assert all(math.isfinite(r) and r >= 0.0 for r in rep["residual"])
    assert rep["exact"] is False and math.isfinite(rep["slope"])
    # the bundled observable is one-dimensional
    pot2 = tmp_path / "cos2d.json"
    save_potential(cosine((1, 1)), pot2)
    rc = main(["egorov", "--potential", str(pot2), "--hbar", "0.5,0.25",
               "--K", "8", "--out", str(tmp_path / "two")])
    assert rc == 2


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("torusspec ")]
    assert len(lines) == 7
    parser, _ = _build_parser()

    def parses(line):
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            return False
        return True

    assert [line for line in lines if not parses(line)] == []


def test_weyl_count_subcommand(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["weyl-count", "--potential", pots["free"], "--hbar", "0.5",
               "--window", "0,2", "--K", "32", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "weyl_count.json").read_text())
    assert rep["count"] == [6]
    assert rep["volume"] == pytest.approx(8.0 * math.pi, rel=1e-9)


def test_isospectral_subcommand(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["isospectral-check", "--pair", f"{pots['cos']}:translate=pi",
               "--hbar", "0.5", "--K", "16", "--pmax", "2", "--dp", "1",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "theorem2.json").read_text())
    assert rep["verdict"] == "consistent"


def test_bs_subcommand(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["bs-reconstruct", "--potential", pots["free"], "--hbar", "0.5",
               "--K", "8", "--out", str(out)])
    assert rc == 0
    lines = (out / "bs.csv").read_text().splitlines()
    assert lines[0] == "ell,P,E,Hbar_closed_form,misfit"
    assert len(lines) == 7


def _console_script():
    """Command prefix that runs the ``torusspec`` console script.

    The installed script when there is one on PATH; otherwise the target
    declared in ``[project.scripts]``, started the way the generated wrapper
    starts it.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["torusspec"]
    assert target == "torusspec.cli:main"
    installed = shutil.which("torusspec")
    if installed:
        return [installed]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_smoke(pots, tmp_path):
    # the child imports the checkout this test imported
    src = str(Path(torusspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = _console_script()

    def run(*args):
        return subprocess.run(command + list(args), capture_output=True,
                              text=True, env=env, timeout=120)

    out = tmp_path / "run"
    proc = run("spectrum", "--potential", pots["free"], "--hbar", "1.0",
               "--K", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "spectrum.csv").read_text() == GOLDEN_FREE_K1

    # main's return value has to reach the process exit status
    bad = tmp_path / "bad"
    proc = run("spectrum", "--potential", str(tmp_path / "nope.json"),
               "--hbar", "1.0", "--K", "1", "--out", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert (bad / "error.json").is_file()
