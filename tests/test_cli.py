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

import numpy as np
import pytest

import torusspec
from torusspec import effective
from torusspec.cli import _build_parser, _scalar, main
from torusspec.potentials import cosine, save_potential, zero_potential
from torusspec.spectra import WeylCountReport

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


def test_spectrum_manifest_diagnostics(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--potential", pots["cos"], "--hbar", "0.5,0.25",
               "--K", "16", "--out", str(out)])
    assert rc == 0
    diags = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert [(d["hbar"], d["K"], d["N"]) for d in diags] == [(0.5, 16, 33), (0.25, 16, 33)]
    for d in diags:
        assert d["trusted_energy"] == d["hbar"] ** 2 * 17 ** 2 / 4.0
        assert 0.0 < d["tail_bound"] < 1.0
    assert (out / "spectrum.csv").read_text().splitlines()[0] == "hbar,index,eigenvalue"
    # at K = 1 no tail bound exists: the manifest holds null, the run succeeds
    out = tmp_path / "free"
    rc = main(["spectrum", "--potential", pots["free"], "--hbar", "1.0",
               "--K", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "spectrum.csv").read_text() == GOLDEN_FREE_K1
    diags = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diags == [{"hbar": 1.0, "K": 1, "N": 3, "trusted_energy": 1.0, "tail_bound": None}]


def test_dense_working_set_beyond_memory_exits_2(pots, tmp_path, monkeypatch):
    # N = 101 at K = 50: 16 N^2 bytes fit in 60 pages of 4096, 32 N^2 do not
    real_sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 60}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real_sysconf(name))
    out = tmp_path / "run"
    rc = main(["spectrum", "--potential", pots["cos"], "--hbar", "0.5",
               "--K", "50", "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "eigensolve 326432" in err["message"]
    assert not (out / "spectrum.csv").exists()


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


def test_cell_nonconvergence_exits_3(pots, tmp_path, monkeypatch):
    # a symbol that evaluates to NaN leaves every level unconverged
    monkeypatch.setattr(effective._GridSymbol, "value",
                        lambda self, pargs: np.full(len(pargs), np.nan))
    out = tmp_path / "run"
    rc = main(["cell-solve", "--potential", pots["cos"], "--p", "1.0",
               "--grid", "64", "--out", str(out)])
    assert rc == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CellConvergenceError"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", ["1e15", "1e308"])
def test_cell_solve_at_huge_momentum_exits_3(pots, tmp_path, p):
    # 1e15: a singular Newton Jacobian; 1e308: an overflowed rounding floor
    out = tmp_path / "run"
    rc = main(["cell-solve", "--potential", pots["cos"], "--p", p, "--grid", "64",
               "--out", str(out)])
    assert rc == 3
    assert json.loads((out / "error.json").read_text())["error"] == "CellConvergenceError"
    assert not (out / "cell.csv").exists()


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


# a --config file standing in for flags: the subcommand's other flags and its artifact
_CONFIG_AS_FLAGS = {
    "required-pmax-dp": ({"pmax": 2, "dp": 0.5}, ["effective"], "effective.csv"),
    "required-hbar": ({"hbar": 0.5}, ["spectrum", "--K", "4"], "spectrum.csv"),
    "required-window": ({"window": "0,2"},
                        ["weyl-count", "--hbar", "0.5", "--K", "8"], "weyl_count.json"),
    "typed-shift": ({"shift": 3.14}, ["isospectral-check", "--relation", "translate",
                                      "--hbar", "0.5", "--K", "8"], "theorem2.json"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_AS_FLAGS))
def test_config_value_acts_like_its_flag(pots, tmp_path, case):
    # a number goes through the flag's type, and a key counts for a required flag
    content, args, artifact = _CONFIG_AS_FLAGS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(content))
    out = tmp_path / "run"
    rc = main(["--config", str(cfg), *args, "--potential", pots["cos"], "--out", str(out)])
    assert rc == 0
    assert (out / artifact).is_file()


def test_config_list_repeats_its_flag(pots, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p": ["1.0", "2.0"]}))
    out = tmp_path / "run"
    rc = main(["--config", str(cfg), "cell-solve", "--potential", pots["cos"],
               "--grid", "32", "--p", "0.5", "--out", str(out)])
    assert rc == 0
    rows = (out / "cell.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 2.0, 0.5]


def test_config_value_matches_the_explicit_flag(pots, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pmax": 2, "dp": 0.5}))
    base = ["effective", "--potential", pots["cos"]]
    assert main(["--config", str(cfg), *base, "--out", str(tmp_path / "a")]) == 0
    assert main([*base, "--pmax", "2", "--dp", "0.5", "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "effective.csv").read_bytes()
            == (tmp_path / "b" / "effective.csv").read_bytes())


@pytest.mark.parametrize("case", ["bad-value", "unknown-flag", "config-bad-value"])
def test_refused_command_line_writes_error_json(pots, tmp_path, case):
    out = tmp_path / "run"
    args = ["cell-solve", "--potential", pots["cos"], "--p", "1.0", "--out", str(out)]
    if case == "bad-value":
        args += ["--grid", "abc"]
    elif case == "unknown-flag":
        args += ["--nope"]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": "abc"}))
        args = ["--config", str(cfg), *args]
    assert main(args) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert ("--grid" if case != "unknown-flag" else "--nope") in err["message"]


def test_help_exits_0_and_writes_nothing(tmp_path):
    out = tmp_path / "run"
    assert main(["--help"]) == 0
    assert main(["cell-solve", "--help", "--out", str(out)]) == 0
    assert not out.exists()


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
        assert set(d) == {"P", "iterations", "level_values"}
        assert d["iterations"] > 0
        # c on the 32 and 64 grids, coarse to fine: the last is the CSV's Hbar
        assert len(d["level_values"]) == 2
    rows = (out / "cell.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx(
        [d["level_values"][-1] for d in diags], rel=1e-12)
    # diagnostics stay out of the CSV
    assert (out / "cell.csv").read_text().splitlines()[0] == "P,Hbar,method,residual"


def test_effective_cell_problem_manifest_diagnostics(pots, tmp_path):
    out = tmp_path / "run"
    rc = main(["effective", "--potential", pots["cos"], "--method", "cell-problem",
               "--pmax", "1", "--dp", "0.5", "--grid", "64", "--out", str(out)])
    assert rc == 0
    diags = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # the pairs {P, -P} are solved once each, at P >= 0
    assert [d["P"] for d in diags] == [[0.0], [0.5], [1.0]]
    solve = tmp_path / "solve"
    assert main(["cell-solve", "--potential", pots["cos"], "--p", "0.0", "--p", "0.5",
                 "--p", "1.0", "--grid", "64", "--out", str(solve)]) == 0
    assert diags == json.loads((solve / "manifest.json").read_text())["diagnostics"]
    # diagnostics stay out of the artifacts
    assert (out / "effective.csv").read_text().splitlines()[0] == "P,Hbar,method,residual"
    assert set(json.loads((out / "certificates.json").read_text())) == {
        "convex", "convex_defect", "even_defect", "bound_defect"}


def test_cell_solve_grid_below_minimum_exits_2(pots, tmp_path):
    # --grid 0 is an input like --grid 16, not a request for the default; a
    # cell-problem table without --grid takes effective's default 0
    runs = {f"grid{grid}": ["cell-solve", "--p", "1.0", "--grid", grid] for grid in ("0", "16")}
    runs["table"] = ["effective", "--method", "cell-problem", "--pmax", "2", "--dp", "0.5"]
    for name, args in runs.items():
        out = tmp_path / name
        rc = main([*args, "--potential", pots["cos"], "--out", str(out)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError" and "grid below 32" in err["message"]


def test_flags_a_subcommand_ignores_are_refused(pots, tmp_path):
    base = ["--potential", pots["cos"], "--out", str(tmp_path / "run")]
    assert main(["effective", *base, "--pmax", "2", "--dp", "0.5", "--K", "8"]) == 2
    assert main(["effective", *base, "--pmax", "2", "--dp", "0.5", "--energy", "2"]) == 2
    assert main(["cell-solve", *base, "--p", "1.0", "--K", "8"]) == 2
    assert main(["egorov", *base, "--hbar", "0.5,0.25", "--energy", "2"]) == 2
    assert main(["spectrum", *base, "--hbar", "1.0", "--K", "4", "--seed", "1"]) == 2
    assert main(["weyl-count", *base, "--hbar", "0.5", "--window", "0,2",
                 "--K", "8", "--samples", "20000"]) == 2
    assert main(["bs-reconstruct", *base, "--hbar", "0.5", "--K", "8", "--mu", "1"]) == 2


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
    "inf-t": ["--hbar", "0.5,0.25", "--K", "8", "--t", "inf"],
    "zero-den-t": ["--hbar", "0.5,0.25", "--K", "8", "--t", "pi/0"],
    "zero-den-hbar": ["--hbar", "pi/0", "--K", "8"],
    "inf-energy": ["--hbar", "0.5", "--energy", "inf"],
    "inf-pmax": ["--pmax", "inf", "--dp", "0.5"],
    # not a NaN: a cell grid beyond physical memory, refused before allocation
    "huge-grid": ["--p", "1.0", "--grid", "1000000000000"],
    # not NaNs: a flow step outside (0, 1e-2] or a flow of 10^14 steps,
    # refused before any assembly
    "zero-step": ["--hbar", "0.5,0.25", "--K", "8", "--step", "0"],
    "negative-step": ["--hbar", "0.5,0.25", "--K", "8", "--step", "-0.01"],
    "coarse-step": ["--hbar", "0.5,0.25", "--K", "8", "--step", "0.5"],
    "huge-t": ["--hbar", "0.5,0.25", "--K", "8", "--t", "1e12"],
}

# a potential file that is not a list of {"q": integer vector, "re", "im"}
_BAD_POTENTIALS = {
    "coeffs-not-a-list": {"dim": 1, "coeffs": 5},
    "entry-not-an-object": {"dim": 1, "coeffs": [[1, 2]]},
    "fractional-q": {"dim": 1, "coeffs": [{"q": [1.5], "re": 0.5}, {"q": [-1.5], "re": 0.5}]},
}

# a --config file that cannot be used: its content (None: no file) and the error
_CONFIGS = {
    "config-missing": (None, "FileNotFoundError"),
    "config-list": ([1, 2], "ValueError"),
}


@pytest.mark.parametrize("command,case", [
    *[(c, case) for c in _SUBCOMMANDS for case in ("missing", "nan", "inf")],
    ("cell-solve", "nan-p"),
    ("cell-solve", "huge-grid"),
    ("spectrum", "nan-hbar"),
    ("spectrum", "nan-energy"),
    ("weyl-count", "nan-window"),
    ("effective", "nan-pmax"),
    ("effective", "nan-dp"),
    ("egorov", "nan-t"),
    ("egorov", "nan-plateau"),
    ("egorov", "inf-t"),
    ("egorov", "zero-den-t"),
    ("egorov", "zero-step"),
    ("egorov", "negative-step"),
    ("egorov", "coarse-step"),
    ("egorov", "huge-t"),
    ("spectrum", "zero-den-hbar"),
    ("spectrum", "inf-energy"),
    ("effective", "inf-pmax"),
    *[("spectrum", case) for case in _BAD_POTENTIALS],
    ("spectrum", "config-missing"),
    ("spectrum", "config-list"),
])
def test_missing_and_non_finite_input_exit_2(pots, tmp_path, command, case):
    args = [command, *_SUBCOMMANDS[command], "--out", str(tmp_path / "run")]
    error = "ValueError"
    if case in ("nan", "inf"):
        args += ["--potential", _raw_potential(tmp_path / "bad.json", float(case))]
    elif case in _NAN_FLAGS:
        args = [command, "--potential", pots["cos"], *_NAN_FLAGS[case],
                "--out", str(tmp_path / "run")]
    elif case in _BAD_POTENTIALS:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_BAD_POTENTIALS[case]))
        args += ["--potential", str(bad)]
    elif case in _CONFIGS:
        content, error = _CONFIGS[case]
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(json.dumps(content))
        args = ["--config", str(cfg), *args, "--potential", pots["cos"]]
    assert main(args) == 2
    assert json.loads((tmp_path / "run" / "error.json").read_text())["error"] == error


def test_non_finite_report_exits_3_and_leaves_no_report(pots, tmp_path, monkeypatch):
    # JSON cannot hold NaN: the report is refused before its file is opened
    monkeypatch.setattr(WeylCountReport, "to_dict", lambda self: {"volume": math.nan})
    out = tmp_path / "run"
    rc = main(["weyl-count", "--potential", pots["cos"], "--hbar", "0.5",
               "--window", "0,2", "--K", "8", "--out", str(out)])
    assert rc == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ArithmeticError"
    # error.json keeps its bytes: keys in order, two-space indent, final newline
    assert (out / "error.json").read_text() == json.dumps(err, indent=2) + "\n"
    assert not (out / "weyl_count.json").exists()
    assert not (out / "manifest.json").exists()


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


def test_egorov_manifest_lists_the_cutoff_groups(pots, tmp_path):
    # one group at K = 8: 49 distinct rows (hbar/2) s for hbar 0.5 and 0.25
    # on a 64-point grid, of which the 33 with |eta| <= 2 are flowed
    out = tmp_path / "run"
    assert main(["egorov", "--potential", pots["cos"], "--hbar", "0.5,0.25",
                 "--K", "8", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"] == [{"K": 8, "hbar": [0.5, 0.25],
                                        "lattice_points": 49 * 64, "flowed_points": 33 * 64}]


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("torusspec ")]
    assert len(lines) == 7
    parser, _ = _build_parser()

    def parses(line):
        try:
            parser.parse_args(shlex.split(line)[1:])
        except ValueError:
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
