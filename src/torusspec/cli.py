"""Batch front-end: subcommands in, deterministic CSV/JSON artifacts out.

Every run writes its artifacts plus a manifest.json (input hashes, package
versions, wall time) into --out; failures, a refused command line included,
leave an error.json behind.  Exit codes: 0 success, 2 validation error, 3
numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .effective import (CellConvergenceError, cell_problem_solve,
                        effective_grid, write_effective_csv, write_hbar_csv)
from .isospectral import (bs_reconstruct, make_pair, theorem2_check, write_bs_csv)
from .potentials import cosine, load_potential, potential_extrema
from .propagation import egorov_scaling
from .spectra import (assemble_hamiltonian, auto_cutoff,
                      eigen_spectrum, weyl_count_report, write_report_json,
                      write_spectrum_csv)
from .symbols import bump_profile, mechanical_symbol, product_symbol

_PI_FORM = re.compile(r"^([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def _scalar(text: str) -> float:
    """Parse '1.5', 'pi', '-pi/2', '2pi' and friends; a value that is not
    finite, or a zero denominator, is refused with ValueError."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        m = _PI_FORM.match(text)
        if not m:
            raise ValueError(f"cannot parse number {text!r}") from None
        coeff = m.group(1)
        num = float(coeff) if coeff not in ("", "+", "-") else (-1.0 if coeff == "-" else 1.0)
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        value = num * math.pi / den
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _float_list(text: str):
    return [_scalar(tok) for tok in text.split(",") if tok.strip()]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_potential(args):
    if args.potential is None:
        raise ValueError("give --potential")
    return load_potential(args.potential)


def _resolve_cutoff(spec_text, pot, hbar, energy):
    if spec_text is None or spec_text == "auto":
        if energy is None:
            energy = potential_extrema(pot).max_value + 2.0
        return auto_cutoff(pot, hbar, energy)
    return int(spec_text)


def _write_manifest(outdir: Path, argv, inputs, outputs, t0, extra) -> None:
    manifest = {
        "command": list(argv),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "versions": {
            "torusspec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
        **extra,
    }
    write_report_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args, outdir: Path):
    pot = _load_potential(args)
    results = []
    diagnostics = []
    for hb in _float_list(args.hbar):
        K = _resolve_cutoff(args.K, pot, hb, args.energy)
        mat = assemble_hamiltonian(pot, hb, K)
        spec = eigen_spectrum(mat)
        results.append(spec)
        # JSON holds no inf: a window the cutoff does not resolve has no bound
        tail = spec.tail_bound if math.isfinite(spec.tail_bound) else None
        diagnostics.append({"hbar": spec.hbar, "K": K, "N": mat.basis.size,
                            "trusted_energy": spec.trusted_energy, "tail_bound": tail})
    out = outdir / "spectrum.csv"
    write_spectrum_csv(out, results)
    return [out], {"diagnostics": diagnostics}


def _cmd_weyl_count(args, outdir: Path):
    pot = _load_potential(args)
    window = _float_list(args.window)
    if len(window) != 2:
        raise ValueError("--window needs two numbers a,b")
    hbars = _float_list(args.hbar)

    def rule(hb):
        return _resolve_cutoff(args.K, pot, hb, args.energy or window[1])

    report = weyl_count_report(pot, hbars, tuple(window), rule)
    out = outdir / "weyl_count.json"
    write_report_json(out, report.to_dict())
    return [out]


def _cmd_effective(args, outdir: Path):
    pot = _load_potential(args)
    table = effective_grid(pot, args.pmax, args.dp, args.method, grid=args.grid)
    out_csv = outdir / "effective.csv"
    write_effective_csv(out_csv, table)
    out_json = outdir / "certificates.json"
    write_report_json(out_json, table.certificates.to_dict())
    return [out_csv, out_json], {"diagnostics": list(table.diagnostics)}


def _cmd_cell_solve(args, outdir: Path):
    pot = _load_potential(args)
    H = mechanical_symbol(pot)
    if not args.p:
        raise ValueError("give at least one --p point")
    rows = []
    diagnostics = []
    for ptxt in args.p:
        P = _float_list(ptxt)
        if len(P) != pot.dim:
            raise ValueError(f"P {ptxt!r} does not match dimension {pot.dim}")
        sol = cell_problem_solve(H, P, args.grid)
        rows.append((P, sol.value, sol.corrector.residual))
        diagnostics.append(sol.diagnostics())
    out = outdir / "cell.csv"
    write_hbar_csv(out, pot.dim, "cell-problem", rows)
    return [out], {"diagnostics": diagnostics}


def _cmd_egorov(args, outdir: Path):
    pot = _load_potential(args)
    if pot.dim != 1:
        raise ValueError("the bundled observable is one-dimensional")
    a = product_symbol(cosine((1,), 1.0), bump_profile(args.plateau, args.support))
    rule = None
    if args.K not in (None, "auto"):
        fixed = int(args.K)
        rule = lambda hb: fixed  # noqa: E731
    report = egorov_scaling(a, pot, args.t, _float_list(args.hbar),
                            cutoff_rule=rule, h=args.step)
    out = outdir / "egorov.json"
    write_report_json(out, report.to_dict())
    return [out], {"diagnostics": list(report.groups)}


def _parse_pair(args):
    if args.pair:
        m = re.match(r"^(.+?):([a-z]+)(?:=(.+))?$", args.pair)
        if not m:
            raise ValueError("--pair must look like file.json:translate=pi")
        path, relation, shift_text = m.group(1), m.group(2), m.group(3)
        pot = load_potential(path)
        shift = None
        if shift_text is not None:
            shift = _float_list(shift_text)
            if len(shift) == 1 and pot.dim > 1:
                shift = shift * pot.dim
        return make_pair(pot, relation, shift), [path]
    if not args.potential:
        raise ValueError("give --pair or --potential with --relation")
    pot = load_potential(args.potential)
    shift = _float_list(args.shift) if args.shift else None
    return make_pair(pot, args.relation, shift), [args.potential]


def _cmd_isospectral(args, outdir: Path):
    pair, inputs = _parse_pair(args)
    hbars = _float_list(args.hbar)
    K = int(args.K) if args.K not in (None, "auto") else \
        _resolve_cutoff("auto", pair.left, min(hbars), args.energy)
    pvals = list(np.arange(-args.pmax, args.pmax + args.dp / 2, args.dp)) \
        if pair.left.dim == 1 else \
        [(p1, p2) for p1 in (-1.0, 0.0, 1.0) for p2 in (-1.0, 0.0, 1.0)]
    report = theorem2_check(pair, hbars, K, pvals, method=args.method,
                            grid=args.grid)
    out = outdir / "theorem2.json"
    write_report_json(out, report.to_dict())
    return [out], {"inputs": inputs}


def _cmd_bs(args, outdir: Path):
    pot = _load_potential(args)
    hbars = _float_list(args.hbar)
    if len(hbars) != 1:
        raise ValueError("bs-reconstruct takes a single hbar")
    K = _resolve_cutoff(args.K, pot, hbars[0], args.energy)
    spec = eigen_spectrum(assemble_hamiltonian(pot, hbars[0], K))
    rec = bs_reconstruct(spec, pot)
    out = outdir / "bs.csv"
    write_bs_csv(out, rec)
    return [out]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would exit 2, so error.json reports it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _early(tokens):
    """--config and --out among ``tokens``, read before the full parse."""
    early = _Parser(prog="torusspec", add_help=False)
    early.add_argument("--config")
    early.add_argument("--out", default=".")
    return early.parse_known_args(tokens)[0]


def _with_config(argv, children):
    """argv with each --config key written as its flag, once per list
    element, right after the subcommand: the value goes through the flag's
    type, counts for a required flag, and loses to a later explicit flag."""
    i = 0   # the subcommand; before it the top level takes only --config and -h
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] or argv[i] in ("-h", "--help") else 2
    config = _early(argv[:i]).config
    if config is None or i >= len(argv) or argv[i] not in children:
        return argv
    with open(config, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"--config {config} must hold a JSON object")
    flags = {a.dest: a.option_strings[0] for a in children[argv[i]]._actions
             if a.option_strings and a.dest != "help"}
    # a key that no flag of the subcommand reads is a typo or a removed flag
    unread = sorted(set(loaded) - set(flags))
    if unread:
        raise ValueError(f"config keys no flag of {argv[i]} reads: {', '.join(unread)}")
    written = [f"{flags[k]}={x}" for k, v in loaded.items()
               for x in (v if isinstance(v, list) else [v])]
    return argv[:i + 1] + written + argv[i + 1:]


def _build_parser():
    parser = _Parser(prog="torusspec")
    parser.add_argument("--config", help="JSON file of flag values; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    children = {}

    def add_parser(name, **kw):
        children[name] = sub.add_parser(name, **kw)
        return children[name]

    def common(p, cutoff=True, energy=True):
        """Flags every subcommand takes, plus the cutoff flags it reads."""
        p.add_argument("--potential", help="potential JSON file")
        if cutoff:
            p.add_argument("--K", default=None, help="frequency cutoff, or 'auto'")
        if energy:
            p.add_argument("--energy", type=_scalar, default=None,
                           help="energy scale for the automatic cutoff")
        p.add_argument("--out", default=".", help="output directory")

    p = add_parser("spectrum", help="eigenvalues to CSV")
    common(p)
    p.add_argument("--hbar", required=True, help="comma-separated list")

    p = add_parser("weyl-count", help="counting vs phase-space volume")
    common(p)
    p.add_argument("--hbar", required=True)
    p.add_argument("--window", required=True, help="energy window a,b")

    p = add_parser("effective", help="effective Hamiltonian table")
    common(p, cutoff=False, energy=False)
    p.add_argument("--method", default="closed-form",
                   choices=["closed-form", "cell-problem"])
    p.add_argument("--pmax", type=_scalar, required=True)
    p.add_argument("--dp", type=_scalar, required=True)
    p.add_argument("--grid", type=int, default=0)

    p = add_parser("cell-solve", help="cell problem at explicit momenta")
    common(p, cutoff=False, energy=False)
    p.add_argument("--p", action="append", help="momentum point, comma separated")
    p.add_argument("--grid", type=int, default=256)

    p = add_parser("egorov", help="quantized-flow residual scaling")
    common(p, energy=False)
    p.add_argument("--hbar", required=True)
    p.add_argument("--t", type=_scalar, default=1.0)
    p.add_argument("--plateau", type=_scalar, default=0.9)
    p.add_argument("--support", type=_scalar, default=1.2)
    p.add_argument("--step", type=_scalar, default=1e-2)

    p = add_parser("isospectral-check", help="spectra and Hbar across a pair")
    common(p)
    p.add_argument("--pair", help="file.json:relation[=shift]")
    p.add_argument("--relation", choices=["translate", "reflect", "compose"])
    p.add_argument("--shift")
    p.add_argument("--hbar", required=True)
    p.add_argument("--pmax", type=_scalar, default=3.0)
    p.add_argument("--dp", type=_scalar, default=0.5)
    p.add_argument("--method", default="closed-form",
                   choices=["closed-form", "cell-problem"])
    p.add_argument("--grid", type=int, default=64)

    p = add_parser("bs-reconstruct", help="effective Hamiltonian from doublets")
    common(p)
    p.add_argument("--hbar", required=True)

    return parser, children


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "weyl-count": _cmd_weyl_count,
    "effective": _cmd_effective,
    "cell-solve": _cmd_cell_solve,
    "egorov": _cmd_egorov,
    "isospectral-check": _cmd_isospectral,
    "bs-reconstruct": _cmd_bs,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, children = _build_parser()
    outdir = Path(".")
    try:
        # error.json goes to --out (a config's too) even when parsing fails
        outdir = Path(_early(argv).out)
        full = _with_config(argv, children)
        outdir = Path(_early(full).out)
        args = parser.parse_args(full)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        # a subcommand returns its outputs, optionally with extra manifest
        # fields; "inputs" overrides the default --potential input
        produced = _DISPATCH[args.command](args, outdir)
        produced, extra = produced if isinstance(produced, tuple) else (produced, {})
        inputs = extra.pop("inputs", [args.potential] if getattr(args, "potential", None) else [])
        _write_manifest(outdir, argv, inputs, produced, t0, extra)
        return 0
    except SystemExit as exc:       # --help
        return int(exc.code) if exc.code else 0
    except (CellConvergenceError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _refuse(outdir, exc, 3)
    except (ValueError, KeyError, OSError) as exc:
        return _refuse(outdir, exc, 2)


def _refuse(outdir: Path, exc: Exception, code: int) -> int:
    """Write error.json into ``outdir``, report on stderr, return ``code``."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_report_json(outdir / "error.json",
                          {"error": type(exc).__name__, "message": str(exc)})
    except OSError:
        pass
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
