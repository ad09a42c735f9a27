"""The four benchmark workloads.

Each workload builds its inputs from the seed (untimed set-up), runs a
timed body through torusspec's public API and its in-process CLI, and then
checks every output against an oracle outside the timed region.  The seed
moves only phases, amplitudes and coefficient draws, inside ranges that
leave the amount of work and the validity of every gate unchanged, so all
seeds do the same work.  Gates are the acceptance-test tolerances
(tests/test_acceptance.py, tests/test_spectra.py) or exact references.
README.md in this directory records why each workload exists.

A workload is an object with:

- ``build(seed, workdir)``: inputs (potentials, symbols, maps, files);
- ``run(inputs)``: the timed body, one entry per operation, an exception
  standing for an operation that raised;
- ``observe(inputs, raw)``: plain values read back from the outputs;
- ``gates(inputs, values)``: ``(operation, ok, detail)`` triples;
- ``perturb(values)``: a copy with one output moved off its oracle, which
  the gates must reject;
- ``hbar_err(inputs, values)``: max |Hbar computed - Hbar closed form| over
  the pass's momenta, 0.0 when the pass computes no Hbar.
"""

from __future__ import annotations

import copy
import itertools
import math
import numpy as np

import oracles
from torusspec import (cli, dynamics, effective, isospectral, potentials,
                       propagation, spectra, symbols)

TWO_PI = 2.0 * math.pi


def attempt(out: dict, op: str, fn, *args, **kwargs) -> None:
    """Run one operation; a raise is recorded as that operation's output."""
    try:
        out[op] = fn(*args, **kwargs)
    except Exception as exc:   # every failure mode counts against failed_ratio
        out[op] = exc


def _gate(op, values, check):
    """Apply ``check(value) -> (ok, detail)`` unless the operation raised."""
    value = values[op]
    if isinstance(value, Exception):
        return [(op, False, f"raised {type(value).__name__}: {value}")]
    ok, detail = check(value)
    return [(op, bool(ok), detail)]


def _observe_plain(inputs, raw):
    return dict(raw)


class Spectral:
    """Dense assembly, eigensolves and the closed-form (action) route."""

    name = "spectral"
    K2 = 20                          # 2D box |k| <= 20: N = 1681
    HBARS2 = (0.5,)
    CLI_RUNS = ((0.1, 57), (0.05, 114))
    BS_WINDOW = (1.5, 3.0)
    TABLE = (2.0, 0.5)               # p_max, dp

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        coeffs = {(0, 0): rng.uniform(-0.5, 0.5)}
        for q in itertools.product(range(-2, 3), repeat=2):
            if q > (0, 0):           # one of each +-q pair
                c = complex(*rng.uniform(-0.5, 0.5, 2))
                coeffs[q] = c
                coeffs[(-q[0], -q[1])] = c.conjugate()
        pot2 = potentials.FourierPotential(2, coeffs)
        pair = isospectral.make_pair(pot2, "translate", tuple(rng.uniform(0.0, TWO_PI, 2)))
        # the 1D potentials stay unshifted: a phase moves the maximum of V off
        # the 4096-point scan grid, and the action quadrature then does up to
        # 4x the work, so a seeded phase would change the work size
        cos_path = workdir / "cos.json"
        potentials.save_potential(potentials.cosine((1,)), cos_path)
        table_pot = potentials.cosine((1,)) + potentials.sine((2,), 0.5)
        return {"pair": pair, "cos_path": cos_path, "table_pot": table_pot,
                "workdir": workdir}

    def _pair(self, pair, hbar):
        left = spectra.eigen_spectrum(spectra.assemble_hamiltonian(pair.left, hbar, self.K2))
        right = spectra.eigen_spectrum(spectra.assemble_hamiltonian(pair.right, hbar, self.K2))
        return left.eigenvalues, right.eigenvalues

    def _cli(self, command, inputs, hbar, K):
        out = inputs["workdir"] / f"{command}-{hbar}"
        code = cli.main([command, "--potential", str(inputs["cos_path"]),
                         "--hbar", repr(hbar), "--K", str(K), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"torusspec {command} exited with {code}")
        return out

    def run(self, inputs):
        out = {}
        for hb in self.HBARS2:
            attempt(out, f"pair@{hb}", self._pair, inputs["pair"], hb)
        for hb, K in self.CLI_RUNS:
            attempt(out, f"spectrum@{hb}", self._cli, "spectrum", inputs, hb, K)
            attempt(out, f"bs@{hb}", self._cli, "bs-reconstruct", inputs, hb, K)
        attempt(out, "table", effective.closed_form_table, inputs["table_pot"], *self.TABLE)
        return out

    def observe(self, inputs, raw):
        values = dict(raw)
        for op, out in raw.items():
            if isinstance(out, Exception):
                continue
            if op.startswith("spectrum@"):
                values[op] = np.loadtxt(out / "spectrum.csv", delimiter=",",
                                        skiprows=1, usecols=2, ndmin=1)
            elif op.startswith("bs@"):
                # columns ell, P, E, Hbar_closed_form, misfit
                values[op] = np.loadtxt(out / "bs.csv", delimiter=",", skiprows=1, ndmin=2)
        # the CSV artifacts; manifest.json varies with the run (wall time, paths)
        values["artifact_bytes"] = sum(f.stat().st_size for f in inputs["workdir"].rglob("*.csv"))
        return values

    def gates(self, inputs, values):
        out = []
        for hb in self.HBARS2:
            def pair_ok(v):
                left, right = v
                if left.shape != right.shape:
                    return False, "eigenvalue counts differ"
                dist = float(np.max(np.abs(np.sort(left) - np.sort(right))))
                return dist <= 1e-10, f"pair distance {dist:.2e} (gate 1e-10)"
            out += _gate(f"pair@{hb}", values, pair_ok)
        misfits = {}
        for hb, K in self.CLI_RUNS:
            def spectrum_ok(ev, hb=hb, K=K):
                if ev.size != 2 * K + 1:
                    return False, f"{ev.size} eigenvalues, expected {2 * K + 1}"
                kept = ev[ev <= hb * hb * (K + 1) ** 2 / 4.0]
                err = float(np.max(np.abs(kept - oracles.mathieu_energies(hb, 1.0, kept.size))))
                return err <= 1e-12, f"Mathieu error {err:.2e} over {kept.size} levels (gate 1e-12)"
            out += _gate(f"spectrum@{hb}", values, spectrum_ok)

            def bs_ok(rows, hb=hb):
                energy, misfit = rows[:, 2], rows[:, 4]
                window = misfit[(energy >= self.BS_WINDOW[0]) & (energy <= self.BS_WINDOW[1])]
                if window.size == 0:
                    return False, "no reconstructed level in the window"
                misfits[hb] = float(np.max(window))
                return True, f"max misfit {misfits[hb]:.3e}"
            out += _gate(f"bs@{hb}", values, bs_ok)
        (h1, _), (h2, _) = self.CLI_RUNS
        if h1 in misfits and h2 in misfits:
            ratio = misfits[h1] / misfits[h2]
            out.append((f"bs@{h2}", ratio >= 3.0, f"misfit ratio {ratio:.2f} (gate >= 3)"))

        def table_ok(table):
            certs = table.certificates
            pts = table.points()
            flat = table.values.reshape(-1)
            upper = 0.5 * np.sum(pts ** 2, axis=1) + table.v_max
            ok = (certs.convex and certs.convex_defect <= 1e-6 and certs.even_defect <= 1e-6
                  and certs.bound_defect <= 1e-6 and np.all(flat >= table.v_max - 1e-6)
                  and np.all(flat <= upper + 1e-6))
            return ok, (f"convex {certs.convex_defect:.1e} even {certs.even_defect:.1e} "
                        f"bound {certs.bound_defect:.1e} (gates 1e-6)")
        out += _gate("table", values, table_ok)
        return out

    def perturb(self, values):
        moved = dict(values)
        op = f"spectrum@{self.CLI_RUNS[-1][0]}"
        if not isinstance(moved[op], Exception):
            moved[op] = moved[op].copy()
            moved[op][3] += 1e-6
        return moved

    def hbar_err(self, inputs, values):
        errs = [abs(ref - oracles.cosine_hbar(1.0, P))
                for hb, _ in self.CLI_RUNS
                if not isinstance(values[f"bs@{hb}"], Exception)
                for P, ref in values[f"bs@{hb}"][:, [1, 3]]]
        return max(errs, default=0.0)


class Cell2D:
    """The 2D cell problem: Newton steps, each a sparse LU factorization."""

    name = "cell2d"
    GRID = 80
    CENTERS = ((1.6, 2.1), (2.1, 1.6), (2.4, 2.4))
    JITTER = 0.05

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.9, 1.1, 2)
        phases = rng.uniform(0.0, TWO_PI, 2)
        pot = (potentials.cosine((1, 0), amps[0]).translate((phases[0], 0.0))
               + potentials.cosine((0, 1), amps[1]).translate((0.0, phases[1])))
        momenta = np.asarray(self.CENTERS) + rng.uniform(-self.JITTER, self.JITTER, (3, 2))
        return {"H": symbols.mechanical_symbol(pot), "amps": amps, "momenta": momenta}

    def run(self, inputs):
        out = {}
        for i, P in enumerate(inputs["momenta"]):
            attempt(out, f"cell@{i}", lambda P=P: effective.cell_problem_solve(
                inputs["H"], P, self.GRID).value)
        return out

    observe = staticmethod(_observe_plain)

    def _oracle(self, inputs, i):
        a1, a2 = inputs["amps"]
        P1, P2 = inputs["momenta"][i]
        return oracles.cosine_hbar(a1, P1) + oracles.cosine_hbar(a2, P2)

    def gates(self, inputs, values):
        out = []
        for i in range(len(self.CENTERS)):
            ref = self._oracle(inputs, i)
            out += _gate(f"cell@{i}", values, lambda v, ref=ref: (
                abs(v - ref) <= 5e-3, f"|Hbar - closed form| {abs(v - ref):.2e} (gate 5e-3)"))
        return out

    def perturb(self, values):
        moved = dict(values)
        if not isinstance(moved["cell@0"], Exception):
            moved["cell@0"] = moved["cell@0"] + 1e-2
        return moved

    def hbar_err(self, inputs, values):
        return max((abs(values[f"cell@{i}"] - self._oracle(inputs, i))
                    for i in range(len(self.CENTERS))
                    if not isinstance(values[f"cell@{i}"], Exception)), default=0.0)


class Egorov:
    """Quantized flows: many small flow batches inside the Weyl numeric path."""

    name = "egorov"
    K = 24
    HBARS = (0.2, 0.1, 0.05)
    FREE_HBARS = (0.2, 0.1)

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        # one phase for observable and potential: a relative shift is a
        # different problem, on which the criterion-8 slope gate need not hold
        phase = rng.uniform(0.0, TWO_PI)
        observable = symbols.product_symbol(potentials.cosine((1,)).translate(phase),
                                            symbols.bump_profile(0.9, 1.2))
        pot = potentials.cosine((1,), rng.uniform(0.95, 1.05)).translate(phase)
        return {"a": observable, "pot": pot}

    def run(self, inputs):
        out = {}
        rule = lambda hbar: self.K   # noqa: E731 - fixed cutoff for every hbar
        attempt(out, "free", propagation.egorov_scaling, inputs["a"],
                potentials.zero_potential(1), 1.0, self.FREE_HBARS, cutoff_rule=rule)
        attempt(out, "scaling", propagation.egorov_scaling, inputs["a"], inputs["pot"],
                1.0, self.HBARS, cutoff_rule=rule)
        return out

    def observe(self, inputs, raw):
        return {op: rep if isinstance(rep, Exception) else
                {"residuals": np.asarray(rep.residuals), "exact": rep.exact,
                 "slope": rep.slope}
                for op, rep in raw.items()}

    def gates(self, inputs, values):
        def free_ok(v):
            worst = float(np.max(v["residuals"]))
            return v["exact"] and worst <= 1e-8, f"free residual {worst:.1e} (gate 1e-8)"

        def scaling_ok(v):
            # the reported slope must hold the gate and agree with a fit of
            # the reported residuals made here
            res, slope = v["residuals"], v["slope"]
            refit = float(np.polyfit(np.log(self.HBARS), np.log(res), 1)[0])
            decreasing = bool(np.all(res[1:] < res[:-1]))
            ok = (not v["exact"] and decreasing and slope is not None
                  and 0.8 <= slope <= 1.5 and abs(slope - refit) <= 1e-9)
            return ok, (f"slope {slope} (gate [0.8, 1.5]), refit {refit:.6f}, "
                        f"decreasing {decreasing}")
        return _gate("free", values, free_ok) + _gate("scaling", values, scaling_ok)

    def perturb(self, values):
        moved = copy.deepcopy(values)
        if not isinstance(moved["free"], Exception):
            moved["free"]["residuals"][0] += 1e-6
        return moved

    def hbar_err(self, inputs, values):
        return 0.0


class Invariance:
    """Hbar under a symplectic map: one large RK4 flow for the spline table."""

    name = "invariance"
    GRID = 128
    P_VALUES = (0.0, 1.0, 2.0)

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        amp = rng.uniform(0.9, 1.1)
        H = symbols.mechanical_symbol(potentials.cosine((1,), amp).translate(rng.uniform(0.0, TWO_PI)))
        gen = potentials.sine((1,), rng.uniform(0.08, 0.12)).translate(rng.uniform(0.0, TWO_PI))
        phi = dynamics.time_one_map(symbols.product_symbol(gen, symbols.bump_profile(3.0, 6.0)), 1e-2)
        return {"H": H, "phi": phi, "amp": amp}

    def run(self, inputs):
        out = {}
        attempt(out, "invariance", effective.invariance_check, inputs["H"], inputs["phi"],
                self.P_VALUES, self.GRID, defect_probes=16)
        return out

    def observe(self, inputs, raw):
        rep = raw["invariance"]
        if isinstance(rep, Exception):
            return dict(raw)
        return {"invariance": {"base": np.asarray(rep.base_values),
                               "mapped": np.asarray(rep.mapped_values),
                               "defect": rep.symplectic_defect}}

    def gates(self, inputs, values):
        ref = oracles.cosine_hbar(inputs["amp"], self.P_VALUES[2])

        def check(v):
            dist = float(np.max(np.abs(v["base"] - v["mapped"])))
            err = abs(float(v["base"][2]) - ref)
            ok = v["defect"] <= 1e-4 and dist <= 1e-2 and err <= 1e-3
            return ok, (f"defect {v['defect']:.1e} (gate 1e-4), distance {dist:.1e} "
                        f"(gate 1e-2), |Hbar(2) - closed form| {err:.1e} (gate 1e-3)")
        return _gate("invariance", values, check)

    def perturb(self, values):
        moved = copy.deepcopy(values)
        if not isinstance(moved["invariance"], Exception):
            moved["invariance"]["base"][2] += 1e-2
        return moved

    def hbar_err(self, inputs, values):
        v = values["invariance"]
        if isinstance(v, Exception):
            return 0.0
        refs = np.array([oracles.cosine_hbar(inputs["amp"], P) for P in self.P_VALUES])
        return float(max(np.max(np.abs(v["base"] - refs)), np.max(np.abs(v["mapped"] - refs))))


WORKLOADS = {w.name: w for w in (Spectral(), Cell2D(), Egorov(), Invariance())}
