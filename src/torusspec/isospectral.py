"""Isospectral pairs and what the spectrum does (and does not) determine.

Translations and reflections of the potential conjugate the Hamiltonian by
unitaries, so the spectrum is exactly invariant; the effective Hamiltonian
is invariant too.  This module builds such pairs, compares spectra and
effective tables across a pair, extracts the leading Weyl invariant from
counting data, and reconstructs the effective Hamiltonian above the
separatrix from eigenvalue doublets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .effective import action_J, cell_problem_solve, effective_1d
from .potentials import TWO_PI, FourierPotential, potential_extrema
from .spectra import SpectrumResult, assemble_hamiltonian, eigen_spectrum, write_csv
from .symbols import mechanical_symbol

_PROBE_TOL = 1e-10


@dataclass(frozen=True)
class IsospectralPair:
    left: FourierPotential
    right: FourierPotential
    relation: str


def _probe_defect(left: FourierPotential, right: FourierPotential,
                  relation: str, shift=None) -> float:
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, TWO_PI, size=(64, left.dim))
    if shift is not None:
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if relation == "translate":
        ref = left.evaluate(x + shift[None, :])
    elif relation == "reflect":
        ref = left.evaluate(-x)
    elif relation == "compose":
        ref = left.evaluate(-(x + shift[None, :]))
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return float(np.max(np.abs(right.evaluate(x) - ref)))


def make_pair(pot: FourierPotential, relation: str, shift=None) -> IsospectralPair:
    """Exactly isospectral partner by translation, reflection, or both."""
    if relation in ("translate", "compose") and shift is None:
        raise ValueError(f"{relation} needs a shift")
    if relation == "translate":
        right = pot.translate(shift)
    elif relation == "reflect":
        right = pot.reflect()
    elif relation == "compose":
        # right(x) = V(-(x + a)): reflect, then shift the reflected profile
        right = pot.reflect().translate(shift)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    defect = _probe_defect(pot, right, relation, shift)
    if defect > _PROBE_TOL:
        raise ArithmeticError(f"pair construction probe defect {defect:.3e}")
    return IsospectralPair(left=pot, right=right, relation=relation)


def spectra_compare(a: SpectrumResult, b: SpectrumResult,
                    window: Optional[tuple] = None) -> float:
    """Max elementwise eigenvalue distance, inf on a count mismatch.

    With a window (lo, hi), only eigenvalues inside the open interval are
    compared; both lists must put the same number of them there.
    """
    la, lb = np.asarray(a.eigenvalues), np.asarray(b.eigenvalues)
    if window is not None:
        lo, hi = window
        la = la[(la > lo) & (la < hi)]
        lb = lb[(lb > lo) & (lb < hi)]
    if la.size != lb.size:
        return math.inf
    if la.size == 0:
        return 0.0
    return float(np.max(np.abs(np.sort(la) - np.sort(lb))))


# ---------------------------------------------------------------------------
# Theorem 2: isospectral => same effective Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    hbars: tuple
    spec_dists: tuple
    eff_dist: float
    verdict: str
    sampling_note: str

    def to_dict(self) -> dict:
        return {
            "hbar": list(self.hbars),
            "spec_dist": list(self.spec_dists),
            "eff_dist": self.eff_dist,
            "verdict": self.verdict,
            "sampling_note": self.sampling_note,
        }


def theorem2_check(pair: IsospectralPair, hbars: Sequence[float], cutoff: int,
                   p_values: Sequence, method: str = "closed-form",
                   grid: int = 64) -> Theorem2Report:
    """Spectra at each hbar plus effective Hamiltonians across the pair.

    Both distances must be small for the verdict "consistent": eigenvalues
    elementwise to 1e-8 (1+|E|), Hbar columns to 5e-3.  The
    check samples finitely many hbar and P, which is all a numerical
    verification can do; the note says so.
    """
    spec_dists = []
    for hb in hbars:
        sa = eigen_spectrum(assemble_hamiltonian(pair.left, hb, cutoff))
        sb = eigen_spectrum(assemble_hamiltonian(pair.right, hb, cutoff))
        la, lb = np.asarray(sa.eigenvalues), np.asarray(sb.eigenvalues)
        scale = 1.0 + np.maximum(np.abs(la), np.abs(lb))
        spec_dists.append(float(np.max(np.abs(la - lb) / scale)))

    if method == "closed-form":
        if pair.left.dim != 1:
            raise ValueError("closed form needs dimension one")
        ea = effective_1d(pair.left, np.asarray(p_values, dtype=float))
        eb = effective_1d(pair.right, np.asarray(p_values, dtype=float))
    elif method == "cell-problem":
        Ha, Hb = mechanical_symbol(pair.left), mechanical_symbol(pair.right)
        ea = np.array([cell_problem_solve(Ha, np.atleast_1d(p), grid).value
                       for p in p_values])
        eb = np.array([cell_problem_solve(Hb, np.atleast_1d(p), grid).value
                       for p in p_values])
    else:
        raise ValueError(f"unknown method {method!r}")
    eff_dist = float(np.max(np.abs(ea - eb)))

    ok = all(d <= 1e-8 for d in spec_dists) and eff_dist <= 5e-3
    verdict = "consistent" if ok else "violated"
    note = (f"sampled {len(list(hbars))} hbar values and {len(list(p_values))} "
            "momenta; agreement certifies nothing beyond these samples")
    return Theorem2Report(hbars=tuple(float(h) for h in hbars),
                          spec_dists=tuple(spec_dists),
                          eff_dist=eff_dist, verdict=verdict, sampling_note=note)


# ---------------------------------------------------------------------------
# Weyl first invariant from counting data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylInvariant:
    value: float
    slope: float
    hbars: tuple
    counts: tuple


def weyl_first_invariant(spectra: Sequence[SpectrumResult], energy: float) -> WeylInvariant:
    """Extrapolated J(E) from eigenvalue counts at several hbar.

    In one dimension N(E) ~ 2J(E)/hbar, so N*hbar/2 is fitted linearly in
    hbar and read off at hbar=0.  Three distinct hbar minimum.
    """
    if len(spectra) < 3:
        raise ValueError("need at least three spectra")
    hbars = np.array([s.hbar for s in spectra], dtype=float)
    if np.unique(hbars).size != hbars.size:
        raise ValueError("hbar values must be distinct")
    counts = []
    for s in spectra:
        if energy > s.trusted_energy:
            raise ValueError(f"energy {energy} beyond trusted range {s.trusted_energy}")
        counts.append(int(np.sum(np.asarray(s.eigenvalues) < energy)))
    scaled = np.array(counts, dtype=float) * hbars / 2.0
    slope, value = np.polyfit(hbars, scaled, 1)
    return WeylInvariant(value=float(value), slope=float(slope),
                         hbars=tuple(hbars), counts=tuple(counts))


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld reconstruction above the separatrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BSReconstruction:
    hbar: float
    ells: tuple
    momenta: tuple
    energies: tuple
    reference: tuple        # closed-form Hbar at the reconstructed momenta
    misfits: tuple

    def max_misfit(self, window: Optional[tuple] = None) -> float:
        es = np.asarray(self.energies)
        ms = np.asarray(self.misfits)
        if window is not None:
            mask = (es >= window[0]) & (es <= window[1])
            ms = ms[mask]
        if ms.size == 0:
            raise ValueError("no reconstructed levels in the window")
        return float(np.max(ms))


def bs_reconstruct(spec: SpectrumResult, pot: FourierPotential) -> BSReconstruction:
    """Pair rotational doublets into (P_ell, E_ell) samples of Hbar.

    Above max V the spectrum splits into +-ell doublets; each doublet mean
    estimates the energy at quantized momentum P_ell = ell*hbar (the Maslov
    correction is zero on the torus).  The starting index comes from
    rounding the action of the first doublet; everything past the trusted
    energy is dropped.
    """
    if pot.dim != 1:
        raise ValueError("reconstruction is one-dimensional")
    vmax = potential_extrema(pot).max_value
    evs = np.sort(np.asarray(spec.eigenvalues))
    evs = evs[(evs > vmax + 1e-9) & (evs <= spec.trusted_energy)]
    if evs.size < 2:
        raise ValueError("no doublets above the separatrix")
    if evs.size % 2 == 1:
        evs = evs[:-1]
    means = evs.reshape(-1, 2).mean(axis=1)
    ells = int(round(action_J(pot, float(means[0])) / spec.hbar)) + np.arange(means.size)
    momenta = ells * spec.hbar
    reference = effective_1d(pot, momenta)
    return BSReconstruction(hbar=spec.hbar, ells=tuple(ells.tolist()),
                            momenta=tuple(momenta.tolist()), energies=tuple(means.tolist()),
                            reference=tuple(reference.tolist()),
                            misfits=tuple(np.abs(means - reference).tolist()))


def write_bs_csv(path, rec: BSReconstruction) -> None:
    write_csv(path, "ell,P,E,Hbar_closed_form,misfit",
              zip(rec.ells, rec.momenta, rec.energies, rec.reference, rec.misfits))
