"""Plane-wave discretisation of -(hbar^2/2) Lap + V on the torus.

The basis is e_k(x) = (2pi)^(-n/2) exp(i k.x) over the box |k|_inf <= K in
lexicographic order.  For trigonometric-polynomial potentials the matrix
elements are exact: entry(k, mu) = (hbar^2/2)|mu|^2 delta_{k,mu} + c_{k-mu},
so no quadrature enters the assembly.

Eigenvalue counts are compared with the phase-space volume
Vol{a < |p|^2/2 + V < b}, a deterministic integral of the momentum-ball
measure over the torus: by adaptive quadrature between polished turning
points in 1D (``_momentum_integral``, which also gives the action J(E) in
``effective``), by a 256^2 grid mean of the annulus area in 2D.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .potentials import TWO_PI, FourierPotential, _grid_points, sup_norm

_HERM_TOL = 1e-12
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Integer frequency box |k|_inf <= cutoff, lexicographic order."""

    dim: int
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")

    @property
    def size(self) -> int:
        return (2 * self.cutoff + 1) ** self.dim

    def frequencies(self) -> np.ndarray:
        """All frequency vectors as an (size, dim) int array."""
        rng = range(-self.cutoff, self.cutoff + 1)
        return np.array(list(itertools.product(rng, repeat=self.dim)), dtype=int)

    def index(self) -> dict:
        """Map frequency tuple -> row index."""
        return {tuple(k): i for i, k in enumerate(self.frequencies())}

    def rows(self, ks) -> np.ndarray:
        """Row indices of in-box frequency vectors ks, shape (m, dim).

        row(k) = sum_i (k_i + K) (2K+1)^(n-1-i), the position in frequencies().
        """
        strides = (2 * self.cutoff + 1) ** np.arange(self.dim - 1, -1, -1)
        return (np.asarray(ks, dtype=int) + self.cutoff) @ strides

    def require_dense(self) -> None:
        """Refuse a dense size x size complex matrix larger than physical memory."""
        nbytes = 16 * self.size ** 2
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if nbytes > physical:
            raise ValueError(
                f"dense matrix of size N={self.size} needs {nbytes} bytes, "
                f"more than the {physical} bytes of physical memory")

    def band_matrix(self, shifts, entry) -> np.ndarray:
        """Dense matrix with entry(q, k) at rows row(k + q) and columns row(k).

        For each shift q, k runs in ascending row order over the frequencies
        whose k + q stays in the box; entry returns one value per k (or a
        scalar).  Entries on no shift's band are zero.
        """
        self.require_dense()
        freqs = self.frequencies()
        mat = np.zeros((self.size, self.size), dtype=complex)
        for q in shifts:
            shifted = freqs + np.asarray(q, dtype=int)
            cols = np.flatnonzero(np.all(np.abs(shifted) <= self.cutoff, axis=1))
            mat[self.rows(shifted[cols]), cols] = entry(q, freqs[cols])
        return mat


@dataclass(frozen=True)
class PlaneWaveMatrix:
    """A dense operator on a plane-wave basis at one hbar."""

    hbar: float
    basis: PlaneWaveBasis
    matrix: np.ndarray

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


@dataclass(frozen=True)
class HamiltonianMatrix(PlaneWaveMatrix):
    """Assembled plane-wave matrix together with its provenance."""

    potential: FourierPotential


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues of one plane-wave discretisation.

    trusted_energy marks the window edge below which the truncation is
    considered resolved; tail_bound is the Fourier-tail estimate at that
    energy (zero for a constant potential).
    """

    hbar: float
    cutoff: int
    eigenvalues: np.ndarray
    trusted_energy: float
    tail_bound: float


def assemble_hamiltonian(pot: FourierPotential, hbar: float, K: int) -> HamiltonianMatrix:
    """Assemble the (2K+1)^n square matrix.  Exact for trig-polynomial V."""
    hbar = float(hbar)
    if not (0.0 < hbar <= 1.0):
        raise ValueError("hbar out of range (0, 1]")
    K = int(K)
    if K < pot.max_frequency:
        raise ValueError(
            f"cutoff K={K} below potential bandwidth {pot.max_frequency}")
    basis = PlaneWaveBasis(pot.dim, K)
    mat = basis.band_matrix(pot.coeffs, lambda q, k: pot.coeffs[q])
    kin = 0.5 * hbar * hbar * np.sum(basis.frequencies().astype(float) ** 2, axis=1)
    mat[np.diag_indices(basis.size)] += kin
    return HamiltonianMatrix(hbar=hbar, basis=basis, matrix=mat, potential=pot)


def _trusted_energy(hbar: float, K: int) -> float:
    # Half the kinetic energy of the first excluded shell: below this level
    # every excluded mode satisfies (hbar^2/2)|k|^2 - E >= E.
    return hbar * hbar * (K + 1) ** 2 / 4.0


def _spectrum_from(mat: HamiltonianMatrix, eigenvalues: np.ndarray) -> SpectrumResult:
    e_trust = _trusted_energy(mat.hbar, mat.basis.cutoff)
    try:
        tail = truncation_tail_bound(mat.potential, mat.hbar, mat.basis.cutoff, e_trust)
    except ValueError:
        tail = math.inf
    return SpectrumResult(
        hbar=mat.hbar,
        cutoff=mat.basis.cutoff,
        eigenvalues=np.sort(eigenvalues.real),
        trusted_energy=e_trust,
        tail_bound=tail,
    )


def eigen_spectrum(mat: HamiltonianMatrix) -> SpectrumResult:
    """All eigenvalues, ascending."""
    defect = mat.hermitian_defect()
    if defect > _HERM_TOL * max(1.0, float(np.max(np.abs(mat.matrix)))):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals = np.linalg.eigvalsh(mat.matrix)
    return _spectrum_from(mat, vals)


def eigen_system(mat: HamiltonianMatrix):
    """Eigenvalues and eigenvectors, with a residual check on every pair."""
    defect = mat.hermitian_defect()
    if defect > _HERM_TOL * max(1.0, float(np.max(np.abs(mat.matrix)))):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(mat.matrix)
    residual = np.max(np.abs(mat.matrix @ vecs - vecs * vals[None, :]), axis=0)
    allowed = _RESIDUAL_TOL * (1.0 + np.abs(vals))
    if np.any(residual > allowed):
        raise ArithmeticError("eigenpair residual beyond tolerance")
    return _spectrum_from(mat, vals), vecs


# -- truncation control --------------------------------------------------


def truncation_tail_bound(pot: FourierPotential, hbar: float, K: int, energy: float) -> float:
    """Fourier-tail bound sum_{|k|_inf > K} (||V||_C0 / ((hbar^2/2)|k|^2 - E))^2.

    The potential norm enters with the mean removed (a constant shift does
    not couple modes), so the zero potential gives a zero tail.
    """
    hbar = float(hbar)
    energy = float(energy)
    K = int(K)
    a = 0.5 * hbar * hbar
    if a * K * K <= energy:
        raise ValueError("cutoff insufficient for energy E (window not resolved)")
    norm = sup_norm(pot, remove_mean=True)
    if norm == 0.0:
        return 0.0
    n = pot.dim
    if n == 1:
        cap = max(10_000, 4 * K)
        k = np.arange(K + 1, cap + 1, dtype=float)
        total = 2.0 * float(np.sum((norm / (a * k * k - energy)) ** 2))
        # integral remainder beyond the cap, using a r^2 - E >= a r^2 (1 - theta)
        theta = energy / (a * cap * cap)
        total += 2.0 * (norm / (a * (1.0 - theta))) ** 2 / (3.0 * cap ** 3)
        return total
    cap = max(512, 4 * K)
    axis = np.arange(-cap, cap + 1)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    sq = sum(g.astype(float) ** 2 for g in grids)
    outside = np.maximum.reduce([np.abs(g) for g in grids]) > K
    total = float(np.sum((norm / (a * sq[outside] - energy)) ** 2))
    if n == 2:
        # shells |k|_inf = m carry 8m points and |k|^2 >= m^2 on each
        total += 4.0 * norm * norm / (a * (a * cap * cap - energy))
    else:
        total += (norm / (a * cap * cap - energy)) ** 2 * (2 * cap + 1) ** n / cap
    return total


@dataclass(frozen=True)
class CutoffCertificate:
    """Constants of the exponential mode-reduction estimate, for reporting.

    g_cutoff is the number of retained modes demanded by the estimate; it is
    astronomically large for small hbar, which is why runs use a user cutoff
    plus the a-posteriori tail bound instead.
    """

    energy_scale: float
    c_bar: float
    constant: float
    g_cutoff: float
    tail_at_quarter: float


def cutoff_certificate(pot: FourierPotential, energy_scale: float, hbar: float) -> CutoffCertificate:
    """Constants C(b) = ||V|| * Cbar(b) * (sum |k|^-3)^(1/2) and the cutoff g."""
    b = float(energy_scale)
    if b <= 0:
        raise ValueError("energy scale must be positive")
    hbar = float(hbar)
    if not (0.0 < hbar <= 1.0):
        raise ValueError("hbar out of range (0, 1]")
    # sup over 0 < h <= 1 of h^-2 exp(-1/(2h)) is at h = 1/4
    sup_h = 16.0 * math.exp(-2.0)
    c_bar = 4.0 * (2.0 * b) ** (-0.5) * sup_h
    n = pot.dim
    if n == 1:
        zsum = 2.0 * sum(1.0 / k ** 3 for k in range(1, 200_000))
    else:
        cap = 400
        axis = np.arange(-cap, cap + 1)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
        r[r == 0] = np.inf
        zsum = float(np.sum(r ** -3.0))
    norm = sup_norm(pot)
    constant = norm * c_bar * math.sqrt(zsum)
    return CutoffCertificate(
        energy_scale=b,
        c_bar=c_bar,
        constant=constant,
        g_cutoff=2.0 * b * hbar ** -2 * math.exp(1.0 / hbar),
        tail_at_quarter=constant * math.exp(-1.0 / (4.0 * hbar)),
    )


def auto_cutoff(pot: FourierPotential, hbar: float, energy: float) -> int:
    """Smallest K that resolves the window up to `energy` and the potential band."""
    need = int(math.ceil(2.0 * math.sqrt(max(energy, 0.0)) / hbar))
    return max(pot.max_frequency, need, 4)


# -- counting and phase-space volume --------------------------------------


def count_eigenvalues(spec: SpectrumResult, a: float, b: float) -> int:
    """Number of eigenvalues in the open window (a, b), multiplicity counted."""
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("window must satisfy a < b")
    if b > spec.trusted_energy:
        warnings.warn(
            f"window edge {b} exceeds trusted energy {spec.trusted_energy:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    vals = spec.eigenvalues
    return int(np.count_nonzero((vals > a) & (vals < b)))


def _momentum_integral(pot: FourierPotential, energy: float, xs, vals):
    """integral of sqrt(2 (E - V(x)))_+ over one period [x0, x0 + 2pi] of a
    1D potential, with the quadrature's error estimate.

    vals holds V on the uniform scan xs of [x0, x0 + 2pi), x0 = xs[0].  Each
    sign change of V - E between neighbouring scan points (the last pair
    wraps round) is polished to its root, the turning point.  Those roots and
    the scan's argmax, where the integrand is least smooth near max V, are
    the break points.  A one-point scan at x* = argmax V puts its kink on the ends.
    """
    def v(x):
        return pot.evaluate(np.atleast_1d(x))[0]

    def root(lo, hi):
        f_lo, f_hi = v(lo) - energy, v(hi) - energy
        if f_lo * f_hi > 0.0:       # the scan and a point evaluation round apart
            return lo if abs(f_lo) < abs(f_hi) else hi
        return optimize.brentq(lambda x: v(x) - energy, lo, hi, xtol=1e-15)

    x0 = float(xs[0])
    ends = np.append(xs, x0 + TWO_PI)
    signs = np.sign(np.append(vals, vals[0]) - energy)
    pts = {float(xs[np.argmax(vals)])}
    pts.update(root(ends[i], ends[i + 1]) for i in np.nonzero(np.diff(signs))[0])
    pts = sorted(p for p in pts if x0 + 1e-9 < p < x0 + TWO_PI - 1e-9)
    val, err = integrate.quad(lambda x: math.sqrt(max(2.0 * (energy - v(x)), 0.0)),
                              x0, x0 + TWO_PI, limit=300, epsabs=1e-12, epsrel=1e-12,
                              points=pts if pts else None)
    return float(val), float(err)


@dataclass(frozen=True)
class VolumeEstimate:
    """Phase-space volume of {a < H < b} with its error estimate."""

    value: float
    std_error: float
    empty: bool


def weyl_volume(pot: FourierPotential, a: float, b: float) -> VolumeEstimate:
    """Vol{(x, p): a < |p|^2/2 + V(x) < b}.

    The momentum slice at x is a shell of the ball measure: length
    2 (sqrt(2(b - V))_+ - sqrt(2(a - V))_+) in one dimension, area
    2 pi ((b - V)_+ - (a - V)_+) in two.  In 1D the x-integral is
    ``_momentum_integral`` at a and at b, and std_error the sum of their
    quadrature errors.  In 2D it is the mean over a 256^2 grid, and
    std_error its distance to the mean over the nested 128^2 grid.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("window must satisfy a < b")
    if pot.dim == 1:
        xs = np.arange(4096) * (TWO_PI / 4096)
        vals = pot.evaluate(xs)
        (i_b, err_b), (i_a, err_a) = (_momentum_integral(pot, e, xs, vals) for e in (b, a))
        value, se = 2.0 * (i_b - i_a), 2.0 * (err_b + err_a)
    elif pot.dim == 2:
        axis = np.arange(256) * (TWO_PI / 256)
        v = pot.evaluate(_grid_points([axis, axis])).reshape(256, 256)
        # torus area (2 pi)^2 times the annulus area 2 pi ((b - V)_+ - (a - V)_+)
        shell = TWO_PI ** 3 * (np.maximum(b - v, 0.0) - np.maximum(a - v, 0.0))
        value = float(np.mean(shell))
        se = abs(value - float(np.mean(shell[::2, ::2])))
    else:
        raise ValueError("volume implemented for dimensions 1 and 2")
    if value < 1e-13:
        return VolumeEstimate(0.0, se, True)
    return VolumeEstimate(value, se, False)


@dataclass(frozen=True)
class WeylCountReport:
    """Counting function N(hbar, a, b) against the phase-space volume."""

    window: tuple
    hbars: tuple
    counts: tuple
    scaled: tuple            # N(hbar) * (2 pi hbar)^n
    volume: VolumeEstimate
    trusted: tuple

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "hbar": list(self.hbars),
            "count": list(self.counts),
            "scaled": list(self.scaled),
            "volume": self.volume.value,
            "volume_std_error": self.volume.std_error,
            "trusted": list(self.trusted),
        }


def weyl_count_report(pot: FourierPotential, hbars, window, K) -> WeylCountReport:
    """Counts over an hbar list with the matching volume estimate.

    K may be an integer (shared cutoff) or a callable hbar -> K.
    """
    a, b = float(window[0]), float(window[1])
    counts = []
    trusted = []
    scaled = []
    n = pot.dim
    for hb in hbars:
        cut = K(hb) if callable(K) else int(K)
        spec = eigen_spectrum(assemble_hamiltonian(pot, hb, cut))
        trusted.append(bool(b <= spec.trusted_energy))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cnt = count_eigenvalues(spec, a, b)
        counts.append(cnt)
        scaled.append(cnt * (TWO_PI * hb) ** n)
    vol = weyl_volume(pot, a, b)
    return WeylCountReport(
        window=(a, b),
        hbars=tuple(float(h) for h in hbars),
        counts=tuple(counts),
        scaled=tuple(scaled),
        volume=vol,
        trusted=tuple(trusted),
    )


# -- export ---------------------------------------------------------------

FLOAT_FMT = "%.12e"


def write_csv(path, header: str, rows) -> None:
    """Header line plus one line per row of cells.

    String cells are written as they are, integer cells with str() and every
    other cell with FLOAT_FMT, so the artifacts are byte-deterministic.
    """
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(v)
        return FLOAT_FMT % v

    lines = [header] + [",".join(cell(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_spectrum_csv(path, results) -> None:
    """CSV columns hbar,index,eigenvalue with a pinned float format."""
    write_csv(path, "hbar,index,eigenvalue",
              ((spec.hbar, i, ev) for spec in results
               for i, ev in enumerate(spec.eigenvalues)))


def write_report_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
