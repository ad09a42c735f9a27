"""Plane-wave discretisation of -(hbar^2/2) Lap + V on the torus.

The basis is e_k(x) = (2pi)^(-n/2) exp(i k.x) over the box |k|_inf <= K in
lexicographic order.  For trigonometric-polynomial potentials the matrix
elements are exact: entry(k, mu) = (hbar^2/2)|mu|^2 delta_{k,mu} + c_{k-mu},
so no quadrature enters the assembly.

The matrix is assembled and solved in real symmetric form.  V is real, so
H commutes with complex conjugation composed with k -> -k, and the
lexicographic box has row(-k) = N-1-row(k).  With J the row reversal this
reads J H J = conj(H): H is centrohermitian.  In the unitary basis e_0,
(e_k + e_-k)/sqrt2 and i(e_k - e_-k)/sqrt2, k over the first half of the
box, such a matrix is real symmetric (A. Lee, Centrohermitian and
skew-centrohermitian matrices, Linear Algebra Appl. 29, 1980), and a real
solve does about a quarter of a complex one's flops.  ``FourierPotential``
refuses coefficients with c_{-q} != conj(c_q), so ``assemble_hamiltonian``
writes that real matrix straight from the coefficients and the complex one
is never formed.

Eigenvalue counts are compared with the phase-space volume
Vol{a < |p|^2/2 + V < b}, a deterministic integral of the momentum-ball
measure over the torus: in 1D by one tanh-sinh run over panels that end at
the polished turning points and local maxima (``_panels`` and
``_momentum_integral``, which also give the action J(E) in ``effective``),
in 2D by a 256^2 grid mean of the annulus area.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize.elementwise import find_root

from .potentials import TWO_PI, FourierPotential, _grid_points, potential_extrema, sup_norm


def _physical_memory() -> int:
    """Bytes of physical memory, the budget of every refusal before allocation."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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

    def rows(self, ks) -> np.ndarray:
        """Row indices of in-box frequency vectors ks, shape (m, dim).

        row(k) = sum_i (k_i + K) (2K+1)^(n-1-i), the position in frequencies().
        """
        strides = (2 * self.cutoff + 1) ** np.arange(self.dim - 1, -1, -1)
        return (np.asarray(ks, dtype=int) + self.cutoff) @ strides

    def require_dense(self) -> None:
        """Refuse dense work that does not fit in physical memory: two
        size x size complex matrices (16 N^2 bytes each), as ``propagate``
        holds its eigenvectors and U at once.  A Weyl matrix takes one, and
        the real form of eigen_spectrum with LAPACK's copy of it as much."""
        nbytes, physical = 16 * self.size ** 2, _physical_memory()
        if 2 * nbytes > physical:
            raise ValueError(
                f"dense matrix of size N={self.size} needs {nbytes} bytes and its "
                f"eigensolve {2 * nbytes} in all, more than the {physical} bytes "
                f"of physical memory")

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


@dataclass(frozen=True)
class HamiltonianMatrix(PlaneWaveMatrix):
    """The Schrodinger operator -(hbar^2/2) Lap + V on a plane-wave basis,
    with the potential it came from.

    Unlike a WeylMatrix, whose matrix is on the basis e_k itself, matrix is
    the real symmetric R = Q^H H Q of ``assemble_hamiltonian``: on the
    cos/sin basis, whose columns Q are listed there.
    """

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
    """The (2K+1)^n square matrix of H in its real cos/sin form.  Exact for
    trig-polynomial V.

    H has entries H[row(k), row(l)] = (hbar^2/2)|l|^2 delta_{k,l} + c_{k-l}.
    The matrix is R = Q^H H Q, where Q's columns are c_j = (e_j + e_j')/sqrt2,
    then e_m, then s_j = i(e_j - e_j')/sqrt2, for j < m = (N-1)/2 and
    j' = N-1-j, the row of -k_j.  With A[j, l] = c_{k_j - k_l} plus the
    kinetic term on the diagonal, B[j, l] = H[j, l'] = c_{k_j + k_l} and
    v[j] = c_{k_j}, J H J = conj(H) makes R the real symmetric
    [[Re(A+B), sqrt2 Re v, Im(B-A)], [sqrt2 Re v^T, H[m, m], sqrt2 Im v^T],
    [Im(A+B), sqrt2 Im v, Re(A-B)]].  A, B and v are read from one table
    of c_q over the doubled box |q|_inf <= 2K, which holds every k -+ l.
    """
    hbar = float(hbar)
    if not (0.0 < hbar <= 1.0):
        raise ValueError("hbar out of range (0, 1]")
    K = int(K)
    if K < pot.max_frequency:
        raise ValueError(
            f"cutoff K={K} below potential bandwidth {pot.max_frequency}")
    basis = PlaneWaveBasis(pot.dim, K)
    basis.require_dense()
    N, m = basis.size, basis.size // 2
    doubled = PlaneWaveBasis(pot.dim, 2 * K)
    table = np.zeros(doubled.size, dtype=complex)
    table[doubled.rows(np.reshape(list(pot.coeffs), (-1, pot.dim)))] = list(pot.coeffs.values())
    half = basis.frequencies()[:m + 1]
    kin = 0.5 * hbar * hbar * np.sum(half.astype(float) ** 2, axis=1)
    # a row of the doubled box is linear in k: row(k -+ l) = u_k -+ u_l +- u_0
    u = doubled.rows(half)
    a = table[np.subtract.outer(u[:m] + u[m], u[:m])]
    a[np.diag_indices(m)] += kin[:m]
    b = table[np.add.outer(u[:m] - u[m], u[:m])]
    v = table[u[:m]]
    r = np.empty((N, N))
    np.add(a.real, b.real, out=r[:m, :m])
    np.subtract(a.real, b.real, out=r[m + 1:, m + 1:])
    np.add(a.imag, b.imag, out=r[m + 1:, :m])
    np.subtract(b.imag, a.imag, out=r[:m, m + 1:])
    r[:m, m] = r[m, :m] = math.sqrt(2.0) * v.real
    r[m + 1:, m] = r[m, m + 1:] = math.sqrt(2.0) * v.imag
    r[m, m] = (table[u[m]] + kin[m]).real
    return HamiltonianMatrix(hbar=hbar, basis=basis, matrix=r, potential=pot)


def _from_cos_sin(w: np.ndarray) -> np.ndarray:
    """Q w: the columns of w, given on the cos/sin basis of
    assemble_hamiltonian, as complex vectors on the plane-wave basis.  Q has
    two nonzeros per column, so row j < m of Q w is (w[j] + i w[m+1+j])/sqrt2,
    row m is w[m] and row N-1-j is (w[j] - i w[m+1+j])/sqrt2."""
    m = w.shape[0] // 2
    vecs = np.empty(w.shape, dtype=complex)
    vecs[:m] = (w[:m] + 1j * w[m + 1:]) / math.sqrt(2.0)
    vecs[m] = w[m]
    vecs[m + 1:] = vecs[:m][::-1].conj()
    return vecs


def _trusted_energy(hbar: float, K: int) -> float:
    # Half the kinetic energy of the first excluded shell: below this level
    # every excluded mode satisfies (hbar^2/2)|k|^2 - E >= E.
    return hbar * hbar * (K + 1) ** 2 / 4.0


def eigen_spectrum(mat: HamiltonianMatrix) -> SpectrumResult:
    """All eigenvalues, ascending, from one real symmetric eigensolve of the
    cos/sin form that assemble_hamiltonian builds, which has the eigenvalues
    of H (Lee 1980), with the trusted energy and the tail bound there."""
    eigenvalues = np.linalg.eigvalsh(mat.matrix)
    e_trust = _trusted_energy(mat.hbar, mat.basis.cutoff)
    try:
        tail = truncation_tail_bound(mat.potential, mat.hbar, mat.basis.cutoff, e_trust)
    except ValueError:
        tail = math.inf
    return SpectrumResult(hbar=mat.hbar, cutoff=mat.basis.cutoff, eigenvalues=eigenvalues,
                          trusted_energy=e_trust, tail_bound=tail)


# -- truncation control --------------------------------------------------


def truncation_tail_bound(pot: FourierPotential, hbar: float, K: int, energy: float) -> float:
    """Fourier-tail bound sum_{|k|_inf > K} (||V||_C0 / ((hbar^2/2)|k|^2 - E))^2.

    The potential norm enters with the mean removed (a constant shift does
    not couple modes), so the zero potential gives a zero tail.  Dimensions
    beyond 2 are refused with ValueError, so their spectra report an
    infinite tail bound.
    """
    if pot.dim > 2:
        raise ValueError("tail bound implemented for dimensions 1 and 2")
    hbar = float(hbar)
    energy = float(energy)
    K = int(K)
    a = 0.5 * hbar * hbar
    if a * K * K <= energy:
        raise ValueError("cutoff insufficient for energy E (window not resolved)")
    norm = sup_norm(pot, remove_mean=True)
    if norm == 0.0:
        return 0.0
    if pot.dim == 1:
        cap = max(10_000, 4 * K)
        k = np.arange(K + 1, cap + 1, dtype=float)
        total = 2.0 * float(np.sum((norm / (a * k * k - energy)) ** 2))
        # integral remainder beyond the cap, using a r^2 - E >= a r^2 (1 - theta)
        theta = energy / (a * cap * cap)
        total += 2.0 * (norm / (a * (1.0 - theta))) ** 2 / (3.0 * cap ** 3)
        return total
    cap = max(512, 4 * K)
    axis = np.arange(-cap, cap + 1)
    ax2 = axis.astype(float) ** 2
    far = np.abs(axis) > K
    x = np.add.outer(ax2, ax2)[far[:, None] | far[None, :]]
    x *= a
    x -= energy
    np.divide(norm, x, out=x)
    x **= 2
    total = float(np.sum(x))
    # shells |k|_inf = m carry 8m points and |k|^2 >= m^2 on each
    total += 4.0 * norm * norm / (a * (a * cap * cap - energy))
    return total


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


# tanh-sinh stops at its default minlevel with J off by ~1e-12 while it
# estimates 3e-16, and a zero integrand (a forbidden panel) needs atol
_QUAD = {"minlevel": 5, "atol": 1e-14, "rtol": 1e-14}
# relative rounding of a volume's sums, which tanh-sinh's estimate misses
_EPS_SUM = 16 * np.finfo(float).eps


def _roots(f, lo, hi, *args):
    """Roots of the elementwise f(x, *args) in the brackets [lo, hi], in one
    search.  A bracket whose ends round to one sign when f is re-evaluated
    there gives its end where |f| is smaller."""
    res = find_root(f, (lo, hi), args=args, tolerances={"xatol": 0.0, "xrtol": 4e-16})
    (xl, xr), (fl, fr) = res.bracket, res.f_bracket
    return np.where(res.status == -1, np.where(np.abs(fl) <= np.abs(fr), xl, xr), res.x)


def _panels(pot: FourierPotential, x0: float, levels):
    """Panels (lo, hi, level index) of the period [x0, x0 + 2pi] of a 1D V.

    For each level E the period splits at every local maximum of V and at the
    crossings of V with E, bracketed on a 4096-cell scan and polished by
    ``_roots``, so the kinks of sqrt(2 (E - V))_+ lie on panel ends.  With
    x0 = argmax V no allowed interval wraps round, and the panels of
    E = max V serve every E >= max V.
    """
    xs = x0 + np.arange(4097) * (TWO_PI / 4096)
    v = pot.evaluate(xs)
    i = 1 + np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]))
    maxima = _roots(pot.gradient, xs[i - 1], xs[i + 1])
    e = np.asarray(levels, dtype=float)
    k, j = np.nonzero((v[:-1] > e[:, None]) != (v[1:] > e[:, None]))
    cross = _roots(lambda x, lev: pot.evaluate(x) - lev, xs[j], xs[j + 1], e[k])
    lo, hi, which = [], [], []
    for m in range(e.size):
        ends = np.sort(np.concatenate([[x0], maxima, cross[k == m], [x0 + TWO_PI]]))
        lo.append(ends[:-1])
        hi.append(ends[1:])
        which.append(np.full(ends.size - 1, m))
    return np.concatenate(lo), np.concatenate(hi), np.concatenate(which)


def _momentum_integral(pot: FourierPotential, energy, lo, hi):
    """integral of sqrt(2 (E - V(x)))_+ over [lo, hi] of a 1D potential and
    its error estimate, elementwise over the broadcast arrays, by one
    tanh-sinh run whose every level evaluates V at all nodes in one call."""
    def f(x, e):
        return np.sqrt(np.maximum(2.0 * (e - pot.evaluate(x.reshape(-1)).reshape(x.shape)), 0.0))

    res = integrate.tanhsinh(f, lo, hi, args=(energy,), **_QUAD)
    if not np.all(res.success):
        raise ArithmeticError("momentum integral missed its tolerance")
    return res.integral, res.error


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
    2 pi ((b - V)_+ - (a - V)_+) in two.  In 1D the x-integral is one
    ``_momentum_integral`` over the panels of a and of b on the period that
    starts at the exact argmax of V, and std_error the sum of tanh-sinh's
    error estimates plus the rounding of the sums.  In 2D it is the mean
    over a 256^2 grid, and std_error its distance to the mean over the
    nested 128^2 grid.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("window must satisfy a < b")
    if pot.dim == 1:
        lo, hi, which = _panels(pot, potential_extrema(pot).argmax[0], (b, a))
        part, err = _momentum_integral(pot, np.array([b, a])[which], lo, hi)
        i_b, i_a = np.bincount(which, part, minlength=2)
        value = 2.0 * float(i_b - i_a)
        se = 2.0 * float(np.sum(err) + _EPS_SUM * (i_b + i_a))
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
    """The one JSON writer: sorted keys, two-space indent, a final newline.
    A NaN or inf, which JSON cannot hold, raises ArithmeticError before the
    file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path} would hold a non-finite number: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
