"""Weyl quantization on the torus by the midpoint rule.

In the plane-wave basis the quantization of b(x, eta) has the exact matrix
elements entry(j, m) = b_hat(j - m, hbar (j + m) / 2), with b_hat the
x-Fourier transform at fixed eta.  The Wigner transform of a state lives on
the momentum half-lattice eta = (hbar/2) kappa and pairs with symbols by a
plain sum-integral; both directions of that duality are implemented here so
they can be checked against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import operator_norm
from .potentials import TWO_PI, FourierPotential, _grid_points, _split, _trig_sum
from .spectra import PlaneWaveBasis, PlaneWaveMatrix, _physical_memory
from .symbols import PhaseSpaceFunction, _rows

__all__ = [
    "WeylMatrix", "weyl_matrix", "WignerTable", "wigner_transform",
    "wigner_pairing", "projector_check", "cv_bound", "cv_derivative_order",
    "x_derivative_sup_norms", "symbol_from_wigner", "operator_norm",
]


# Points per symbol call when a symbol is evaluated over many momentum rows.
# A flowed symbol keeps about twenty RK4 temporaries of the batch size alive,
# so one call for all rows would grow memory with the whole lattice.  On a
# 2-core Xeon (one BLAS thread, 10 interleaved repetitions) a 2D RK4 flow
# cost 9% more per point in batches of 2^16 points than in batches of 2^12
# (8 of 10 slower) and 2% less in batches of 2^13 (6 of 10 faster, within
# the spread).  A 1D row of about 100 points is dominated by per-call
# overhead instead, which 40 rows per call remove.
_CHUNK_POINTS = 2 ** 12


class WeylMatrix(PlaneWaveMatrix):
    """Weyl quantization of a symbol on a plane-wave basis."""


def _require_memory(nbytes: int, what: str) -> None:
    """Refuse, before it allocates anything, work that holds more than
    physical memory."""
    physical = _physical_memory()
    if nbytes > physical:
        raise ValueError(f"{what} needs {nbytes} bytes, more than the {physical} "
                         f"bytes of physical memory")


def _symbol_rows(b: PhaseSpaceFunction, xg: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """b(x, eta) for every momentum row eta in etas and every point x in xg.

    Returns an (S, P) array, S rows and P points, real unless b returns
    complex values (numpy sums real and complex rows in different orders).
    Whole rows go to b.fn together, at most _CHUNK_POINTS points per call.
    """
    S, P = etas.shape[0], xg.shape[0]
    step = max(1, _CHUNK_POINTS // P)
    vals = np.empty((S, P))
    for lo in range(0, S, step):
        hi = min(lo + step, S)
        chunk = np.asarray(b.fn(np.tile(xg, (hi - lo, 1)), np.repeat(etas[lo:hi], P, axis=0)))
        if np.iscomplexobj(chunk) and not np.iscomplexobj(vals):
            vals = vals.astype(complex)
        vals[lo:hi] = chunk.reshape(hi - lo, P)
    return vals


def weyl_matrix(b: PhaseSpaceFunction, hbar: float, K: int) -> WeylMatrix:
    """Quantize b over the box |k|_inf <= K.

    Band-limited symbols with a closed-form x-Fourier transform are filled
    exactly; otherwise the transform is taken by FFT on a periodic grid
    (spectrally accurate for smooth symbols).  That numeric path evaluates
    the symbol on the grid at every lattice momentum (hbar/2) s, |s|_inf <=
    2K, in chunks of whole momentum rows, so a flowed symbol runs a few
    large flows instead of one small flow per row.  It holds the S x G^n
    values, S = (4K+1)^n rows on a grid of G^n points, and their FFT: a
    tracemalloc peak of 40 bytes per value for a real symbol (K = 8 to 128
    in 1D, 2 to 16 in 2D), so it is refused beyond physical memory before
    the symbol is evaluated.  This is the one-hbar case of
    ``_weyl_matrices``, which shares the rows of several hbar.
    """
    return _weyl_matrices(b, (hbar,), K)[0]


def _weyl_matrices(b: PhaseSpaceFunction, hbars, K: int) -> list:
    """weyl_matrix(b, hbar, K) for each hbar in hbars, in order.

    The numeric path's grid depends on K alone: the symbol is evaluated and
    transformed once on the U distinct lattice momenta of all hbar
    (np.unique, exact float equality), holding 40 bytes per row and grid
    point, and each hbar reads its own rows of that spectrum, bit for bit
    its own one-hbar matrix.
    """
    hbars = [float(hb) for hb in hbars]
    if not all(0.0 < hb <= 1.0 for hb in hbars):
        raise ValueError("hbar out of range (0, 1]")
    K = int(K)
    if b.x_bandwidth is not None and K < b.x_bandwidth:
        raise ValueError(f"cutoff K={K} below symbol bandwidth {b.x_bandwidth}")
    basis = PlaneWaveBasis(b.dim, K)
    n = b.dim

    if b.x_fourier is not None:
        bw = b.x_bandwidth if b.x_bandwidth is not None else 2 * K
        bw = min(bw, 2 * K)
        mats = []
        for hbar in hbars:
            def entry(q, k):
                eta = hbar * (k.astype(float) + 0.5 * np.array(q, dtype=int)[None, :])
                return b.x_fourier(q, eta)

            mat = basis.band_matrix(itertools.product(range(-bw, bw + 1), repeat=n), entry)
            mats.append(WeylMatrix(hbar=hbar, basis=basis, matrix=mat))
        return mats

    # numeric path: FFT in x at every distinct lattice momentum of the group
    basis.require_dense()
    bw_hint = b.x_bandwidth or 0
    G = max(4 * K + 4, 4 * bw_hint + 4, 64)    # > 4K: frequencies stay apart
    lattice = PlaneWaveBasis(n, 2 * K)
    sums = lattice.frequencies().astype(float)
    etas, rows = np.unique(np.concatenate([0.5 * hb * sums for hb in hbars]),
                           axis=0, return_inverse=True)
    _require_memory(40 * etas.shape[0] * G ** n,
                    f"the numeric Weyl path at K={K} on a {G}^{n} grid")
    xg = _grid_points([np.arange(G) * (TWO_PI / G)] * n)
    vals = _symbol_rows(b, xg, etas)
    spec = np.fft.fftn(vals.reshape((-1,) + (G,) * n), axes=tuple(range(1, n + 1))) / (G ** n)
    # entry (k, m) sits on lattice row k + m at x-frequency k - m
    freqs = basis.frequencies()
    k, m = freqs[:, None, :], freqs[None, :, :]
    lat = lattice.rows(k + m)
    q = tuple(np.moveaxis(np.mod(k - m, G), -1, 0))
    return [WeylMatrix(hbar=hbar, basis=basis, matrix=spec[(own[lat],) + q])
            for hbar, own in zip(hbars, rows.reshape(len(hbars), -1))]


# -- Wigner transform ------------------------------------------------------


@dataclass(frozen=True)
class WignerTable:
    """W(x, eta) sampled on a uniform x-grid and the momentum lattice.

    The lattice is eta = (hbar/2) kappa for integer vectors |kappa|_inf
    <= 2K; outside that band the transform of a K-band state vanishes.
    """

    hbar: float
    cutoff: int
    res: int
    kappas: np.ndarray        # (S, n) int
    values: np.ndarray        # (S, res, ..., res) real

    @property
    def dim(self) -> int:
        return self.kappas.shape[1]

    def x_axis(self) -> np.ndarray:
        return np.arange(self.res) * (TWO_PI / self.res)

    def momenta(self) -> np.ndarray:
        return 0.5 * self.hbar * self.kappas.astype(float)


def wigner_transform(psi: np.ndarray, basis: PlaneWaveBasis, hbar: float,
                     res: int | None = None) -> WignerTable:
    """Wigner transform of a plane-wave state, exact in Fourier space.

    With psi = sum_k c_k e_k the transform at kappa = k + l is
    (2 pi)^(-n) sum_{k+l=kappa} c_k conj(c_l) exp(i (k-l).x).  Each pair
    (k, l) lands on its own row kappa and x-frequency k - l, and one inverse
    FFT per row sums them on the grid; |k - l|_inf <= 2K < res/2 keeps the
    frequencies apart.  The spectrum and its transform are two complex
    (S, res^n) arrays, S = (4K+1)^n; with the index arrays the tracemalloc
    peak is 48 bytes per entry in 2D (K = 2 to 16; 40 in 1D), so a
    transform beyond physical memory is refused before anything is built.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (basis.size,):
        raise ValueError("state vector does not match the basis")
    nrm = float(np.linalg.norm(psi))
    if nrm > 1.0 + 1e-12:
        raise ValueError("state norm above 1 + 1e-12 is rejected")
    hbar = float(hbar)
    K = basis.cutoff
    n = basis.dim
    res = int(res or (4 * K + 4))
    if res < 4 * K + 2:
        raise ValueError("resolution too coarse for the 2K spatial band")
    lattice = PlaneWaveBasis(n, 2 * K)
    _require_memory(48 * lattice.size * res ** n,
                    f"a Wigner transform at K={K} on a {res}^{n} grid")
    freqs = basis.frequencies()
    kappas = lattice.frequencies()

    k, l = freqs[:, None, :], freqs[None, :, :]
    spec = np.zeros((kappas.shape[0],) + (res,) * n, dtype=complex)
    spec[(lattice.rows(k + l),) + tuple(np.moveaxis(np.mod(k - l, res), -1, 0))] = \
        np.outer(psi, np.conj(psi))
    values = np.fft.ifftn(spec, axes=tuple(range(1, n + 1)), norm="forward")
    values *= TWO_PI ** (-n)
    if values.size and np.max(np.abs(values.imag)) > 1e-10:
        raise ArithmeticError("Wigner values failed to be real")
    return WignerTable(hbar=hbar, cutoff=K, res=res, kappas=kappas, values=values.real)


def wigner_pairing(b: PhaseSpaceFunction, table: WignerTable) -> float:
    """sum_eta integral b(x, eta) W(x, eta) dx by trapezoid in x.

    Equals the quadratic form <Op(b) psi, psi> when the grids resolve the
    combined spatial band.  Only momentum rows where W is not identically
    zero are evaluated.
    """
    if b.dim != table.dim:
        raise ValueError("symbol and table dimensions differ")
    n = table.dim
    pts = _grid_points([table.x_axis()] * n)
    cell = (TWO_PI / table.res) ** n
    w = table.values.reshape(table.kappas.shape[0], -1)
    live = np.flatnonzero(np.any(w, axis=1))
    vals = _symbol_rows(b, pts, table.momenta()[live])
    total = 0.0 + 0.0j
    for row, wr in zip(vals, w[live]):
        total += np.sum(row * wr) * cell
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ArithmeticError("pairing failed to be real")
    return float(total.real)


def symbol_from_wigner(table: WignerTable, scale: float = 1.0) -> PhaseSpaceFunction:
    """Phase-space function backed by a Wigner table (zero off the lattice band)."""
    n = table.dim
    K = table.cutoff
    res = table.res
    hbar = table.hbar
    spec = np.fft.fftn(table.values.astype(complex),
                       axes=tuple(range(1, n + 1))) / (res ** n) * float(scale)
    lattice = PlaneWaveBasis(n, 2 * K)

    def lattice_rows(eta):
        kf = 2.0 * _rows(eta, n) / hbar
        kr = np.rint(kf).astype(int)
        on = np.all(np.abs(kf - kr) <= 1e-8, axis=1) & np.all(np.abs(kr) <= 2 * K, axis=1)
        rows = np.full(kf.shape[0], -1, dtype=int)
        rows[on] = lattice.rows(kr[on])
        return rows

    def coefficients(q, rows):
        """spec at x-frequency q on lattice rows ``rows`` (-1: off it, zero)."""
        out = np.zeros(rows.shape[0], dtype=complex)
        hit = rows >= 0
        out[hit] = spec[(rows[hit],) + tuple(np.mod(q, res))]
        return out

    def xf(q, eta):
        return coefficients(q, lattice_rows(eta))

    def fn(x, eta):
        x = _rows(x, n)
        rows = lattice_rows(eta)
        out = np.zeros(x.shape[0], dtype=complex)
        for q in itertools.product(range(-2 * K, 2 * K + 1), repeat=n):
            out += coefficients(q, rows) * np.exp(1j * (x @ np.asarray(q, dtype=float)))
        return out.real

    return PhaseSpaceFunction(dim=n, fn=fn, x_bandwidth=2 * K, x_fourier=xf)


def projector_check(phi: np.ndarray, psi: np.ndarray, basis: PlaneWaveBasis,
                    hbar: float) -> float:
    """|| Op((2 pi)^n W_phi) psi - <phi, psi> phi ||.

    The rank-one projector of a unit state is the quantization of its
    Wigner density once the phase-space volume normalisation (2 pi)^n is
    restored; the return value is the l2 defect of that identity.
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(phi) > 1.0 + 1e-12 or np.linalg.norm(psi) > 1.0 + 1e-12:
        raise ValueError("state norms above 1 + 1e-12 are rejected")
    table = wigner_transform(phi, basis, hbar)
    sym = symbol_from_wigner(table, scale=TWO_PI ** basis.dim)
    # the Wigner symbol is 2K-band in x, so quantize over the doubled box and
    # keep the block between the original modes; entries only depend on the
    # mode pair, not on the box
    big = weyl_matrix(sym, hbar, 2 * basis.cutoff)
    keep = big.basis.rows(basis.frequencies())
    lhs = big.matrix[np.ix_(keep, keep)] @ psi
    rhs = np.vdot(phi, psi) * phi
    return float(np.linalg.norm(lhs - rhs))


# -- uniform operator-norm bound ------------------------------------------


def cv_derivative_order(dim: int) -> int:
    """Highest x-derivative order entering the norm bound is twice this."""
    if dim % 2 == 0:
        return dim // 2 + 1
    return (dim + 1) // 2 + 1


def cv_bound(sup_norms: dict, dim: int) -> float:
    """Uniform bound on ||Op(b)|| from x-derivative sup-norms.

    Requires every multi-index with |alpha| <= 2M, M = cv_derivative_order:
    bound = 2^(n+1)/(n+2) * pi^((3n-1)/2) / Gamma((n+1)/2) * sum ||d^a b||.
    """
    dim = int(dim)
    M = cv_derivative_order(dim)
    needed = [a for a in itertools.product(range(2 * M + 1), repeat=dim)
              if sum(a) <= 2 * M]
    keyed = {tuple(int(v) for v in k): float(v) for k, v in sup_norms.items()}
    missing = [a for a in needed if a not in keyed]
    if missing:
        raise ValueError(f"missing derivative sup-norms for {missing[:4]} ...")
    const = (2.0 ** (dim + 1) / (dim + 2)) * math.pi ** ((3 * dim - 1) / 2.0) \
        / math.gamma((dim + 1) / 2.0)
    return const * sum(keyed[a] for a in needed)


def x_derivative_sup_norms(pot: FourierPotential, order: int) -> dict:
    """Sup-norms of d^alpha_x [W(x) g(eta)] for |alpha| <= order.

    Valid for product symbols with sup|g| = 1; derivatives act on the
    trigonometric factor only: on W's half spectrum, d^alpha W carries the
    rotated weights a_q i^|alpha| q^alpha (plus W's mean when alpha = 0).  All
    orders are scanned on one grid (2048 points in 1D, 128 per axis
    otherwise) by one trig sum.
    """
    alphas = [a for a in itertools.product(range(order + 1), repeat=pot.dim)
              if sum(a) <= order]
    grid_res = 2048 if pot.dim == 1 else 128
    pts = _grid_points([np.arange(grid_res) * (TWO_PI / grid_res)] * pot.dim)
    q = pot.half_freqs
    w = pot.half_amplitudes[:, None] * np.stack(
        [(1, 1j, -1, -1j)[sum(a) % 4] * np.prod(q ** np.array(a), axis=1) for a in alphas], axis=1)
    vals = _trig_sum(pts, pot, _split(w))
    vals[:, 0] += pot.mean                     # alphas[0] is alpha = 0
    return {a: float(np.max(np.abs(vals[:, j]))) for j, a in enumerate(alphas)}
