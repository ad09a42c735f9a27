"""Real trigonometric potentials on the flat torus (R/2piZ)^n.

A potential is stored by its Fourier coefficients on integer frequency
vectors q, V(x) = sum_q c_q exp(i q.x), with the reality constraint
c_{-q} = conj(c_q).  All transforms that preserve the spectrum of the
associated Schrodinger operator (translations, reflection) act on the
coefficients exactly, without touching any grid.

Evaluation runs in real arithmetic on the half spectrum fixed at
construction: one q of each +-q pair and the weight w_q = A_q + i B_q with
A_q = Re(c_q + c_{-q}), B_q = Im(c_q - c_{-q}), so that
V(x) = c_0 + sum_q A_q cos(q.x) - B_q sin(q.x).  Values, gradients and
x-derivatives of any order are all sums of this form (`_trig_sum`): one
matmul, one cos and one sin per block of points.  `value_and_gradient`
takes V and grad V from one such pass, for the flows' vector fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi

# File loader rejects frequencies beyond this band; keeps runs at desk scale.
MAX_FILE_FREQUENCY = 64

_HERMITIAN_TOL = 1e-12
_IMAG_TOL = 1e-12

# Entries of the (points, frequencies) phase array per block of _trig_sum.
# A 2D file potential may carry ~8000 half-spectrum frequencies, so one
# block for a 256^2 grid would take three 4 GiB temporaries; flows and cell
# grids of a few frequencies stay one block.
_TRIG_BLOCK = 2 ** 20


def wrap_angles(x):
    """Reduce torus coordinates modulo 2*pi into [0, 2*pi)."""
    return np.mod(np.asarray(x, dtype=float), TWO_PI)


def _trig_sum(pts, freqs, w):
    """Re sum_j w_j exp(i q_j.x) at each row x of pts, q_j = freqs[j].

    That is sum_j Re(w_j) cos(q_j.x) - Im(w_j) sin(q_j.x): one matmul, one
    cos and one sin per block of points.  Weights with a trailing axis give
    one output column per weight column.
    """
    out = np.empty(pts.shape[:1] + w.shape[1:])
    step = max(1, _TRIG_BLOCK // max(1, freqs.shape[0]))
    for lo in range(0, pts.shape[0], step):
        t = pts[lo:lo + step] @ freqs.T
        out[lo:lo + step] = np.cos(t) @ w.real - np.sin(t) @ w.imag
    return out


def _real_part(vals):
    """V from _trig_sum values: a bare column, or (Re V, Im V) columns that
    are refused when Im V exceeds _IMAG_TOL relative to max |Re V|."""
    if vals.ndim == 2:
        vals, imag = vals[:, 0], vals[:, 1]
        if vals.size and np.max(np.abs(imag)) > _IMAG_TOL * max(1.0, np.max(np.abs(vals))):
            raise ArithmeticError("potential evaluation produced a non-real value")
    return vals


def _as_freq(q, dim: int) -> tuple:
    if np.isscalar(q):
        qt = (int(q),)
    else:
        qt = tuple(int(v) for v in q)
    if len(qt) != dim:
        raise ValueError(f"frequency {qt} does not match dimension {dim}")
    return qt


@dataclass(frozen=True)
class FourierPotential:
    """V(x) = sum_q c_q exp(i q.x) with c_{-q} = conj(c_q).

    The coefficient table is validated at construction, and its half
    spectrum fixed: half_freqs, shape (h, dim), the q of each +-q pair whose
    first nonzero component is positive, sorted, and the complex
    half_weights w_q of the module docstring.  Coefficients that pass the
    Hermitian check without being exact conjugates leave an imaginary part,
    which evaluate and value_and_gradient refuse past _IMAG_TOL.
    """

    dim: int
    coeffs: Mapping[tuple, complex]
    half_freqs: np.ndarray = field(init=False, repr=False, compare=False)
    half_weights: np.ndarray = field(init=False, repr=False, compare=False)
    # _trig_sum weights of V and of grad V; V's carry a second column, for
    # Im V, only when some c_{-q} != conj(c_q).  _fused_w stacks V's columns
    # before grad V's, for value_and_gradient.
    _value_w: np.ndarray = field(init=False, repr=False, compare=False)
    _grad_w: np.ndarray = field(init=False, repr=False, compare=False)
    _fused_w: np.ndarray = field(init=False, repr=False, compare=False)
    _c0: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))
        clean = {}
        for q, c in dict(self.coeffs).items():
            qt = _as_freq(q, self.dim)
            c = complex(c)
            if c != 0:
                clean[qt] = c
        for q, c in clean.items():
            mq = tuple(-v for v in q)
            if abs(clean.get(mq, 0.0j) - c.conjugate()) > _HERMITIAN_TOL * max(1.0, abs(c)):
                raise ValueError(f"coefficients violate Hermitian symmetry at q={q}")
        object.__setattr__(self, "coeffs", clean)

        half = sorted({max(q, tuple(-v for v in q)) for q in clean if any(q)})
        cp = np.array([clean.get(q, 0.0j) for q in half], dtype=complex)
        cm = np.array([clean.get(tuple(-v for v in q), 0.0j) for q in half], dtype=complex)
        freqs = np.array(half, dtype=float).reshape(-1, self.dim)
        w = (cp + cm).real + 1j * (cp - cm).imag
        wi = (cp + cm).imag - 1j * (cp - cm).real      # Im V - Im c_0 = Re sum wi e^{iq.x}
        c0 = clean.get((0,) * self.dim, 0.0j)
        if c0.imag == 0.0 and not np.any(wi):
            value_w, c0 = w, c0.real
        else:
            value_w, c0 = np.stack([w, wi], axis=1), np.array([c0.real, c0.imag])
        grad_w = 1j * w[:, None] * freqs               # d/dx e^{iq.x} = iq e^{iq.x}
        object.__setattr__(self, "half_freqs", freqs)
        object.__setattr__(self, "half_weights", w)
        object.__setattr__(self, "_value_w", value_w)
        object.__setattr__(self, "_grad_w", grad_w)
        object.__setattr__(self, "_fused_w", np.column_stack([value_w, grad_w]))
        object.__setattr__(self, "_c0", c0)

    # -- basic queries ---------------------------------------------------

    def items(self):
        """Coefficients in a fixed (sorted) order, for determinism."""
        return sorted(self.coeffs.items())

    @property
    def max_frequency(self) -> int:
        """Bandwidth: largest |q|_inf carrying a nonzero coefficient."""
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in q) for q in self.coeffs)

    def coefficient(self, q) -> complex:
        return self.coeffs.get(_as_freq(q, self.dim), 0.0j)

    @property
    def mean(self) -> float:
        return self.coefficient((0,) * self.dim).real

    # -- evaluation ------------------------------------------------------

    def _points(self, x):
        """Normalise input to an (m, dim) batch plus the output shape."""
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            if x.ndim >= 2 and x.shape[-1] == 1:
                return x.reshape(-1, 1), x.shape[:-1]
            return x.reshape(-1, 1), x.shape
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise ValueError(f"points must have trailing axis of length {self.dim}")
        return x.reshape(-1, self.dim), x.shape[:-1]

    def evaluate(self, x):
        """V(x), vectorised; real output."""
        pts, shape = self._points(x)
        vals = _real_part(self._c0 + _trig_sum(pts, self.half_freqs, self._value_w))
        out = vals.reshape(shape)
        return out if out.shape else float(out)

    def __call__(self, x):
        return self.evaluate(x)

    def gradient(self, x):
        """grad V(x).  Batched input (m, dim) gives (m, dim); for dim 1 a bare
        array gives the elementwise derivative with the same shape."""
        pts, shape = self._points(x)
        grad = _trig_sum(pts, self.half_freqs, self._grad_w)
        if self.dim == 1 and shape == np.asarray(x).shape:
            return grad[:, 0].reshape(shape)
        return grad.reshape(shape + (self.dim,))

    def value_and_gradient(self, x):
        """(V(x), grad V(x)) from one _trig_sum: one cos/sin pass serves
        both.  Values have evaluate's shape, gradients one trailing axis of
        length dim more; a non-real V is refused as in evaluate."""
        pts, shape = self._points(x)
        both = _trig_sum(pts, self.half_freqs, self._fused_w)
        k = both.shape[1] - self.dim
        vals = _real_part(self._c0 + (both[:, 0] if k == 1 else both[:, :k]))
        return vals.reshape(shape), both[:, k:].reshape(shape + (self.dim,))

    # -- exact isospectral transforms ------------------------------------

    def translate(self, a) -> "FourierPotential":
        """x -> x + a on the torus: coefficients pick up the phase exp(i q.a)."""
        if np.isscalar(a):
            a = (float(a),)
        a = np.asarray(a, dtype=float)
        if a.shape != (self.dim,):
            raise ValueError("translation vector has wrong dimension")
        new = {q: c * np.exp(1j * float(np.dot(q, a))) for q, c in self.coeffs.items()}
        return FourierPotential(self.dim, new)

    def reflect(self) -> "FourierPotential":
        """x -> -x: frequency table is permuted, q -> -q."""
        new = {tuple(-v for v in q): c for q, c in self.coeffs.items()}
        return FourierPotential(self.dim, new)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "FourierPotential") -> "FourierPotential":
        if not isinstance(other, FourierPotential):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("cannot add potentials of different dimensions")
        new = dict(self.coeffs)
        for q, c in other.coeffs.items():
            new[q] = new.get(q, 0.0j) + c
        return FourierPotential(self.dim, new)

    def __mul__(self, factor) -> "FourierPotential":
        factor = float(factor)
        return FourierPotential(self.dim, {q: factor * c for q, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "FourierPotential":
        return self * (-1.0)


# -- factories -----------------------------------------------------------


def zero_potential(dim: int = 1) -> FourierPotential:
    return FourierPotential(dim, {})


def cosine(q, amplitude: float = 1.0) -> FourierPotential:
    """amplitude * cos(q.x)."""
    qt = tuple(int(v) for v in np.atleast_1d(q))
    mq = tuple(-v for v in qt)
    half = 0.5 * float(amplitude)
    if qt == mq:
        return FourierPotential(len(qt), {qt: float(amplitude)})
    return FourierPotential(len(qt), {qt: half, mq: half})


def sine(q, amplitude: float = 1.0) -> FourierPotential:
    """amplitude * sin(q.x)."""
    qt = tuple(int(v) for v in np.atleast_1d(q))
    mq = tuple(-v for v in qt)
    if qt == mq:
        raise ValueError("sin of the zero frequency vanishes")
    half = -0.5j * float(amplitude)
    return FourierPotential(len(qt), {qt: half, mq: half.conjugate()})


# -- extrema -------------------------------------------------------------


@dataclass(frozen=True)
class ExtremaReport:
    """Grid-scan extrema of a potential.

    Finer resolutions only expand the scanned set (nested grids), so the
    reported min never increases and the max never decreases under doubling.
    """

    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray
    resolution: int


def _grid_points(axes) -> np.ndarray:
    """Points of the tensor grid of ``axes`` as rows (m, dim), last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def potential_extrema(pot: FourierPotential, res: int = 1024) -> ExtremaReport:
    """Scan V on a uniform grid with `res` points per axis."""
    res = int(res)
    if res < 8:
        raise ValueError("resolution below 8 is rejected")
    pts = _grid_points([np.arange(res) * (TWO_PI / res)] * pot.dim)
    vals = np.asarray(pot.evaluate(pts)).reshape(-1)
    imin = int(np.argmin(vals))
    imax = int(np.argmax(vals))
    return ExtremaReport(
        min_value=float(vals[imin]),
        max_value=float(vals[imax]),
        argmin=pts[imin].copy(),
        argmax=pts[imax].copy(),
        resolution=res,
    )


def _break_points(xs, vals, levels, extra=()) -> list:
    """Quadrature break points from one scan of a 1D potential: the grid
    points xs where vals - level changes sign for some level, plus
    ``extra``; interior points only, sorted, without repeats, at most 40."""
    pts = set(extra)
    for level in levels:
        pts.update(xs[np.nonzero(np.diff(np.sign(vals - level)) != 0)[0]])
    return sorted(p for p in pts if 1e-9 < p < TWO_PI - 1e-9)[:40]


def sup_norm(pot: FourierPotential, remove_mean: bool = False) -> float:
    """C^0 norm of V (optionally of V minus its mean) by a scan of 2048
    points in 1D, 256 per axis otherwise."""
    shifted = pot + FourierPotential(pot.dim, {(0,) * pot.dim: -pot.mean}) if remove_mean else pot
    if not shifted.coeffs:
        return 0.0
    rep = potential_extrema(shifted, 2048 if pot.dim == 1 else 256)
    return max(abs(rep.min_value), abs(rep.max_value))


# -- serialisation -------------------------------------------------------


def potential_to_dict(pot: FourierPotential) -> dict:
    entries = [
        {"q": list(q), "re": c.real, "im": c.imag}
        for q, c in pot.items()
    ]
    return {"dim": pot.dim, "coeffs": entries}


def potential_from_dict(data: dict) -> FourierPotential:
    try:
        dim = int(data["dim"])
        entries = data["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError("potential file must carry 'dim' and 'coeffs'") from exc
    coeffs = {}
    for entry in entries:
        q = _as_freq(entry["q"], dim)
        if max(abs(v) for v in q) > MAX_FILE_FREQUENCY:
            raise ValueError(f"frequency {q} beyond the supported band |q|<= {MAX_FILE_FREQUENCY}")
        coeffs[q] = coeffs.get(q, 0.0j) + complex(float(entry["re"]), float(entry.get("im", 0.0)))
    return FourierPotential(dim, coeffs)


def save_potential(pot: FourierPotential, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(potential_to_dict(pot), fh, indent=2)
        fh.write("\n")


def load_potential(path) -> FourierPotential:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return potential_from_dict(data)
