"""Real trigonometric potentials on the flat torus (R/2piZ)^n.

A potential is stored by its Fourier coefficients on integer frequency
vectors q, V(x) = sum_q c_q exp(i q.x), with the reality constraint
c_{-q} = conj(c_q).  All transforms that preserve the spectrum of the
associated Schrodinger operator (translations, reflection) act on the
coefficients exactly, without touching any grid.

Evaluation runs in real arithmetic on the half spectrum fixed at
construction: one q of each +-q pair, the weight w_q = A_q + i B_q with
A_q = Re(c_q + c_{-q}), B_q = Im(c_q - c_{-q}), so that
V(x) = c_0 + sum_q Re(w_q exp(i q.x)), and w_q in amplitude-phase form
a_q exp(i theta_q), theta_q in (-pi/2, pi/2] and a_q signed, so that
V(x) = c_0 + sum_q a_q cos(q.x + theta_q) and a real coefficient has
theta_q = 0 exactly.  Values, gradients and x-derivatives of any order are
all sums Re sum_q w'_q exp(i(q.x + theta_q)) (`_trig_sum`) with weights
rotated by exp(-i theta_q): V's are the real a_q and grad V's the
imaginary i q a_q, so per block of points `evaluate` takes one cos,
`gradient` one sin, and `value_and_gradient` one of each for the flows'
vector fields.  `potential_extrema` polishes a grid scan to the exact
extrema by Newton.
"""

from __future__ import annotations

import cmath
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


def _split(w):
    """The complex weights w, (h,) or (h, k), as a _trig_sum weight set
    (k, cos part, sin part): Re w for the cos and Im w for the sin, each an
    (offset, contiguous (h, k) float array) pair, or None where it is all
    zero.  Weight sets are split once, where they are built."""
    w = np.asarray(w, dtype=complex)
    w = w[:, None] if w.ndim == 1 else w
    parts = [(0, np.ascontiguousarray(part)) if np.any(part) else None
             for part in (w.real, w.imag)]
    return (w.shape[1], *parts)


def _trig_sum(pts, pot, w):
    """Re sum_j w_j exp(i(q_j.x + theta_j)) at each row x of pts, over the
    half spectrum (q_j, theta_j) of pot, one output column per weight column.

    w is a weight set of ``_split``: its cos part (offset a, weights C)
    gives the columns a, a+1, ... of sum_j C_j cos(q_j.x + theta_j), and
    its sin part (b, S) subtracts sum_j S_j sin(q_j.x + theta_j) from the
    columns b, b+1, ...; columns that neither part reaches are 0.  Per block
    of points, one phase product, and a cos and a sin only for the parts
    that are not None.
    """
    q, theta = pot.half_freqs, pot.half_phases
    k, cos_part, sin_part = w
    first = cos_part or sin_part
    # the part written first fills a block whole, or the block starts at 0,
    # column-major so that each part writes whole columns
    whole = first is not None and first[1].shape[1] == k
    out = np.empty((pts.shape[0], k)) if whole else np.zeros((k, pts.shape[0])).T
    if first is None:
        return out
    step = max(1, _TRIG_BLOCK // q.shape[0])
    for lo in range(0, pts.shape[0], step):
        block = out[lo:lo + step]
        t = np.dot(pts[lo:lo + step], q.T)
        t += theta
        if cos_part is not None:
            a, c = cos_part
            if whole:
                np.dot(np.cos(t), c, out=block)
            else:
                block[:, a:a + c.shape[1]] = np.dot(np.cos(t), c)
        if sin_part is not None:
            b, c = sin_part
            if cos_part is None and whole:
                np.subtract(0.0, np.dot(np.sin(t), c, out=block), out=block)
            else:
                block[:, b:b + c.shape[1]] -= np.dot(np.sin(t), c)
    return out


def _real_part(vals):
    """V from _trig_sum values: the V column, with an Im V column beside it
    that is refused when it exceeds _IMAG_TOL relative to max |Re V|."""
    if vals.shape[1] == 2:
        imag = vals[:, 1]
        if vals.size and np.max(np.abs(imag)) > _IMAG_TOL * max(1.0, np.max(np.abs(vals[:, 0]))):
            raise ArithmeticError("potential evaluation produced a non-real value")
    return vals[:, 0]


def _as_freq(q, dim: int) -> tuple:
    """q as a tuple of dim ints; a component that is not an integer is refused."""
    comps = (q,) if np.isscalar(q) else tuple(q)
    qt = tuple(int(v) for v in comps)
    if qt != comps:
        raise ValueError(f"frequency {list(comps)} has a component that is not an integer")
    if len(qt) != dim:
        raise ValueError(f"frequency {qt} does not match dimension {dim}")
    return qt


@dataclass(frozen=True)
class FourierPotential:
    """V(x) = sum_q c_q exp(i q.x) with c_{-q} = conj(c_q).

    The coefficient table is validated at construction, and its half
    spectrum fixed: half_freqs, shape (h, dim), the q of each +-q pair whose
    first nonzero component is positive, sorted, with the half_amplitudes
    a_q and half_phases theta_q of the module docstring.  Coefficients that
    pass the Hermitian check without being exact conjugates leave an
    imaginary part, which evaluate and value_and_gradient refuse past
    _IMAG_TOL.
    """

    dim: int
    coeffs: Mapping[tuple, complex]
    half_freqs: np.ndarray = field(init=False, repr=False, compare=False)
    half_amplitudes: np.ndarray = field(init=False, repr=False, compare=False)
    half_phases: np.ndarray = field(init=False, repr=False, compare=False)
    # _trig_sum weight sets (``_split``) of V and of grad V, rotated by
    # exp(-i theta_q); V's carry a second column, for Im V, only when some
    # c_{-q} != conj(c_q).  _fused_w puts V's columns before grad V's, for
    # value_and_gradient: for a real V the cos serves V's column alone and
    # the sin grad V's alone.
    _value_w: tuple = field(init=False, repr=False, compare=False)
    _grad_w: tuple = field(init=False, repr=False, compare=False)
    _fused_w: tuple = field(init=False, repr=False, compare=False)
    _c0: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))
        clean = {}
        for q, c in dict(self.coeffs).items():
            qt = _as_freq(q, self.dim)
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at q={qt} is not finite")
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
        # w = amp e^{i theta}: angle(w) in (-pi, pi], folded by pi into
        # (-pi/2, pi/2] with the sign moved into amp; a real w has theta = 0
        theta = np.angle(w)
        flip = (theta > 0.5 * math.pi) | (theta <= -0.5 * math.pi)
        theta = np.where(flip, theta - np.copysign(math.pi, theta), theta)
        amp = np.where(flip, -np.abs(w), np.abs(w))
        c0 = clean.get((0,) * self.dim, 0.0j)
        if c0.imag == 0.0 and not np.any(wi):
            value_w, c0 = amp + 0j, c0.real
        else:
            value_w = np.stack([amp + 0j, wi * np.exp(-1j * theta)], axis=1)
            c0 = np.array([c0.real, c0.imag])
        grad_w = 1j * amp[:, None] * freqs             # d/dx e^{iq.x} = iq e^{iq.x}
        v, g = _split(value_w), _split(grad_w)
        # V's columns without a sin part: its cos and grad V's sin side by side
        fused = ((v[0] + self.dim, v[1], g[2] and (v[0], g[2][1])) if v[2] is None
                 else _split(np.column_stack([value_w, grad_w])))
        object.__setattr__(self, "half_freqs", freqs)
        object.__setattr__(self, "half_amplitudes", amp)
        object.__setattr__(self, "half_phases", theta)
        object.__setattr__(self, "_value_w", v)
        object.__setattr__(self, "_grad_w", g)
        object.__setattr__(self, "_fused_w", fused)
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
        vals = _real_part(self._c0 + _trig_sum(pts, self, self._value_w))
        out = vals.reshape(shape)
        return out if out.shape else float(out)

    def __call__(self, x):
        return self.evaluate(x)

    def gradient(self, x):
        """grad V(x).  Batched input (m, dim) gives (m, dim); for dim 1 a bare
        array gives the elementwise derivative with the same shape."""
        pts, shape = self._points(x)
        grad = _trig_sum(pts, self, self._grad_w)
        if self.dim == 1 and shape == np.asarray(x).shape:
            return grad[:, 0].reshape(shape)
        return grad.reshape(shape + (self.dim,))

    def value_and_gradient(self, x):
        """(V(x), grad V(x)) from one _trig_sum: one cos and one sin serve
        both.  Values have evaluate's shape, gradients one trailing axis of
        length dim more; a non-real V is refused as in evaluate."""
        pts, shape = self._points(x)
        both = _trig_sum(pts, self, self._fused_w)
        k = both.shape[1] - self.dim
        vals = _real_part(self._c0 + both[:, :k])
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
    """Exact extrema of a potential, each with a point where V takes it."""

    min_value: float
    max_value: float
    argmin: np.ndarray
    argmax: np.ndarray


def _grid_points(axes) -> np.ndarray:
    """Points of the tensor grid of ``axes`` as rows (m, dim), last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


# Newton starts per extremum (a broad 2D band puts the whole scan inside the
# error bound; the best starts still hold the nearest one) and steps per start
_POLISH_STARTS = 64
_POLISH_STEPS = 32


def potential_extrema(pot: FourierPotential) -> ExtremaReport:
    """Min and max of V, exact to rounding.

    One scan rule: a uniform grid of at most 4096 points per axis and 2^16 in
    all.  As |V''| <= L = sum |a_q| |q|^2 in any direction, the scan point
    nearest an extremum is within L dim h^2 / 8 of it.  Newton on grad V = 0
    starts from every scan point within that bound of the best, with the
    gradients and Hessians (rotated weights iq a_q, -q q^T a_q) of all
    starts from one _trig_sum per step, and steps capped at h.  The scan's
    best compete with the polished points, so the result is never worse
    than the scan.
    """
    if not pot.half_freqs.size:
        return ExtremaReport(pot.mean, pot.mean, np.zeros(pot.dim), np.zeros(pot.dim))
    q, a, d = pot.half_freqs, pot.half_amplitudes, pot.dim
    n = min(4096, 2 ** (16 // d))
    h = TWO_PI / n
    pts = _grid_points([np.arange(n) * h] * d)
    vals = pot.evaluate(pts)
    bound = float(np.sum(np.abs(a) * np.sum(q * q, axis=1))) * d * h * h / 8.0
    starts = []
    for f in (-vals, vals):
        near = np.flatnonzero(f >= np.max(f) - bound)
        starts.append(near[np.argsort(f[near])[-_POLISH_STARTS:]])
    x = pts[np.concatenate(starts)]
    wts = _split(np.column_stack([1j * a[:, None] * q,
                                  -(a[:, None, None] * q[:, :, None] * q[:, None, :])
                                  .reshape(-1, d * d)]))
    for _ in range(_POLISH_STEPS):
        gh = _trig_sum(x, pot, wts)
        hess = gh[:, d:].reshape(-1, d, d)
        # H^-1 grad V as (H^2 + mu) s = H grad V, no step along a flat direction
        mu = 1e-14 * np.max(np.abs(hess), axis=(1, 2)) ** 2 + 1e-300
        step = np.linalg.solve(hess @ hess + mu[:, None, None] * np.eye(d),
                               hess @ gh[:, :d, None])[:, :, 0]
        size = np.sqrt(np.sum(step * step, axis=1))
        x = x - step * np.minimum(1.0, h / np.maximum(size, 1e-300))[:, None]
        if not np.max(size) > 1e-10:
            break
    # the scan's own best come first, with their scan values, so they win ties
    best = [int(np.argmin(vals)), int(np.argmax(vals))]
    cand = np.concatenate([pts[best], wrap_angles(x)])
    cv = np.concatenate([vals[best], pot.evaluate(cand[2:])])
    i, j = int(np.argmin(cv)), int(np.argmax(cv))
    return ExtremaReport(float(cv[i]), float(cv[j]), cand[i], cand[j])


def sup_norm(pot: FourierPotential, remove_mean: bool = False) -> float:
    """C^0 norm of V, or of V minus its mean, from its exact extrema."""
    ext = potential_extrema(pot)
    mean = pot.mean if remove_mean else 0.0
    return max(abs(ext.min_value - mean), abs(ext.max_value - mean))


def _gradient_bound(pot: FourierPotential) -> float:
    """G = sum_q |a_q| |q|_2 over the half spectrum, which bounds sup |grad V|_2."""
    return float(np.sum(np.abs(pot.half_amplitudes) * np.linalg.norm(pot.half_freqs, axis=1)))


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
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError("potential file must carry 'dim' and 'coeffs'") from exc
    if dim != data["dim"]:
        raise ValueError(f"dim {data['dim']!r} is not an integer")
    coeffs = {}
    try:
        for entry in entries:
            q = _as_freq(entry["q"], dim)
            if max(abs(v) for v in q) > MAX_FILE_FREQUENCY:
                raise ValueError(
                    f"frequency {q} beyond the supported band |q|<= {MAX_FILE_FREQUENCY}")
            coeffs[q] = coeffs.get(q, 0.0j) + complex(float(entry["re"]),
                                                      float(entry.get("im", 0.0)))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed potential entry ({type(exc).__name__}: {exc})") from exc
    return FourierPotential(dim, coeffs)


def save_potential(pot: FourierPotential, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(potential_to_dict(pot), fh, indent=2)
        fh.write("\n")


def load_potential(path) -> FourierPotential:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return potential_from_dict(data)
