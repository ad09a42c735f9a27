"""Classical Hamiltonian flows on torus phase space.

Separable generators |eta|^2/2 + V(x) are integrated by the kick-drift-kick
(Stormer-Verlet) splitting, which is symplectic and second order, with one
grad V per step: a step's closing half kick and the next step's opening
one share it.  Anything else falls back to the classical fourth-order
Runge-Kutta method with one vector-field call per stage: the symbol's own
vector_field when it has one, its grad_x/grad_eta pair otherwise, and
central differences of fn as the last resort.  Positions are stored
unwrapped during integration and wrapped on output, so winding does not
distort finite differences.

A product generator W(x) g(eta) with an eta_cutoff (plateau, support, G)
splits each RK4 batch into three sets of finite points:

- the plateau set, |eta|_2 + |t| G (1 + 1e-9) < plateau, the factor
  covering the rounding of G and of grad W.  No stage point of any step
  leaves the plateau, where g is exactly 1.0 and grad g exactly 0, so every
  stage returns the same k = (0, -grad W(x)) and x stays put.  One
  vector_field call gives k, the step's increment (dt/6)(k + 2k + 2k + k)
  is formed once in RK4's operand order and added once per step: the same
  additions on the same operands as RK4's, so the endpoints agree bit for
  bit.
- the outside set, |eta|_2 >= support, where the field is exactly zero:
  these points stay where they are.
- every other point, non-finite ones included, which goes through RK4.

Escape is checked on every set, so what RK4 refuses is still refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potentials import TWO_PI, wrap_angles
from .symbols import PhaseSpaceFunction, _central_difference, _rows

_MAX_STEP = 1e-2
_ESCAPE = 1e3


class FlowEscapeError(RuntimeError):
    """Raised when a trajectory leaves |p|_inf <= 1e3."""


@dataclass(frozen=True)
class PhasePoint:
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        if self.x.shape != self.p.shape:
            raise ValueError("position and momentum shapes differ")


def _gradients(b: PhaseSpaceFunction):
    """(x, eta) -> (dH/dx, dH/deta) for a symbol without a vector_field:
    its grad_x/grad_eta pair when both are set, central differences of fn
    otherwise."""
    if b.grad_x is not None and b.grad_eta is not None:
        return lambda x, eta: (b.grad_x(x, eta), b.grad_eta(x, eta))

    def field(x, eta):
        return (_central_difference(lambda z: b.fn(z, eta), x),
                _central_difference(lambda z: b.fn(x, z), eta))

    return field


def _check_escape(p):
    if not np.all(np.abs(p) <= _ESCAPE):     # NaN momenta fail too
        raise FlowEscapeError("trajectory left |p| <= 1e3 or is not finite")


def _resting_sets(b: PhaseSpaceFunction, X, P, t: float):
    """Row masks (plateau, outside) of the module docstring; both empty
    unless b carries an eta_cutoff."""
    none = np.zeros(X.shape[0], dtype=bool)
    if b.eta_cutoff is None:
        return none, none
    plateau, support, grad_bound = b.eta_cutoff
    finite = np.all(np.isfinite(X), axis=1) & np.all(np.isfinite(P), axis=1)
    r = np.sqrt(np.sum(P ** 2, axis=1))
    return (finite & (r + abs(t) * grad_bound * (1.0 + 1e-9) < plateau),
            finite & (r >= support))


def _flow_batch(b: PhaseSpaceFunction, X, P, t: float, h: float,
                scheme: Optional[str] = None):
    """Advance a batch of phase points by time t (t may be negative).

    scheme None picks Verlet for mechanical generators and RK4 otherwise;
    "rk4" forces the higher-order integrator (useful when the O(h^2) Verlet
    error would drown what is being measured).
    """
    X = np.array(X, dtype=float, copy=True)
    P = np.array(P, dtype=float, copy=True)
    if t == 0.0:
        return X, P
    steps = max(1, int(round(abs(t) / h)))
    dt = t / steps

    if b.potential is not None and scheme != "rk4":
        vgrad = b.potential.gradient
        # Stormer-Verlet: half kick, drift, half kick; the closing kick's
        # gradient opens the next step
        grad = vgrad(X).reshape(X.shape)
        for _ in range(steps):
            P -= 0.5 * dt * grad
            X += dt * P
            grad = vgrad(X).reshape(X.shape)
            P -= 0.5 * dt * grad
            _check_escape(P)
        return X, P

    field = b.vector_field or _gradients(b)

    def rhs(x, p):
        dx, dp = field(x, p)
        return dp, -dx

    plateau, outside = _resting_sets(b, X, P, t)
    _check_escape(P[outside])
    if plateau.any():
        Pf = P[plateau]
        _, k = rhs(X[plateau], Pf)
        shift = (dt / 6.0) * (k + 2 * k + 2 * k + k)
        for _ in range(steps):
            Pf += shift
            _check_escape(Pf)
        P[plateau] = Pf
    moving = ~(plateau | outside)
    Xm, Pm = X[moving], P[moving]
    for _ in range(steps):
        k1x, k1p = rhs(Xm, Pm)
        k2x, k2p = rhs(Xm + 0.5 * dt * k1x, Pm + 0.5 * dt * k1p)
        k3x, k3p = rhs(Xm + 0.5 * dt * k2x, Pm + 0.5 * dt * k2p)
        k4x, k4p = rhs(Xm + dt * k3x, Pm + dt * k3p)
        Xm += (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        Pm += (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        _check_escape(Pm)
    X[moving], P[moving] = Xm, Pm
    return X, P


def _step(h) -> float:
    """h as a float; refused unless 0 < h <= 1e-2."""
    h = float(h)
    if not (0.0 < h <= _MAX_STEP):
        raise ValueError("step size must lie in (0, 1e-2]")
    return h


@dataclass(frozen=True)
class SymplecticMap:
    """Time-t map of a Hamiltonian generator, with its exact-inverse partner."""

    generator: PhaseSpaceFunction
    time: float
    h: float

    @property
    def dim(self) -> int:
        return self.generator.dim

    def apply(self, X, P):
        """Batched map on raw (m, dim) arrays; positions wrap on output."""
        X, P = _flow_batch(self.generator, X, P, self.time, self.h)
        return wrap_angles(X), P

    def __call__(self, z: PhasePoint) -> PhasePoint:
        if z.x.size != self.dim:
            raise ValueError("phase point dimension does not match the generator")
        X, P = self.apply(z.x.reshape(1, -1), z.p.reshape(1, -1))
        return PhasePoint(X[0], P[0])

    def inverse(self) -> "SymplecticMap":
        return SymplecticMap(generator=self.generator, time=-self.time, h=self.h)


def time_one_map(b: PhaseSpaceFunction, h: float) -> SymplecticMap:
    return SymplecticMap(generator=b, time=1.0, h=_step(h))


def compose_hamiltonian(H: PhaseSpaceFunction, phi: SymplecticMap) -> PhaseSpaceFunction:
    """Numeric symbol z -> H(phi(z)).  Every evaluation is a flow, so
    ``invariance_check`` evaluates it only to build one interpolation table
    in p for all its momenta: one flow per level of a nested coarse x-grid,
    resampled onto the solver grid."""
    if H.dim != phi.dim:
        raise ValueError("symbol and map dimensions differ")

    def fn(x, eta):
        return H.fn(*phi.apply(_rows(x, H.dim), _rows(eta, H.dim)))

    return PhaseSpaceFunction(dim=H.dim, fn=fn)


def symplectic_defect(phi: SymplecticMap, probes: int = 32, p_box: float = 3.0) -> float:
    """max over probes of |det(D phi) - 1|, Jacobian by central differences
    of step 1e-5 at probe points drawn with seed 42."""
    probes = int(probes)
    if probes < 1:
        raise ValueError("need at least one probe point")
    n = phi.dim
    step = 1e-5
    rng = np.random.default_rng(42)
    x0 = rng.uniform(0.0, TWO_PI, size=(probes, n))
    p0 = rng.uniform(-p_box, p_box, size=(probes, n))

    # one batched evaluation for all +/- perturbations of all coordinates
    reps = 4 * n
    X = np.repeat(x0, reps, axis=0)
    P = np.repeat(p0, reps, axis=0)
    for c in range(2 * n):
        if c < n:
            X[2 * c::reps, c] += step
            X[2 * c + 1::reps, c] -= step
        else:
            P[2 * c::reps, c - n] += step
            P[2 * c + 1::reps, c - n] -= step
    # disable wrapping: use the raw flow so differences across 2 pi stay smooth
    XF, PF = _flow_batch(phi.generator, X, P, phi.time, phi.h)

    # (probe, perturbed coordinate c, +/-, image component) -> jac[probe, :, c]
    Z = np.concatenate([XF, PF], axis=1).reshape(probes, 2 * n, 2, 2 * n)
    jac = np.swapaxes((Z[:, :, 0] - Z[:, :, 1]) / (2 * step), 1, 2)
    return float(np.max(np.abs(np.linalg.det(jac) - 1.0)))
