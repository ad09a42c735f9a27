"""Classical Hamiltonian flows on torus phase space.

Every flow is the classical fourth-order Runge-Kutta method on the
generator's vector_field, one call per stage; a generator without one is
refused when its SymplecticMap is built, before any step.  Positions are
stored unwrapped during integration and wrapped on output, so winding does
not distort finite differences.

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

Escape is checked on every set, so what RK4 refuses is still refused.  A
batch with no row left for RK4, such as ``symplectic_defect``'s probes when
they all rest on the plateau, makes no RK4 stage.  The step factors dt/2
and dt/6 are formed once per flow.

A symbol H composed with the flow of a mechanical generator |eta|^2/2 + V
skips the flow of dead rows when H carries an eta_cutoff.  Along that flow
|d eta/dt| = |grad V|_2 <= G_V = sum_q |w_q| |q|_2, and each RK4 step adds
dt times a convex combination of field values, so |eta| moves by at most
|t| G_V (1 + 1e-9).  A finite row with |eta|_2 - |t| G_V (1 + 1e-9) >=
support ends where H is exactly 0, and one with |eta|_2 + |t| G_V (1 + 1e-9)
<= 1e3 cannot escape: a row meeting both gets 0.0 without a flow.  Every
other row is flowed, so escape and non-finite refusals are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import TWO_PI, _gradient_bound, wrap_angles
from .symbols import PhaseSpaceFunction, _rows

_MAX_STEP = 1e-2
_MAX_STEPS = 10 ** 4     # steps of one flow: |t| <= 100 at the largest step
_ESCAPE = 1e3


class FlowEscapeError(RuntimeError):
    """Raised when a trajectory leaves |p|_inf <= 1e3."""


def _check_escape(p):
    if not np.all(np.abs(p) <= _ESCAPE):     # NaN momenta fail too
        raise FlowEscapeError("trajectory left |p| <= 1e3 or is not finite")


def _check_batch(X, P, dim: int):
    if np.shape(X) != np.shape(P) or np.shape(X)[1:] != (dim,):
        raise ValueError("phase points do not form an (m, dim) batch of the generator")


def _finite_radii(X, P):
    """Rows whose coordinates are all finite, and |eta|_2 of every row."""
    finite = np.all(np.isfinite(X), axis=1) & np.all(np.isfinite(P), axis=1)
    return finite, np.sqrt(np.sum(P ** 2, axis=1))


def _resting_sets(b: PhaseSpaceFunction, X, P, t: float):
    """Row masks (plateau, outside) of the module docstring; both empty
    unless b carries an eta_cutoff."""
    none = np.zeros(X.shape[0], dtype=bool)
    if b.eta_cutoff is None:
        return none, none
    plateau, support, grad_bound = b.eta_cutoff
    finite, r = _finite_radii(X, P)
    return (finite & (r + abs(t) * grad_bound * (1.0 + 1e-9) < plateau),
            finite & (r >= support))


def _dead_rows(H: PhaseSpaceFunction, phi: "SymplecticMap", X, P):
    """Rows where H o phi is exactly 0 without a flow (module docstring);
    none unless H carries an eta_cutoff and phi's generator is mechanical."""
    pot = phi.generator.potential
    if H.eta_cutoff is None or pot is None:
        return np.zeros(X.shape[0], dtype=bool)
    drift = abs(phi.time) * _gradient_bound(pot) * (1.0 + 1e-9)
    finite, r = _finite_radii(X, P)
    return finite & (r - drift >= H.eta_cutoff[1]) & (r + drift <= _ESCAPE)


def _flow_batch(b: PhaseSpaceFunction, X, P, t: float, h: float):
    """Advance a batch of phase points by time t (t may be negative) in
    round(|t|/h) RK4 steps, at least one.  A batch without rows for RK4
    makes no RK4 stage."""
    X = np.array(X, dtype=float, copy=True)
    P = np.array(P, dtype=float, copy=True)
    if t == 0.0:
        return X, P
    steps = max(1, int(round(abs(t) / h)))
    dt = t / steps
    half, sixth = 0.5 * dt, dt / 6.0

    def rhs(x, p):
        dx, dp = b.vector_field(x, p)
        return dp, -dx

    plateau, outside = _resting_sets(b, X, P, t)
    _check_escape(P[outside])
    if plateau.any():
        Pf = P[plateau]
        _, k = rhs(X[plateau], Pf)
        shift = sixth * (k + 2 * k + 2 * k + k)
        for _ in range(steps):
            Pf += shift
            _check_escape(Pf)
        P[plateau] = Pf
    moving = ~(plateau | outside)
    if not moving.any():
        return X, P
    Xm, Pm = X[moving], P[moving]
    for _ in range(steps):
        k1x, k1p = rhs(Xm, Pm)
        k2x, k2p = rhs(Xm + half * k1x, Pm + half * k1p)
        k3x, k3p = rhs(Xm + half * k2x, Pm + half * k2p)
        k4x, k4p = rhs(Xm + dt * k3x, Pm + dt * k3p)
        Xm += sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        Pm += sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
        _check_escape(Pm)
    X[moving], P[moving] = Xm, Pm
    return X, P


@dataclass(frozen=True)
class SymplecticMap:
    """Time-t map of a Hamiltonian generator, flowed by RK4 in steps of h.

    Refused with ValueError unless 0 < h <= 1e-2, round(|t|/h) is at most
    _MAX_STEPS and the generator has a vector_field.
    """

    generator: PhaseSpaceFunction
    time: float
    h: float

    def __post_init__(self):
        time, h = float(self.time), float(self.h)
        if not (0.0 < h <= _MAX_STEP):
            raise ValueError("step size must lie in (0, 1e-2]")
        ratio = abs(time) / h
        if not math.isfinite(ratio) or round(ratio) > _MAX_STEPS:
            raise ValueError(f"flow time {time!r} needs more than {_MAX_STEPS} steps of {h}")
        if self.generator.vector_field is None:
            raise ValueError("the generator has no vector_field to flow")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.generator.dim

    def apply(self, X, P):
        """Batched map on raw (m, dim) arrays; positions wrap on output."""
        _check_batch(X, P, self.dim)
        X, P = _flow_batch(self.generator, X, P, self.time, self.h)
        return wrap_angles(X), P


def time_one_map(b: PhaseSpaceFunction, h: float) -> SymplecticMap:
    return SymplecticMap(b, 1.0, h)


def compose_hamiltonian(H: PhaseSpaceFunction, phi: SymplecticMap) -> PhaseSpaceFunction:
    """Numeric symbol z -> H(phi(z)), the one symbol after a flow:
    ``egorov_scaling`` quantizes a o Phi_t through it.  Every evaluation
    flows its rows but the dead ones of the module docstring, which are 0.0;
    so the Egorov path evaluates it once on the distinct lattice momenta of
    all its hbar at one cutoff, and ``invariance_check`` only to build one
    interpolation table in p for all its momenta: one flow per level of a
    nested coarse x-grid, resampled onto the solver grid."""
    if H.dim != phi.dim:
        raise ValueError("symbol and map dimensions differ")

    def fn(x, eta):
        X, P = _rows(x, H.dim), _rows(eta, H.dim)
        _check_batch(X, P, H.dim)
        live = ~_dead_rows(H, phi, X, P)
        if not live.any():
            return np.zeros(X.shape[0])
        vals = np.asarray(H.fn(*phi.apply(X[live], P[live])))
        out = np.zeros(X.shape[0], dtype=vals.dtype)
        out[live] = vals
        return out

    return PhaseSpaceFunction(dim=H.dim, fn=fn)


def symplectic_defect(phi: SymplecticMap, probes: int = 32) -> float:
    """max over probes of |det(D phi) - 1|, Jacobian by central differences
    of step 1e-5 at probe points drawn with seed 42, momenta in [-3, 3]^n."""
    probes = int(probes)
    if probes < 1:
        raise ValueError("need at least one probe point")
    n = phi.dim
    step = 1e-5
    rng = np.random.default_rng(42)
    x0 = rng.uniform(0.0, TWO_PI, size=(probes, n))
    p0 = rng.uniform(-3.0, 3.0, size=(probes, n))

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
