"""Phase-space functions b(x, eta) on T^n x R^n.

A symbol carries its evaluator plus whatever structure is known about it:
an exact x-Fourier transform (used by the quantiser to avoid quadrature),
a bandwidth in x, analytic gradients, or the underlying potential when the
symbol is mechanical, |eta|^2/2 + V(x).  Numeric symbols obtained by
composing with a flow advertise themselves as expensive: the cell solver
then evaluates them once on an interpolation table it owns instead of at
every Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .potentials import FourierPotential, zero_potential


@dataclass
class PhaseSpaceFunction:
    """b(x, eta), evaluated on batched arrays of shape (m, dim)."""

    dim: int
    fn: Callable
    x_bandwidth: Optional[int] = None          # None: not band-limited / unknown
    x_fourier: Optional[Callable] = None       # (q tuple, eta (m, dim)) -> values
    grad_x: Optional[Callable] = None
    grad_eta: Optional[Callable] = None
    potential: Optional[FourierPotential] = None   # set for |eta|^2/2 + V
    expensive: bool = False

    def __call__(self, x, eta):
        return self.fn(np.asarray(x, dtype=float), np.asarray(eta, dtype=float))


def _central_difference(f, z):
    """Gradient of the batched scalar function f at the rows of z (m, dim),
    by central differences of step 1e-6."""
    step = 1e-6
    cols = []
    for i in range(z.shape[1]):
        e = np.zeros(z.shape[1])
        e[i] = step
        cols.append((np.asarray(f(z + e)) - f(z - e)).reshape(-1) / (2 * step))
    return np.stack(cols, axis=-1)


def _batch(x, eta, dim):
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if x.ndim == 1 and dim == 1:
        x = x[:, None]
    if eta.ndim == 1 and dim == 1:
        eta = eta[:, None]
    return x, eta


def mechanical_symbol(pot: FourierPotential) -> PhaseSpaceFunction:
    """H(x, eta) = |eta|^2 / 2 + V(x), with exact Fourier data and gradients."""
    dim = pot.dim

    def fn(x, eta):
        x, eta = _batch(x, eta, dim)
        return 0.5 * np.sum(eta ** 2, axis=-1) + pot.evaluate(x)

    def xf(q, eta):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 1 and dim == 1:
            eta = eta[:, None]
        vals = np.full(eta.shape[0], pot.coefficient(q), dtype=complex)
        if all(v == 0 for v in q):
            vals = vals + 0.5 * np.sum(eta ** 2, axis=-1)
        return vals

    def gx(x, eta):
        x, _ = _batch(x, eta, dim)
        return pot.gradient(x).reshape(x.shape)

    def ge(x, eta):
        _, eta = _batch(x, eta, dim)
        return eta.copy()

    return PhaseSpaceFunction(
        dim=dim, fn=fn, x_bandwidth=pot.max_frequency, x_fourier=xf,
        grad_x=gx, grad_eta=ge, potential=pot,
    )


def kinetic_symbol(dim: int = 1) -> PhaseSpaceFunction:
    """b(x, eta) = |eta|^2 / 2 (free motion generator)."""
    return mechanical_symbol(zero_potential(dim))


def product_symbol(pot: FourierPotential, eta_fn: Callable,
                   eta_grad: Optional[Callable] = None) -> PhaseSpaceFunction:
    """b(x, eta) = W(x) * g(|eta| profile), W a trig polynomial, g scalar.

    The x-Fourier transform stays exact: b_hat(q, eta) = c_q g(eta).
    eta_fn maps an (m, dim) batch to (m,) values; eta_grad, if given, to the
    (m, dim) gradient.
    """
    dim = pot.dim

    def fn(x, eta):
        x, eta = _batch(x, eta, dim)
        return pot.evaluate(x) * eta_fn(eta)

    def xf(q, eta):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 1 and dim == 1:
            eta = eta[:, None]
        return pot.coefficient(q) * eta_fn(eta)

    def gx(x, eta):
        x, eta = _batch(x, eta, dim)
        return pot.gradient(x).reshape(x.shape) * eta_fn(eta)[:, None]

    if eta_grad is not None:
        def ge(x, eta):
            x, eta = _batch(x, eta, dim)
            return eta_grad(eta) * pot.evaluate(x)[:, None]
    else:
        # profile-only differences: much cheaper than differencing the full
        # symbol, and the flows downstream call this in their inner loop
        def ge(x, eta):
            x, eta = _batch(x, eta, dim)
            return _central_difference(eta_fn, eta) * pot.evaluate(x)[:, None]

    return PhaseSpaceFunction(dim=dim, fn=fn, x_bandwidth=pot.max_frequency,
                              x_fourier=xf, grad_x=gx, grad_eta=ge)


def bump_profile(plateau: float, support: float) -> Callable:
    """Smooth radial cutoff in eta: 1 for |eta| <= plateau, 0 beyond support.

    Standard C-infinity transition exp(-1/t) glued on [plateau, support].
    """
    r0 = float(plateau)
    r1 = float(support)
    if not (0.0 < r0 < r1):
        raise ValueError("need 0 < plateau < support")

    def smooth_step(t):
        # 1 at t<=0, 0 at t>=1
        t = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
            g = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
        return g / (f + g)

    def profile(eta):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 1:
            r = np.abs(eta)
        else:
            r = np.sqrt(np.sum(eta ** 2, axis=-1))
        return smooth_step((r - r0) / (r1 - r0))

    return profile
