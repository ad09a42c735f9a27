"""Phase-space functions b(x, eta) on T^n x R^n.

A symbol carries its evaluator plus whatever structure is known about it:
an exact x-Fourier transform (used by the quantiser to avoid quadrature),
a bandwidth in x, its Hamiltonian vector field, the underlying potential
when the symbol is mechanical, |eta|^2/2 + V(x), or the radii of the
momentum cutoff of a product W(x) g(eta), which lets the flows step only
the points that can reach the cutoff's band.  The built-in symbols give
the vector field (dH/dx, dH/deta) in one call, analytic throughout: one
cos/sin pass of the potential for W and grad W, and one exp pair of
bump_profile for the cutoff and its derivative.  A numeric symbol carries
its evaluator only; one composed with a flow costs a flow per evaluation,
so ``invariance_check`` evaluates it only to build one interpolation table
in p for all its momenta, flowing a nested coarse x-grid that it resamples
onto the solver grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .potentials import FourierPotential, _gradient_bound


@dataclass
class PhaseSpaceFunction:
    """b(x, eta), evaluated on batched arrays of shape (m, dim).

    vector_field(x, eta) returns (dH/dx, dH/deta), each (m, dim), from one
    call; the flows call it once per RK4 stage, and a SymplecticMap refuses
    a generator without one.  grad_x and grad_eta are optional callables
    that nothing in the library reads.

    eta_cutoff is (plateau, support, G) for a product W(x) g(eta) whose g is
    exactly 1 on |eta|_2 < plateau and exactly 0 on |eta|_2 >= support, with
    G >= sup |grad W|_2; the RK4 flow uses it to step only the points that
    can reach the band between.
    """

    dim: int
    fn: Callable
    x_bandwidth: Optional[int] = None          # None: not band-limited / unknown
    x_fourier: Optional[Callable] = None       # (q tuple, eta (m, dim)) -> values
    vector_field: Optional[Callable] = None    # (x, eta) -> (dH/dx, dH/deta)
    grad_x: Optional[Callable] = None
    grad_eta: Optional[Callable] = None
    potential: Optional[FourierPotential] = None   # set for |eta|^2/2 + V
    eta_cutoff: Optional[tuple] = None         # (plateau, support, G) of W(x) g(eta)

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


def _rows(a, dim: int) -> np.ndarray:
    """a as a float batch of rows; in 1D a bare array becomes one column."""
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 and dim == 1 else a


def mechanical_symbol(pot: FourierPotential) -> PhaseSpaceFunction:
    """H(x, eta) = |eta|^2 / 2 + V(x), with exact Fourier data and vector
    field (grad V, eta)."""
    dim = pot.dim

    def fn(x, eta):
        return 0.5 * np.sum(_rows(eta, dim) ** 2, axis=-1) + pot.evaluate(_rows(x, dim))

    def xf(q, eta):
        eta = _rows(eta, dim)
        vals = np.full(eta.shape[0], pot.coefficient(q), dtype=complex)
        if all(v == 0 for v in q):
            vals = vals + 0.5 * np.sum(eta ** 2, axis=-1)
        return vals

    def vf(x, eta):
        return pot.gradient(_rows(x, dim)), _rows(eta, dim).copy()

    return PhaseSpaceFunction(
        dim=dim, fn=fn, x_bandwidth=pot.max_frequency, x_fourier=xf,
        vector_field=vf, potential=pot,
    )


def product_symbol(pot: FourierPotential, eta_fn: Callable) -> PhaseSpaceFunction:
    """b(x, eta) = W(x) * g(|eta| profile), W a trig polynomial, g scalar.

    The x-Fourier transform stays exact: b_hat(q, eta) = c_q g(eta).
    eta_fn maps an (m, dim) batch to (m,) values.  The vector field
    (grad W g, W grad g) takes W and grad W from one potential call and g
    and grad g from eta_fn.value_and_gradient when the profile has one, as
    bump_profile's does; a plain callable is differenced instead.

    A profile with plateau and support attributes, as bump_profile's has,
    sets eta_cutoff to (plateau, support, G), G = sum_q |w_q| |q|_2 over the
    half spectrum of W, which bounds sup |grad W|_2.
    """
    dim = pot.dim
    profile_vg = getattr(eta_fn, "value_and_gradient", None)
    if profile_vg is None:
        def profile_vg(eta):
            return eta_fn(eta), _central_difference(eta_fn, eta)

    def fn(x, eta):
        return pot.evaluate(_rows(x, dim)) * eta_fn(_rows(eta, dim))

    def xf(q, eta):
        return pot.coefficient(q) * eta_fn(_rows(eta, dim))

    def vf(x, eta):
        w, dw = pot.value_and_gradient(_rows(x, dim))
        g, dg = profile_vg(_rows(eta, dim))
        return dw * g[:, None], dg * w[:, None]

    cutoff = None
    if hasattr(eta_fn, "plateau") and hasattr(eta_fn, "support"):
        cutoff = (eta_fn.plateau, eta_fn.support, _gradient_bound(pot))
    return PhaseSpaceFunction(dim=dim, fn=fn, x_bandwidth=pot.max_frequency,
                              x_fourier=xf, vector_field=vf, eta_cutoff=cutoff)


def bump_profile(plateau: float, support: float) -> Callable:
    """Smooth radial cutoff in eta: 1 for |eta| <= plateau, 0 beyond support.

    Standard C-infinity transition s(t) = g / (f + g), f = exp(-1/t),
    g = exp(-1/(1-t)), glued on [plateau, support] by
    t = (|eta| - plateau) / (support - plateau); only points of the
    transition band 0 < t < 1 need the exps.  The returned profile maps eta
    to s.  Its attribute value_and_gradient maps an (m, dim) batch to
    (s, grad_eta s), the gradient from the same exp pair: the analytic
    s'(t) = -f g (1/t^2 + 1/(1-t)^2) / (f + g)^2 times
    eta / (|eta| (support - plateau)).  Its attributes plateau and support
    give the radii: for |eta|_2 < plateau the profile is exactly 1.0 with
    gradient exactly 0, for |eta|_2 >= support both are exactly 0.
    """
    r0 = float(plateau)
    r1 = float(support)
    if not (0.0 < r0 < r1):
        raise ValueError("need 0 < plateau < support")

    def smooth_step(eta):
        # s, plus what its derivative needs: |eta|, the transition band
        # 0 < t < 1, and on it t, f = exp(-1/t) and g = exp(-1/(1-t))
        r = np.abs(eta) if eta.ndim == 1 else np.sqrt(np.sum(eta ** 2, axis=-1))
        t = (r - r0) / (r1 - r0)
        band = np.nonzero((t > 0.0) & (t < 1.0))
        tb = t[band]
        f, g = np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))
        s = (t <= 0.0).astype(float)
        s[band] = g / (f + g)
        return s, r, band, tb, f, g

    def profile(eta):
        return smooth_step(np.asarray(eta, dtype=float))[0]

    def value_and_gradient(eta):
        eta = np.asarray(eta, dtype=float)
        s, r, band, t, f, g = smooth_step(eta)
        u = 1.0 - t
        # f / t / t rather than f / t**2: f is 0 wherever t**2 underflows
        ds = -(f / t / t + f / u / u) * g / (f + g) ** 2
        grad = np.zeros(eta.shape)
        grad[band] = (ds / ((r1 - r0) * r[band]))[:, None] * eta[band]
        return s, grad

    profile.value_and_gradient = value_and_gradient
    profile.plateau, profile.support = r0, r1
    return profile
