"""Phase-space functions b(x, eta) on T^n x R^n.

A symbol carries its evaluator plus whatever structure is known about it:
an exact x-Fourier transform (used by the quantiser to avoid quadrature),
a bandwidth in x, its Hamiltonian vector field, the underlying potential
when the symbol is mechanical, |eta|^2/2 + V(x), or the radii of the
momentum cutoff of a product W(x) g(eta), which lets the flows step only
the points that can reach the cutoff's band.  The built-in symbols give
the vector field (dH/dx, dH/deta) in one call, analytic throughout: one
kernel pass of the potential for W and grad W (a cos for W's column and a
sin for grad W's; a mechanical symbol's grad V alone takes the sin only),
and one exp pair of bump_profile for the cutoff and its derivative, masked
rather than gathered.  Nothing is differenced: a product whose profile has
no value_and_gradient has no vector field.  A numeric symbol carries
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
    and grad g from eta_fn.value_and_gradient, as bump_profile's has; a
    profile without one gives a symbol without a vector_field, which a
    SymplecticMap refuses.

    A profile with plateau and support attributes, as bump_profile's has,
    sets eta_cutoff to (plateau, support, G), G = sum_q |w_q| |q|_2 over the
    half spectrum of W, which bounds sup |grad W|_2.
    """
    dim = pot.dim
    profile_vg = getattr(eta_fn, "value_and_gradient", None)

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
    return PhaseSpaceFunction(dim=dim, fn=fn, x_bandwidth=pot.max_frequency, x_fourier=xf,
                              vector_field=None if profile_vg is None else vf,
                              eta_cutoff=cutoff)


def bump_profile(plateau: float, support: float) -> Callable:
    """Smooth radial cutoff in eta: 1 for |eta| <= plateau, 0 beyond support.

    Standard C-infinity transition s(t) = g / (f + g), f = exp(-1/t),
    g = exp(-1/(1-t)), glued on [plateau, support] by
    t = (|eta| - plateau) / (support - plateau).  Every row is computed
    alike, without gathering the transition band 0 < t < 1: off the band the
    exps take t = 1/2 in its place, and masks pick s = 1 (t <= 0) or 0 (t >= 1
    or NaN) and a gradient of exactly +0.0, so no division by zero or
    overflow occurs.  The returned profile maps eta to s.  Its attribute
    value_and_gradient maps an (m, dim) batch (or a bare 1D array) to
    (s, grad_eta s), the gradient from the same exp pair: the analytic
    s'(t) = -f g (1/t^2 + 1/(1-t)^2) / (f + g)^2 times
    eta / (|eta| (support - plateau)).  |eta| of one column is its absolute
    value, equal to sqrt(eta^2) bit for bit below overflow.  Its attributes
    plateau and support give the radii: for |eta|_2 < plateau the profile is
    exactly 1.0 with gradient exactly 0, for |eta|_2 >= support both are
    exactly 0.
    """
    r0 = float(plateau)
    r1 = float(support)
    if not (0.0 < r0 < r1):
        raise ValueError("need 0 < plateau < support")
    width = r1 - r0

    def smooth_step(eta):
        # s, plus what its derivative needs: |eta|, the band mask, and t,
        # 1 - t, f, g and f + g with the stand-in t = 1/2 off the band
        if eta.ndim == 1 or eta.shape[-1] == 1:
            r = np.abs(eta if eta.ndim == 1 else eta[..., 0])
        else:
            with np.errstate(over="ignore"):    # |eta| overflows to inf, off the band
                r = np.sqrt(np.sum(eta ** 2, axis=-1))
        t = (r - r0) / width
        band = (t > 0.0) & (t < 1.0)
        tb = np.where(band, t, 0.5)
        u = 1.0 - tb
        f = np.exp(-1.0 / tb)
        g = np.exp(-1.0 / u)
        fg = f + g
        s = np.where(band, g / fg, t <= 0.0)
        return s, r, band, tb, u, f, g, fg

    def profile(eta):
        return smooth_step(np.asarray(eta, dtype=float))[0]

    def value_and_gradient(eta):
        eta = np.asarray(eta, dtype=float)
        s, r, band, t, u, f, g, fg = smooth_step(eta)
        # -(f / t / t + f / u / u) g / (f + g)^2 / (width r), in place, the
        # sign moved into the last divisor (exact) and r floored at the
        # plateau, which changes no band row and keeps r = 0 out of it;
        # f / t / t rather than f / t**2: f is 0 wherever t**2 underflows
        ds = f / t
        ds /= t
        f /= u
        f /= u
        ds += f
        ds *= g
        ds /= np.square(fg, out=fg)
        ds /= -width * np.maximum(r, r0)
        if eta.ndim > 1:
            ds, band = ds[..., None], band[..., None]
        grad = np.zeros(eta.shape)
        np.multiply(ds, eta, out=grad, where=band)
        return s, grad

    profile.value_and_gradient = value_and_gradient
    profile.plateau, profile.support = r0, r1
    return profile
