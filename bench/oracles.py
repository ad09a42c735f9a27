"""Reference values computed without torusspec.

Both oracles are exact to rounding and share no code with the library:
the pendulum spectrum comes from the Mathieu three-term recurrences, and
the pendulum's effective Hamiltonian from complete elliptic integrals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import ellipe


def mathieu_energies(hbar: float, amplitude: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of -(hbar^2/2) d^2/dx^2 + A cos(x + c).

    With x = 2z the 2 pi-periodic eigenfunctions are the pi-periodic Mathieu
    functions ce_2n and se_2n+2 at q = 4A/hbar^2, and E = hbar^2 a / 8.  The
    characteristic values a_2n and b_2n+2 are the eigenvalues of the even and
    odd Fourier recurrences; truncating each well past ``count`` leaves the
    wanted ones exact to rounding.  (scipy.special.mathieu_a/b agree on the
    lowest levels but jump between branches for higher orders at q >= 400.)
    """
    q = 4.0 * float(amplitude) / float(hbar) ** 2
    m = int(count) + 40
    r = np.arange(m, dtype=float)
    off = np.full(m - 1, q)
    off_even = off.copy()
    off_even[0] = math.sqrt(2.0) * q
    a = eigh_tridiagonal((2.0 * r) ** 2, off_even, eigvals_only=True)
    b = eigh_tridiagonal((2.0 * (r + 1.0)) ** 2, off, eigvals_only=True)
    return np.sort(np.concatenate([a, b]))[:count] * float(hbar) ** 2 / 8.0


def cosine_hbar(amplitude: float, P: float) -> float:
    """Effective Hamiltonian of p^2/2 + A cos(x + c) at momentum P.

    The action above the separatrix is J(E) = (2 sqrt 2 / pi) sqrt(E + A)
    E(m) with m = 2A/(E + A) and E(m) the complete elliptic integral of the
    second kind; Hbar is A on the plateau |P| <= J(A) = 4 sqrt(A)/pi and the
    inverse of J beyond it.
    """
    a = float(amplitude)
    p = abs(float(P))
    if p <= 4.0 * math.sqrt(a) / math.pi:
        return a

    def gap(energy):
        return 2.0 * math.sqrt(2.0) / math.pi * math.sqrt(energy + a) \
            * ellipe(2.0 * a / (energy + a)) - p

    # J(E) >= sqrt(2 (E - A)), so E = A + p^2/2 + 1 brackets the root
    return brentq(gap, a, a + 0.5 * p * p + 1.0, xtol=1e-15,
                  rtol=4.0 * np.finfo(float).eps, maxiter=200)
