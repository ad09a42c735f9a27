"""Quantum propagation and the quantized-flow comparison.

The propagator is assembled spectrally: diagonalize once, exponentiate the
eigenvalues.  The main consumer is the Egorov residual, the operator-norm
distance between the Heisenberg evolution of a quantized observable and the
quantization of the classically flowed symbol, restricted to an interior
frequency block so that truncation at the basis edge does not pollute the
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import operator_norm, unitarity_defect
from .dynamics import SymplecticMap, compose_hamiltonian
from .potentials import FourierPotential
from .spectra import HamiltonianMatrix, PlaneWaveBasis, _from_cos_sin, assemble_hamiltonian
from .symbols import PhaseSpaceFunction, mechanical_symbol
from .weylquant import weyl_matrix

_UNITARITY_TOL = 1e-10


def propagate(ham: HamiltonianMatrix, t: float) -> np.ndarray:
    """Unitary exp(-i t H / hbar) as a dense matrix on the plane-wave basis.

    ham.matrix is the real symmetric R = Q^H H Q of assemble_hamiltonian, so
    a real eigh gives R = W diag(lambda) W^T, and H's eigenvectors are Q W.
    """
    evals, w = np.linalg.eigh(ham.matrix)
    vecs = _from_cos_sin(w)
    phases = np.exp(-1j * float(t) * evals / ham.hbar)
    U = (vecs * phases[None, :]) @ vecs.conj().T
    defect = unitarity_defect(U)
    if defect > _UNITARITY_TOL:
        raise ArithmeticError(f"propagator unitarity defect {defect:.3e}")
    return U


def heisenberg(ham: HamiltonianMatrix, obs: np.ndarray, t: float) -> np.ndarray:
    """Observable at time t: U(t)* obs U(t)."""
    U = propagate(ham, t)
    return U.conj().T @ obs @ U


def interior_indices(dim: int, cutoff: int) -> np.ndarray:
    """Positions of the frequencies with |k|_inf <= cutoff//2 in the basis."""
    return PlaneWaveBasis(dim, cutoff).rows(PlaneWaveBasis(dim, cutoff // 2).frequencies())


def egorov_residual(a: PhaseSpaceFunction, pot: FourierPotential, t: float,
                    hbar: float, cutoff: int, h: float = 1e-2) -> float:
    """Operator-norm Egorov defect on the interior half-cutoff block, between
    the Heisenberg evolution of Op(a) and Op(a o Phi_t), Phi_t the flow of
    |eta|^2/2 + V.  The map is built first, so a bad t or h is refused
    before any assembly."""
    flowed = compose_hamiltonian(a, SymplecticMap(mechanical_symbol(pot), float(t), h))
    ham = assemble_hamiltonian(pot, hbar, cutoff)
    A = weyl_matrix(a, hbar, cutoff).matrix
    At = heisenberg(ham, A, t)
    B = weyl_matrix(flowed, hbar, cutoff).matrix
    keep = interior_indices(pot.dim, cutoff)
    diff = (At - B)[np.ix_(keep, keep)]
    return operator_norm(diff)


def default_cutoff_rule(hbar: float) -> int:
    return min(4 * math.ceil(8.0 / math.sqrt(hbar)), 64)


@dataclass(frozen=True)
class EgorovReport:
    hbars: tuple
    cutoffs: tuple
    residuals: tuple
    slope: Optional[float]
    exact: bool

    def to_dict(self) -> dict:
        return {
            "hbar": list(self.hbars),
            "residual": list(self.residuals),
            "slope": self.slope,
            "exact": bool(self.exact),
        }


def egorov_scaling(a: PhaseSpaceFunction, pot: FourierPotential, t: float,
                   hbars: Sequence[float],
                   cutoff_rule: Optional[Callable[[float], int]] = None,
                   h: float = 1e-2) -> EgorovReport:
    """Residuals over a list of hbar plus the fitted log-log slope.

    If every residual sits at or below 1e-8 the generator is treated as
    exactly propagated (no meaningful slope exists in rounding noise).
    """
    if len(hbars) < 2:
        raise ValueError("need at least two hbar values")
    rule = cutoff_rule or default_cutoff_rule
    cutoffs = [int(rule(hb)) for hb in hbars]
    residuals = [egorov_residual(a, pot, t, hb, K, h=h)
                 for hb, K in zip(hbars, cutoffs)]
    exact = all(r <= 1e-8 for r in residuals)
    slope = None
    if not exact:
        slope = float(np.polyfit(np.log(np.asarray(hbars, dtype=float)),
                                 np.log(np.asarray(residuals)), 1)[0])
    return EgorovReport(hbars=tuple(float(hb) for hb in hbars),
                        cutoffs=tuple(cutoffs),
                        residuals=tuple(float(r) for r in residuals),
                        slope=slope, exact=exact)
