"""Quantum propagation and the quantized-flow comparison.

The propagator is assembled spectrally: diagonalize once, exponentiate the
eigenvalues.  The main consumer is the Egorov residual, the operator-norm
distance between the Heisenberg evolution of a quantized observable and the
quantization of the classically flowed symbol, restricted to an interior
frequency block so that truncation at the basis edge does not pollute the
comparison.  ``egorov_scaling`` builds the flowed symbol once and quantizes
it once per group of hbar that share a cutoff, so each distinct lattice
momentum is flowed once, and only where it can reach the observable's
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import operator_norm, unitarity_defect
from .dynamics import SymplecticMap, _dead_rows, compose_hamiltonian
from .potentials import FourierPotential
from .spectra import HamiltonianMatrix, PlaneWaveBasis, _from_cos_sin, assemble_hamiltonian
from .symbols import PhaseSpaceFunction, mechanical_symbol
from .weylquant import _weyl_matrices, weyl_matrix

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


def default_cutoff_rule(hbar: float) -> int:
    return min(4 * math.ceil(8.0 / math.sqrt(hbar)), 64)


@dataclass(frozen=True)
class EgorovReport:
    """Residuals per hbar and their log-log slope.  groups holds, per cutoff
    group, K, its hbar, the lattice points the flowed symbol was evaluated
    on and how many of them were flowed; to_dict leaves it out."""

    hbars: tuple
    cutoffs: tuple
    residuals: tuple
    slope: Optional[float]
    exact: bool
    groups: tuple = ()

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
    """Operator-norm Egorov defects over a list of hbar plus the fitted
    log-log slope.

    Each residual is taken on the interior half-cutoff block, between the
    Heisenberg evolution of Op(a) and Op(a o Phi_t), Phi_t the flow of
    |eta|^2/2 + V.  The map is built first, so a bad t or h is refused
    before any assembly.  The hbar are grouped by cutoff, and each group
    quantizes the one flowed symbol once (``weylquant._weyl_matrices``).
    If every residual sits at or below 1e-8 the generator is treated as
    exactly propagated (no meaningful slope exists in rounding noise).
    """
    if len(hbars) < 2:
        raise ValueError("need at least two hbar values")
    phi = SymplecticMap(mechanical_symbol(pot), float(t), h)
    rule = cutoff_rule or default_cutoff_rule
    hbars = tuple(float(hb) for hb in hbars)
    cutoffs = tuple(int(rule(hb)) for hb in hbars)
    flowed = compose_hamiltonian(a, phi)
    residuals = [0.0] * len(hbars)
    groups = []
    for K in dict.fromkeys(cutoffs):
        group = [i for i, c in enumerate(cutoffs) if c == K]
        group_hbars = [hbars[i] for i in group]
        points = {"lattice_points": 0, "flowed_points": 0}

        def counted(x, eta):     # (m, dim) batches of whole lattice rows
            points["lattice_points"] += x.shape[0]
            points["flowed_points"] += x.shape[0] - int(np.count_nonzero(_dead_rows(a, phi, x, eta)))
            return flowed.fn(x, eta)

        mats = _weyl_matrices(PhaseSpaceFunction(dim=a.dim, fn=counted), group_hbars, K)
        keep = interior_indices(pot.dim, K)
        for i, B in zip(group, mats):
            At = heisenberg(assemble_hamiltonian(pot, hbars[i], K),
                            weyl_matrix(a, hbars[i], K).matrix, t)
            residuals[i] = operator_norm((At - B.matrix)[np.ix_(keep, keep)])
        groups.append({"K": K, "hbar": group_hbars, **points})
    exact = all(r <= 1e-8 for r in residuals)
    slope = None
    if not exact:
        slope = float(np.polyfit(np.log(np.asarray(hbars, dtype=float)),
                                 np.log(np.asarray(residuals)), 1)[0])
    return EgorovReport(hbars=hbars, cutoffs=cutoffs,
                        residuals=tuple(float(r) for r in residuals),
                        slope=slope, exact=exact, groups=tuple(groups))
