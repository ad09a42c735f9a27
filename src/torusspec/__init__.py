"""Spectra, quantization, and homogenization on the flat torus.

The library has three legs that check each other: plane-wave spectra of
periodic Schrödinger operators, toroidal Weyl/Wigner quantization of
phase-space symbols, and effective Hamiltonians from the Hamilton-Jacobi
cell problem.  Isospectral potentials (translations, reflections) are used
throughout as exact cross-checks.
"""

__version__ = "0.1.0"

from .potentials import (FourierPotential, cosine, load_potential,
                         potential_extrema, save_potential, sine,
                         zero_potential)
from .spectra import (HamiltonianMatrix, PlaneWaveBasis, SpectrumResult,
                      assemble_hamiltonian, auto_cutoff, count_eigenvalues,
                      eigen_spectrum, truncation_tail_bound, weyl_count_report,
                      weyl_volume)
from .symbols import (PhaseSpaceFunction, bump_profile, mechanical_symbol,
                      product_symbol)
from .weylquant import (WeylMatrix, cv_bound, projector_check, weyl_matrix,
                        wigner_pairing, wigner_transform)
from .dynamics import SymplecticMap, symplectic_defect, time_one_map
from .effective import (EffectiveTable, action_J, cell_problem_solve,
                        closed_form_table, effective_1d, invariance_check)
from .propagation import egorov_scaling, propagate
from .isospectral import (IsospectralPair, Theorem2Report, bs_reconstruct,
                          make_pair, spectra_compare, theorem2_check,
                          weyl_first_invariant)

__all__ = [name for name in dir() if not name.startswith("_")]
