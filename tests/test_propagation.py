"""Propagator, Heisenberg evolution, and the quantized-flow comparison."""

import numpy as np
import pytest

from torusspec._linalg import operator_norm, unitarity_defect
from torusspec.dynamics import SymplecticMap, compose_hamiltonian
from torusspec.potentials import FourierPotential, cosine, zero_potential
from torusspec.propagation import (default_cutoff_rule, egorov_scaling, heisenberg,
                                   interior_indices, propagate)
from torusspec.spectra import assemble_hamiltonian
from torusspec.symbols import bump_profile, mechanical_symbol, product_symbol
from torusspec.weylquant import weyl_matrix


def test_propagator_is_unitary():
    ham = assemble_hamiltonian(cosine((1,)), 0.5, 8)
    U = propagate(ham, 1.7)
    assert unitarity_defect(U) < 1e-10


def test_free_propagator_phases_exact():
    ham = assemble_hamiltonian(zero_potential(1), 0.5, 6)
    U = propagate(ham, 1.0)
    ks = np.arange(-6, 7)
    expect = np.exp(-1j * 0.5 * 0.5 * ks ** 2)      # hbar^2 k^2 / (2 hbar)
    assert np.max(np.abs(np.diag(U) - expect)) < 1e-12
    off = U - np.diag(np.diag(U))
    assert np.max(np.abs(off)) < 1e-12


def test_propagator_2d_matches_the_complex_eigensolve():
    # complex coefficients and off-axis terms (POT_2D of test_weylquant); at
    # dyadic hbar the Weyl matrix of |eta|^2/2 + V is H on the plane-wave basis
    pot = (cosine((1, 1)) + cosine((1, -2)).translate((0.3, 0.0)) * 0.4
           + FourierPotential(2, {(0, 1): 0.3j, (0, -1): -0.3j}))
    h = weyl_matrix(mechanical_symbol(pot), 0.5, 5).matrix
    evals, vecs = np.linalg.eigh(h)
    ref = (vecs * np.exp(-1j * 0.9 * evals / 0.5)) @ vecs.conj().T
    U = propagate(assemble_hamiltonian(pot, 0.5, 5), 0.9)
    assert np.max(np.abs(U - ref)) <= 1e-12


def test_heisenberg_of_conserved_quantity():
    h = weyl_matrix(mechanical_symbol(cosine((1,))), 0.5, 8).matrix
    Ht = heisenberg(assemble_hamiltonian(cosine((1,)), 0.5, 8), h, 2.3)
    assert np.max(np.abs(Ht - h)) < 1e-10


def test_heisenberg_composes_in_time():
    ham = assemble_hamiltonian(cosine((1,)), 0.5, 6)
    obs = weyl_obs(0.5)
    one = heisenberg(ham, heisenberg(ham, obs, 0.4), 0.6)
    both = heisenberg(ham, obs, 1.0)
    assert np.max(np.abs(one - both)) < 1e-10


def weyl_obs(hbar):
    a = product_symbol(cosine((1,)), bump_profile(2.0, 4.0))
    return weyl_matrix(a, hbar, 6).matrix


def test_interior_indices():
    idx = interior_indices(1, 8)
    assert idx.shape == (9,)
    # the block spans |k| <= 4 inside the |k| <= 8 box
    assert idx[0] == 4 and idx[-1] == 12


def test_egorov_free_motion_machine_exact():
    a = product_symbol(cosine((1,)), bump_profile(2.0, 4.0))
    rep = egorov_scaling(a, zero_potential(1), 1.0, (0.25, 0.125), cutoff_rule=lambda hb: 16)
    assert max(rep.residuals) < 1e-8


def test_egorov_scaling_free_flags_exact():
    a = product_symbol(cosine((1,)), bump_profile(2.0, 4.0))
    rep = egorov_scaling(a, zero_potential(1), 1.0, (0.5, 0.25),
                         cutoff_rule=lambda hb: 16)
    assert rep.exact and rep.slope is None
    d = rep.to_dict()
    assert d["exact"] is True and len(d["residual"]) == 2


def test_egorov_scaling_groups_hbar_by_cutoff():
    # two groups: K = 8 for hbar 0.5, 0.25 and K = 12 for hbar 0.2; each
    # residual is the one computed for its hbar alone, bit for bit
    a = product_symbol(cosine((1,)), bump_profile(0.9, 1.2))
    pot = cosine((1,))
    hbars = (0.5, 0.25, 0.2)
    rep = egorov_scaling(a, pot, 1.0, hbars, cutoff_rule=lambda hb: 8 if hb >= 0.25 else 12)
    assert rep.cutoffs == (8, 8, 12)
    flowed = compose_hamiltonian(a, SymplecticMap(mechanical_symbol(pot), 1.0, 1e-2))
    for hb, K, res in zip(hbars, rep.cutoffs, rep.residuals):
        At = heisenberg(assemble_hamiltonian(pot, hb, K), weyl_matrix(a, hb, K).matrix, 1.0)
        keep = interior_indices(1, K)
        assert res == operator_norm((At - weyl_matrix(flowed, hb, K).matrix)[np.ix_(keep, keep)])
    # a 64-point grid per row; rows with |eta| - t G_V (1 + 1e-9) >= 1.2,
    # G_V = 1, are dead.  K = 8: 33 rows (hbar/2) s of 0.25 and 16 more of
    # 0.5, the 33 with |eta| <= 2 live; K = 12: 49 rows 0.1 s, the 45 with
    # |s| <= 22 live
    assert rep.groups == ({"K": 8, "hbar": [0.5, 0.25], "lattice_points": 49 * 64,
                           "flowed_points": 33 * 64},
                          {"K": 12, "hbar": [0.2], "lattice_points": 49 * 64,
                           "flowed_points": 45 * 64})
    assert set(rep.to_dict()) == {"hbar", "residual", "slope", "exact"}


def test_egorov_scaling_needs_two_points():
    a = product_symbol(cosine((1,)), bump_profile(2.0, 4.0))
    with pytest.raises(ValueError):
        egorov_scaling(a, zero_potential(1), 1.0, (0.5,))


def test_default_cutoff_rule_frozen():
    assert default_cutoff_rule(1.0) == 32
    for hb in (0.2, 0.1, 0.05, 0.025):
        assert default_cutoff_rule(hb) == 64
