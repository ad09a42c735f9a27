"""Isospectral pairs, spectral comparison, counting invariant, reconstruction."""

import math

import numpy as np
import pytest

from torusspec import effective, isospectral
from torusspec.effective import cell_problem_solve
from torusspec.isospectral import (BSReconstruction, IsospectralPair, bs_reconstruct,
                                   make_pair, spectra_compare, theorem2_check,
                                   weyl_first_invariant, write_bs_csv)
from torusspec.potentials import FourierPotential, TWO_PI, cosine, zero_potential
from torusspec.spectra import assemble_hamiltonian, eigen_spectrum
from torusspec.symbols import mechanical_symbol

# asymmetric enough that reflection and translation act differently
ASYM = cosine((1,)) + FourierPotential(1, {(2,): -0.25j, (-2,): 0.25j})


def _free_spec(hbar, K):
    return eigen_spectrum(assemble_hamiltonian(zero_potential(1), hbar, K))


def test_make_pair_translate():
    pair = make_pair(ASYM, "translate", math.pi / 3.0)
    assert pair.relation == "translate"
    xs = np.linspace(0.0, TWO_PI, 17)
    assert np.max(np.abs(pair.right.evaluate(xs) - ASYM.evaluate(xs + math.pi / 3.0))) < 1e-12


def test_make_pair_reflect_and_compose():
    for relation, shift in (("reflect", None), ("compose", 0.7)):
        pair = make_pair(ASYM, relation, shift)
        assert pair.relation == relation


def test_make_pair_validation():
    with pytest.raises(ValueError):
        make_pair(ASYM, "translate")
    with pytest.raises(ValueError):
        make_pair(ASYM, "rotate", 1.0)


def test_spectra_compare_windows():
    a = _free_spec(1.0, 4)
    b = _free_spec(1.0, 5)
    assert spectra_compare(a, a) == 0.0
    assert spectra_compare(a, b) == math.inf          # 9 vs 11 eigenvalues


def test_theorem2_translated_cosine_consistent():
    pair = make_pair(cosine((1,)), "translate", math.pi)
    rep = theorem2_check(pair, hbars=(0.5,), cutoff=16, p_values=(0.0, 1.5, 2.0))
    assert rep.verdict == "consistent"
    assert max(rep.spec_dists) < 1e-12
    assert rep.eff_dist < 1e-12
    d = rep.to_dict()
    assert set(d) >= {"hbar", "spec_dist", "eff_dist", "verdict", "sampling_note"}


def test_theorem2_cell_method_consistent():
    pair = make_pair(cosine((1,)), "translate", math.pi)
    rep = theorem2_check(pair, hbars=(0.5,), cutoff=16, p_values=(2.0,),
                         method="cell-problem", grid=64)
    assert rep.verdict == "consistent"
    assert rep.eff_dist < 1e-12


def test_theorem2_cell_method_builds_each_grid_level_once_per_side(monkeypatch):
    # each side's P share one grid symbol and its halved level, so the 64 and
    # 32 grids are dissected once per side, not once per P; every solve is
    # still bit for bit its own cell_problem_solve: value, residual and
    # diagnostics
    shapes, solved = [], []
    dissect, solve_on = effective.nested_dissection, isospectral._solve_on
    monkeypatch.setattr(effective, "nested_dissection",
                        lambda shape: shapes.append(tuple(shape)) or dissect(shape))
    monkeypatch.setattr(isospectral, "_solve_on",
                        lambda sym, P: solved.append(solve_on(sym, P)) or solved[-1])
    pair = make_pair(cosine((1, 0)) + cosine((0, 1)), "translate", (math.pi, math.pi))
    p_values = [(0.0, 0.0), (1.0, 1.0)]
    rep = theorem2_check(pair, hbars=(1.0,), cutoff=4, p_values=p_values,
                         method="cell-problem", grid=64)
    assert shapes == [(64, 64), (32, 32)] * 2
    direct = [cell_problem_solve(mechanical_symbol(pot), P, 64)
              for pot in (pair.left, pair.right) for P in p_values]
    assert [(s.value, s.residual, s.diagnostics()) for s in solved] == \
        [(s.value, s.residual, s.diagnostics()) for s in direct]
    values = np.array([s.value for s in direct]).reshape(2, -1)
    assert rep.eff_dist == float(np.max(np.abs(values[0] - values[1])))


def test_theorem2_flags_violation():
    pair = IsospectralPair(cosine((1,)), cosine((1,)) * 1.1, "unknown")
    rep = theorem2_check(pair, hbars=(0.5,), cutoff=8, p_values=(2.0,))
    assert rep.verdict == "violated"


def test_theorem2_unknown_method():
    pair = make_pair(cosine((1,)), "reflect")
    with pytest.raises(ValueError):
        theorem2_check(pair, hbars=(0.5,), cutoff=8, p_values=(0.0,), method="nope")


def test_weyl_invariant_free_line():
    # free counts give scaled values exactly on the line 2 - hbar/2
    spectra = [_free_spec(hb, 40) for hb in (0.5, 0.25, 0.125)]
    inv = weyl_first_invariant(spectra, 2.0)
    assert inv.value == pytest.approx(2.0, abs=1e-9)
    assert inv.slope == pytest.approx(-0.5, abs=1e-9)
    assert inv.counts == (7, 15, 31)


def test_weyl_invariant_validation():
    spectra = [_free_spec(hb, 40) for hb in (0.5, 0.25, 0.125)]
    with pytest.raises(ValueError):
        weyl_first_invariant(spectra[:2], 2.0)
    with pytest.raises(ValueError):
        weyl_first_invariant(spectra, 1e4)
    dup = [spectra[0], spectra[0], spectra[1]]
    with pytest.raises(ValueError):
        weyl_first_invariant(dup, 2.0)


def test_bs_free_machine_exact():
    rec = bs_reconstruct(_free_spec(0.5, 20), zero_potential(1))
    assert rec.ells == tuple(range(1, 15))
    assert rec.momenta[0] == pytest.approx(0.5)
    assert max(rec.misfits) < 1e-12


def test_bs_cosine_misfit():
    spec = eigen_spectrum(assemble_hamiltonian(cosine((1,)), 0.1, 57))
    rec = bs_reconstruct(spec, cosine((1,)))
    assert rec.max_misfit((1.5, 3.0)) < 2e-4
    with pytest.raises(ValueError):
        rec.max_misfit((100.0, 101.0))


def test_bs_needs_doublets():
    spec = eigen_spectrum(assemble_hamiltonian(cosine((1,)), 1.0, 1))
    with pytest.raises(ValueError):
        bs_reconstruct(spec, cosine((1,)))


def test_bs_csv_golden_bytes(tmp_path):
    rec = BSReconstruction(hbar=0.5, ells=(1,), momenta=(0.5,),
                           energies=(0.125,), reference=(0.125,), misfits=(0.0,))
    out = tmp_path / "bs.csv"
    write_bs_csv(out, rec)
    golden = ("ell,P,E,Hbar_closed_form,misfit\n"
              "1,5.000000000000e-01,1.250000000000e-01,"
              "1.250000000000e-01,0.000000000000e+00\n")
    assert out.read_text() == golden
