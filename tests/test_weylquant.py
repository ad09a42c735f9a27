"""Midpoint quantization, Wigner duality, and the uniform norm bound."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from test_spectra import _real_form
from torusspec.dynamics import SymplecticMap, compose_hamiltonian
from torusspec.potentials import FourierPotential, TWO_PI, cosine
from torusspec.spectra import PlaneWaveBasis, assemble_hamiltonian
from torusspec.symbols import (PhaseSpaceFunction, bump_profile,
                               mechanical_symbol, product_symbol)
from torusspec.weylquant import (_weyl_matrices, cv_bound, cv_derivative_order, operator_norm,
                                 projector_check, symbol_from_wigner,
                                 weyl_matrix, wigner_pairing, wigner_transform,
                                 x_derivative_sup_norms)


# off-axis and sine terms, complex coefficients: exercises the 2D row strides
POT_2D = (cosine((1, 1)) + cosine((1, -2)).translate((0.3, 0.0)) * 0.4
          + FourierPotential(2, {(0, 1): 0.3j, (0, -1): -0.3j}))


def test_mechanical_symbol_quantizes_to_schrodinger_matrix():
    # bit for bit at dyadic hbar, 0.5 (hbar k)^2 and 0.5 hbar^2 k^2 agreeing,
    # once the Weyl matrix is put in the cos/sin form of the Hamiltonian
    for pot, K in ((cosine((1,)) + cosine((2,)) * 0.3, 8), (POT_2D, 5)):
        a = weyl_matrix(mechanical_symbol(pot), 0.5, K).matrix
        b = assemble_hamiltonian(pot, 0.5, K).matrix
        assert np.array_equal(_real_form(a), b)


def test_numeric_fft_path_matches_closed_form():
    prof = lambda eta: np.exp(-0.5 * np.sum(eta ** 2, axis=-1))
    for pot, K in ((cosine((1,)), 6), (POT_2D, 4)):
        closed = product_symbol(pot, prof)
        # same evaluator with the Fourier data stripped forces the FFT path
        numeric = PhaseSpaceFunction(dim=pot.dim, fn=closed.fn)
        a = weyl_matrix(closed, 0.5, K).matrix
        b = weyl_matrix(numeric, 0.5, K).matrix
        assert np.max(np.abs(a - b)) < 1e-12


def _weyl_matrix_per_row(b, hbar, K):
    """The numeric path with one symbol call per lattice momentum row."""
    n = b.dim
    G = max(4 * K + 4, 4 * (b.x_bandwidth or 0) + 4, 64)
    axis = np.arange(G) * (TWO_PI / G)
    xg = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=-1)
    sums = np.array(list(itertools.product(range(-2 * K, 2 * K + 1), repeat=n)), dtype=int)
    S, P = sums.shape[0], xg.shape[0]
    vals = np.empty((S, P), dtype=complex)
    for si, s in enumerate(sums):
        eta = np.repeat((0.5 * hbar * s.astype(float))[None, :], P, axis=0)
        vals[si] = b.fn(xg, eta)
    spec = np.fft.fftn(vals.reshape((S,) + (G,) * n), axes=tuple(range(1, n + 1))) / (G ** n)
    spec = spec.reshape(S, -1)
    freqs = PlaneWaveBasis(n, K).frequencies()
    jj = freqs[:, None, :] + freqs[None, :, :]
    qq = freqs[:, None, :] - freqs[None, :, :]
    s_flat = np.zeros(jj.shape[:2], dtype=int)
    q_flat = np.zeros(jj.shape[:2], dtype=int)
    for i in range(n):
        s_flat = s_flat * (4 * K + 1) + (jj[:, :, i] + 2 * K)
        q_flat = q_flat * G + np.mod(qq[:, :, i], G)
    return spec[s_flat, q_flat]


def _numeric_symbol(pot):
    """A product symbol with its Fourier data stripped, and a call counter."""
    fn = product_symbol(pot, lambda eta: np.exp(-0.5 * np.sum(eta ** 2, axis=-1))).fn
    calls = []

    def counted(x, eta):
        calls.append(x.shape[0])
        return fn(x, eta)

    return PhaseSpaceFunction(dim=pot.dim, fn=counted), calls


def test_numeric_path_matches_per_row_reference():
    # 1D K = 24: 97 rows of 100 points in chunks of 40, 40 and 17 rows
    for pot, K in ((cosine((1,)), 24), (POT_2D, 4)):
        b, _ = _numeric_symbol(pot)
        assert np.array_equal(weyl_matrix(b, 0.5, K).matrix, _weyl_matrix_per_row(b, 0.5, K))


def test_numeric_path_calls_symbol_once_per_chunk_of_rows():
    # at most 2^12 points per call, in whole rows: 3 calls for 97 rows of 100
    # points, one call per row of 64^2 points in 2D
    for pot, K, G, expect in ((cosine((1,)), 24, 100, 3), (cosine((1,)), 64, 260, 18),
                              (POT_2D, 2, 64, 81)):
        b, calls = _numeric_symbol(pot)
        weyl_matrix(b, 0.5, K)
        S, P = (4 * K + 1) ** pot.dim, G ** pot.dim
        assert len(calls) == math.ceil(S / max(1, 2 ** 12 // P)) == expect
        assert sum(calls) == S * P


def _physical_memory_of(monkeypatch, nbytes):
    real_sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real_sysconf(name))


@pytest.mark.parametrize("dim, K", [(1, 8), (2, 3)])
def test_numeric_weyl_path_beyond_physical_memory_is_refused(monkeypatch, dim, K):
    # 40 bytes per value: the (4K+1)^n rows on the 64^n grid and their FFT
    calls = []

    def fn(x, eta):
        calls.append(1)
        return np.cos(x[:, 0]) * np.exp(-np.sum(eta ** 2, axis=1))

    b = PhaseSpaceFunction(dim=dim, fn=fn)
    need = 40 * (4 * K + 1) ** dim * 64 ** dim
    _physical_memory_of(monkeypatch, need - 1)
    with pytest.raises(ValueError, match="physical memory"):
        weyl_matrix(b, 0.5, K)
    assert calls == []
    _physical_memory_of(monkeypatch, need)
    weyl_matrix(b, 0.5, K)
    assert calls


def _distinct_momenta(dim, K, hbars):
    sums = list(itertools.product(range(-2 * K, 2 * K + 1), repeat=dim))
    return {tuple(0.5 * hb * float(v) for v in s) for hb in hbars for s in sums}


@pytest.mark.parametrize("dim, K", [(1, 8), (2, 3)])
def test_grouped_weyl_path_beyond_physical_memory_is_refused(monkeypatch, dim, K):
    # 40 bytes per value of the U distinct rows across the group: at hbar
    # 0.5 and 0.25, U = 49 in 1D (33 + 16) and 289 in 2D (169 + 169 - 49)
    calls = []

    def fn(x, eta):
        calls.append(1)
        return np.cos(x[:, 0]) * np.exp(-np.sum(eta ** 2, axis=1))

    b = PhaseSpaceFunction(dim=dim, fn=fn)
    U = len(_distinct_momenta(dim, K, (0.5, 0.25)))
    assert U == (49, 289)[dim - 1]
    need = 40 * U * 64 ** dim
    _physical_memory_of(monkeypatch, need - 1)
    with pytest.raises(ValueError, match="physical memory"):
        _weyl_matrices(b, (0.5, 0.25), K)
    assert calls == []
    _physical_memory_of(monkeypatch, need)
    assert len(_weyl_matrices(b, (0.5, 0.25), K)) == 2
    assert sum(calls) >= 1


@pytest.mark.parametrize("hbars, distinct", [((0.2, 0.1, 0.05), 193), ((0.2, 0.15), 187)])
def test_grouped_weyl_path_equals_one_hbar_at_a_time(hbars, distinct):
    # the flowed observable of the Egorov bench at K = 24, 97 rows per hbar:
    # hbar 0.2, 0.1, 0.05 (powers of 2 apart) share most rows, while 0.2 and
    # 0.15 share only 7 (eta = 0, +-1.5, +-2.1, +-3.0)
    assert len(_distinct_momenta(1, 24, hbars)) == distinct
    a = product_symbol(cosine((1,)).translate(0.7), bump_profile(0.9, 1.2))
    phi = SymplecticMap(mechanical_symbol(cosine((1,)).translate(0.7)), 1.0, 1e-2)
    flowed = compose_hamiltonian(a, phi)
    grouped = _weyl_matrices(flowed, hbars, 24)
    assert [m.hbar for m in grouped] == list(hbars)
    for hb, mat in zip(hbars, grouped):
        assert np.array_equal(mat.matrix, weyl_matrix(flowed, hb, 24).matrix)


def test_grouped_weyl_path_evaluates_each_distinct_row_once():
    b, calls = _numeric_symbol(cosine((1,)))
    _weyl_matrices(b, (0.5, 0.25, 0.125), 8)
    assert sum(calls) == len(_distinct_momenta(1, 8, (0.5, 0.25, 0.125))) * 64 == 65 * 64


@pytest.mark.parametrize("dim, K", [(1, 8), (2, 3)])
def test_wigner_beyond_physical_memory_is_refused(monkeypatch, dim, K):
    # 48 bytes per entry of the (4K+1)^n x res^n spectrum, res = 4K + 4
    basis = PlaneWaveBasis(dim, K)
    psi = np.full(basis.size, basis.size ** -0.5)
    entries = (4 * K + 1) ** dim * (4 * K + 4) ** dim
    _physical_memory_of(monkeypatch, 48 * entries - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            wigner_transform(psi, basis, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * entries                  # not one complex array
    _physical_memory_of(monkeypatch, 48 * entries)
    assert wigner_transform(psi, basis, 0.5).values.shape == ((4 * K + 1) ** dim,) + (4 * K + 4,) * dim


def test_midpoint_rule_entries_first_principles():
    # b = cos(x) eta: the (j, m) entry must be 0.5 * hbar (j + m) / 2
    hbar = 0.8
    b = product_symbol(cosine((1,)), lambda eta: eta[:, 0])
    mat = weyl_matrix(b, hbar, 4).matrix
    for j, m in [(1, 0), (0, 1), (3, 2), (-2, -1), (4, 3)]:
        expect = 0.5 * hbar * (j + m) / 2.0
        row, col = PlaneWaveBasis(1, 4).rows([[j], [m]])
        assert mat[row, col] == pytest.approx(expect, abs=1e-14)
    assert np.max(np.abs(np.diag(mat))) == 0.0
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-14


def test_wigner_of_basis_state_is_lattice_delta():
    basis = PlaneWaveBasis(1, 4)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.rows([[2]])] = 1.0
    table = wigner_transform(psi, basis, 0.5)
    kap_row = {tuple(k): i for i, k in enumerate(table.kappas)}
    row = table.values[kap_row[(4,)]]
    assert np.max(np.abs(row - 1.0 / TWO_PI)) < 1e-14
    others = np.delete(table.values, kap_row[(4,)], axis=0)
    assert np.max(np.abs(others)) < 1e-14
    assert table.momenta()[kap_row[(4,)], 0] == pytest.approx(1.0)
    # the sum over eta of the x-integrals of W is ||psi||^2
    assert float(np.sum(table.values) * (TWO_PI / table.res)) == pytest.approx(1.0, abs=1e-12)


def test_wigner_superposition_interference_term():
    basis = PlaneWaveBasis(1, 2)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.rows([[0], [1]])] = 1.0 / math.sqrt(2.0)
    table = wigner_transform(psi, basis, 1.0)
    kap_row = {tuple(k): i for i, k in enumerate(table.kappas)}
    # the half-integer momentum row carries the cos x interference fringe
    fringe = table.values[kap_row[(1,)]]
    assert np.max(np.abs(fringe - np.cos(table.x_axis()) / TWO_PI)) < 1e-12
    # the sum over eta of the x-integrals of W is ||psi||^2
    assert float(np.sum(table.values) * (TWO_PI / table.res)) == pytest.approx(1.0, abs=1e-12)


def test_wigner_validation():
    basis = PlaneWaveBasis(1, 3)
    psi = np.zeros(basis.size, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError):
        wigner_transform(psi * 1.01, basis, 0.5)
    with pytest.raises(ValueError):
        wigner_transform(psi[:-1], basis, 0.5)


def _wigner_per_pair(psi, basis, res):
    """Brute-force transform: one complex exponential per pair (k, l)."""
    K, n = basis.cutoff, basis.dim
    axis = np.arange(res) * (TWO_PI / res)
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=-1)
    kappas = list(itertools.product(range(-2 * K, 2 * K + 1), repeat=n))
    index = {tuple(k): i for i, k in enumerate(basis.frequencies())}
    values = np.zeros((len(kappas), pts.shape[0]), dtype=complex)
    for ki, kap in enumerate(kappas):
        for k, mk in index.items():
            ml = index.get(tuple(np.subtract(kap, k)))
            if ml is not None:
                d = 2 * np.asarray(k) - np.asarray(kap)
                values[ki] += psi[mk] * np.conj(psi[ml]) * np.exp(1j * (pts @ d.astype(float)))
    return values.reshape((len(kappas),) + (res,) * n) / TWO_PI ** n


def _random_state(basis, rng):
    psi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return psi / np.linalg.norm(psi)


def test_wigner_transform_matches_brute_force():
    rng = np.random.default_rng(17)
    for basis in (PlaneWaveBasis(1, 6), PlaneWaveBasis(1, 3), PlaneWaveBasis(2, 3)):
        psi = _random_state(basis, rng)
        table = wigner_transform(psi, basis, 0.5)
        ref = _wigner_per_pair(psi, basis, table.res)
        assert np.max(np.abs(table.values - ref)) <= 1e-13
        assert np.array_equal(table.kappas, PlaneWaveBasis(basis.dim, 2 * basis.cutoff).frequencies())


def test_pairing_matches_per_row_reference():
    rng = np.random.default_rng(29)
    for basis, pot in ((PlaneWaveBasis(1, 6), cosine((1,))), (PlaneWaveBasis(2, 3), POT_2D)):
        table = wigner_transform(_random_state(basis, rng), basis, 0.5)
        axis = table.x_axis()
        pts = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * basis.dim),
                                                           indexing="ij")], axis=-1)
        cell = (TWO_PI / table.res) ** basis.dim
        for b in (mechanical_symbol(pot), _numeric_symbol(pot)[0]):
            total = 0.0 + 0.0j
            for eta_row, w in zip(table.momenta(), table.values.reshape(len(table.kappas), -1)):
                if np.any(w):
                    eta = np.repeat(eta_row[None, :], pts.shape[0], axis=0)
                    total += np.sum(np.asarray(b.fn(pts, eta)) * w) * cell
            assert wigner_pairing(b, table) == total.real


def test_pairing_equals_quadratic_form():
    basis = PlaneWaveBasis(1, 6)
    hbar = 0.5
    H = mechanical_symbol(cosine((1,)))
    mat = weyl_matrix(H, hbar, 6).matrix
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        psi /= np.linalg.norm(psi)
        table = wigner_transform(psi, basis, hbar)
        quad = float(np.real(np.vdot(psi, mat @ psi)))
        assert wigner_pairing(H, table) == pytest.approx(quad, abs=1e-8)


def test_projector_identity():
    basis = PlaneWaveBasis(1, 6)
    rng = np.random.default_rng(5)
    for hbar in (1.0, 0.5):
        for _ in range(5):
            phi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            psi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            phi /= np.linalg.norm(phi)
            psi /= np.linalg.norm(psi)
            assert projector_check(phi, psi, basis, hbar) < 1e-9
    basis = PlaneWaveBasis(2, 4)
    phi, psi = _random_state(basis, rng), _random_state(basis, rng)
    assert projector_check(phi, psi, basis, 0.5) <= 1e-9


def test_symbol_from_wigner_lattice_support():
    basis = PlaneWaveBasis(1, 4)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.rows([[2]])] = 1.0
    sym = symbol_from_wigner(wigner_transform(psi, basis, 0.5))
    xs = np.linspace(0.0, TWO_PI, 7)
    on = np.full(7, 0.5 * 2.0)          # eta = hbar k, on the half-lattice
    off = np.full(7, 0.33)
    assert np.max(np.abs(sym.fn(xs, on) - 1.0 / TWO_PI)) < 1e-10
    assert np.max(np.abs(sym.fn(xs, off))) == 0.0


def test_cv_bound_dominates_operator_norm():
    rng = np.random.default_rng(23)
    prof = bump_profile(1.0, 2.0)
    for _ in range(10):
        coeffs = {(0,): float(rng.uniform(-1, 1))}
        for q in (1, 2, 3):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[(q,)] = c
            coeffs[(-q,)] = c.conjugate()
        pot = FourierPotential(1, coeffs)
        bound = cv_bound(x_derivative_sup_norms(pot, 4), 1)
        norm = operator_norm(weyl_matrix(product_symbol(pot, prof), 0.5, 8).matrix)
        assert norm <= bound + 1e-9


def test_cv_bound_requires_all_orders():
    with pytest.raises(ValueError):
        cv_bound({(0,): 1.0}, 1)


def test_cv_derivative_order_by_dimension():
    assert cv_derivative_order(1) == 2
    assert cv_derivative_order(2) == 2
    assert cv_derivative_order(3) == 3
    assert cv_derivative_order(4) == 3


def test_weyl_matrix_validation():
    with pytest.raises(ValueError):
        weyl_matrix(mechanical_symbol(cosine((1,))), 0.0, 8)
    with pytest.raises(ValueError):
        weyl_matrix(mechanical_symbol(cosine((3,))), 0.5, 2)

    # a dense matrix beyond physical memory is refused before any symbol call
    def never(x, eta):
        raise AssertionError("symbol evaluated before the size check")

    with pytest.raises(ValueError, match="N=641601"):
        weyl_matrix(PhaseSpaceFunction(dim=2, fn=never), 0.5, 400)


def test_operator_norm_on_known_matrix():
    assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, abs=1e-9)
    # nearly degenerate top pair: a power iteration stops short, below 1
    assert operator_norm(np.diag([1.0, 1.0 - 1e-6, 0.5, 0.25])) == pytest.approx(1.0, rel=1e-12)


def _derivative_norms_loop(pot, order, res=2048):
    """Reference: one complex exponential per coefficient and multi-index."""
    grid_res = res if pot.dim == 1 else min(res, 128)
    axis = np.arange(grid_res) * (TWO_PI / grid_res)
    grids = np.meshgrid(*([axis] * pot.dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    out = {}
    for alpha in itertools.product(range(order + 1), repeat=pot.dim):
        if sum(alpha) > order:
            continue
        acc = np.zeros(pts.shape[0], dtype=complex)
        for q, c in sorted(pot.coeffs.items()):
            fac = 1.0 + 0.0j
            for qi, ai in zip(q, alpha):
                fac *= (1j * qi) ** ai
            acc += c * fac * np.exp(1j * (pts @ np.asarray(q, dtype=float)))
        out[alpha] = float(np.max(np.abs(acc)))
    return out


def test_x_derivative_sup_norms_match_exp_loop():
    rng = np.random.default_rng(29)
    pot1 = {(0,): 0.4}
    pot2 = {(0, 0): -0.2}
    for q in ((1,), (2,), (5,)):
        c = complex(*rng.uniform(-1, 1, size=2))
        pot1[q], pot1[(-q[0],)] = c, c.conjugate()
    for q in ((1, 0), (0, 2), (1, 1), (2, -1)):
        c = complex(*rng.uniform(-1, 1, size=2))
        pot2[q], pot2[(-q[0], -q[1])] = c, c.conjugate()
    # c_{-16} = conj(c_16) + 9e-13 i passes the Hermitian check, but the
    # order-4 coefficients (iq)^4 c_q would not: the scan must not build them
    asym = {(16,): 1e-3, (-16,): 1e-3 + 9e-13j}
    with pytest.raises(ValueError):
        FourierPotential(1, {q: c * q[0] ** 4 for q, c in asym.items()})
    for dim, coeffs in ((1, pot1), (2, pot2), (1, asym)):
        pot = FourierPotential(dim, coeffs)
        for order in range(5):
            got = x_derivative_sup_norms(pot, order)
            ref = _derivative_norms_loop(pot, order)
            assert list(got) == list(ref)
            for alpha, val in ref.items():
                assert got[alpha] == pytest.approx(val, rel=1e-12)
