"""Plane-wave eigensolver: exact cases, an external oracle, counting, volume."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.optimize.elementwise import find_root
from scipy.special import ellipe, ellipk, mathieu_a, mathieu_b

from torusspec import spectra
from torusspec.potentials import (FourierPotential, TWO_PI, cosine, potential_extrema,
                                  sup_norm, zero_potential)
from torusspec.spectra import (FLOAT_FMT, PlaneWaveBasis, assemble_hamiltonian,
                               auto_cutoff, count_eigenvalues, eigen_spectrum,
                               truncation_tail_bound, weyl_count_report, weyl_volume,
                               write_spectrum_csv)


def test_basis_enumeration_1d():
    basis = PlaneWaveBasis(1, 3)
    freqs = basis.frequencies()
    assert basis.size == 7
    assert freqs[0, 0] == -3 and freqs[-1, 0] == 3
    assert basis.rows([[2]])[0] == 5


def test_basis_enumeration_2d_lexicographic():
    basis = PlaneWaveBasis(2, 1)
    freqs = [tuple(k) for k in basis.frequencies()]
    assert basis.size == 9
    assert freqs[0] == (-1, -1) and freqs[-1] == (1, 1)
    assert freqs.index((0, 1)) == 5


def test_free_spectrum_exact():
    spec = eigen_spectrum(assemble_hamiltonian(zero_potential(1), 1.0, 8))
    expect = np.sort([0.5 * k * k for k in range(-8, 9)])
    assert np.max(np.abs(spec.eigenvalues - expect)) < 1e-12


def _entry_rule_matrix(pot, hbar, K):
    """The complex matrix by the entry rule, entry(k, mu) =
    (hbar^2/2)|mu|^2 delta_{k,mu} + c_{k-mu}, one coefficient at a time."""
    freqs = PlaneWaveBasis(pot.dim, K).frequencies()
    diff = freqs[:, None, :] - freqs[None, :, :]
    h = np.zeros(diff.shape[:2], dtype=complex)
    for q, c in pot.coeffs.items():
        h[np.all(diff == q, axis=-1)] = c
    h[np.diag_indices(len(freqs))] += 0.5 * hbar * hbar * np.sum(freqs.astype(float) ** 2, axis=1)
    return h


def _real_form(h):
    """Reference R = Q^H H Q for a centrohermitian H of odd size N = 2n + 1.

    Q's columns are c_j = (e_j + e_j')/sqrt2, then e_n, then
    s_j = i(e_j - e_j')/sqrt2, for j < n and j' = N-1-j.  With A = H[:n, :n],
    B = H[:n, :n:-1] (B[j, l] = H[j, l']) and m = H[:n, n], J H J = conj(H)
    gives the real symmetric R = [[Re(A+B), sqrt2 Re m, Im(B-A)],
    [sqrt2 Re m^T, H[n, n], sqrt2 Im m^T], [Im(A+B), sqrt2 Im m, Re(A-B)]].
    """
    N = h.shape[0]
    n = (N - 1) // 2
    a, b, m = h[:n, :n], h[:n, :n:-1], h[:n, n]
    r = np.empty((N, N))
    np.add(a.real, b.real, out=r[:n, :n])
    np.subtract(a.real, b.real, out=r[n + 1:, n + 1:])
    np.add(a.imag, b.imag, out=r[n + 1:, :n])
    np.subtract(b.imag, a.imag, out=r[:n, n + 1:])
    r[:n, n] = r[n, :n] = math.sqrt(2.0) * m.real
    r[n + 1:, n] = r[n, n + 1:] = math.sqrt(2.0) * m.imag
    r[n, n] = h[n, n].real
    return r


def _cos_sin_basis(N):
    """The unitary Q of _real_form, column by column."""
    n = (N - 1) // 2
    q = np.zeros((N, N), dtype=complex)
    for j in range(n):
        q[j, j] = q[N - 1 - j, j] = 1.0 / math.sqrt(2.0)
        q[j, n + 1 + j], q[N - 1 - j, n + 1 + j] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
    q[n, n] = 1.0
    return q


def _assert_exact_real_form(mat, h):
    # exactly symmetric whenever H is exactly Hermitian, i.e. c_{-q} = conj(c_q)
    r = mat.matrix
    assert r.dtype == np.float64
    assert np.array_equal(r, _real_form(h))
    if np.array_equal(h, h.conj().T):
        assert np.array_equal(r, r.T)


def test_matrix_is_hermitian_and_banded():
    # back on the plane-wave basis, Q R Q^H is the Hermitian banded H
    pot = cosine((1,)) + FourierPotential(1, {(2,): 0.3j, (-2,): -0.3j})
    mat = assemble_hamiltonian(pot, 0.5, 12)
    q = _cos_sin_basis(mat.basis.size)
    m = q @ mat.matrix @ q.conj().T
    assert np.max(np.abs(m - m.conj().T)) < 1e-15
    # entries vanish beyond the potential bandwidth
    for j in range(25):
        for k in range(25):
            if abs(j - k) > 2:
                assert abs(m[j, k]) < 1e-15


@pytest.mark.parametrize("hbar", [0.1, 0.3])
def test_assembly_matches_matrix_element_rule(hbar):
    # entry(k, mu) = (hbar^2/2)|mu|^2 delta_{k,mu} + c_{k-mu}, entry by entry,
    # then the cos/sin form of that complex matrix, bit for bit
    pot = (cosine((1, 1)) + cosine((2, -1)).translate((0.0, 0.7)) * 0.5
           + FourierPotential(2, {(0, 0): 0.2, (1, 0): 0.1 - 0.2j, (-1, 0): 0.1 + 0.2j}))
    mat = assemble_hamiltonian(pot, hbar, 4)
    freqs = mat.basis.frequencies()
    h = np.empty((len(freqs), len(freqs)), dtype=complex)
    for j, k in enumerate(freqs):
        for m, mu in enumerate(freqs):
            expect = pot.coefficient(tuple(k - mu))
            if j == m:
                expect = 0.5 * hbar * hbar * float(np.sum(mu.astype(float) ** 2)) + expect
            h[j, m] = expect
    _assert_exact_real_form(mat, h)


def test_spectrum_against_mathieu_characteristic_values():
    """Independent check: with V = cos x the 2 pi periodic eigenvalues are
    (hbar^2/8) times the even-order Mathieu characteristic values at
    q = 4/hbar^2 (substitute x = 2v in the eigenvalue equation)."""
    for hbar in (1.0, 0.5):
        q = 4.0 / hbar ** 2
        ref = np.array([mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q),
                        mathieu_b(4, q), mathieu_a(4, q)]) * hbar ** 2 / 8.0
        spec = eigen_spectrum(assemble_hamiltonian(cosine((1,)), hbar, 32))
        assert np.max(np.abs(spec.eigenvalues[:5] - ref)) < 1e-12


def test_2d_separable_spectrum_is_sum_of_1d():
    pot1 = cosine((1,))
    pot2 = cosine((1, 0)) + cosine((0, 1))
    s1 = eigen_spectrum(assemble_hamiltonian(pot1, 0.5, 6)).eigenvalues
    s2 = eigen_spectrum(assemble_hamiltonian(pot2, 0.5, 6)).eigenvalues
    sums = np.sort(np.add.outer(s1, s1).reshape(-1))
    assert np.max(np.abs(s2 - sums)) < 1e-10


def test_cutoff_below_bandwidth_rejected():
    pot = cosine((3,))
    with pytest.raises(ValueError):
        assemble_hamiltonian(pot, 1.0, 2)


def test_hbar_range_validated():
    with pytest.raises(ValueError):
        assemble_hamiltonian(zero_potential(1), 0.0, 4)
    with pytest.raises(ValueError):
        assemble_hamiltonian(zero_potential(1), 1.5, 4)


def _seeded_potential(dim, band, seed):
    # complex coefficients with c_q != c_{-q}: V is not even, so the cos and
    # sin blocks of the real form couple
    rng = np.random.default_rng(seed)
    coeffs = {(0,) * dim: rng.uniform(-0.5, 0.5)}
    for q in itertools.product(range(-band, band + 1), repeat=dim):
        if q > (0,) * dim:
            c = complex(*rng.uniform(-0.5, 0.5, 2))
            coeffs[q], coeffs[tuple(-v for v in q)] = c, c.conjugate()
    return FourierPotential(dim, coeffs)


# K at the band and past it, the free Hamiltonian, coefficients given as
# near conjugates (c_{-16} = conj(c_16) + 9e-13 i, stored as exact pairs),
# and a 2D box of the size the spectral benchmark solves
@pytest.mark.parametrize("pot,hbar,K", [
    (_seeded_potential(1, 3, 12), 0.3, 3), (_seeded_potential(1, 3, 12), 0.3, 9),
    (_seeded_potential(2, 2, 13), 0.5, 2), (_seeded_potential(2, 2, 13), 0.5, 6),
    (_seeded_potential(3, 1, 14), 0.7, 1), (_seeded_potential(3, 1, 14), 0.7, 2),
    (zero_potential(1), 0.6, 2), (zero_potential(2), 0.6, 2), (zero_potential(3), 0.6, 2),
    (FourierPotential(1, {(16,): 1e-3, (-16,): 1e-3 + 9e-13j, (1,): 0.5, (-1,): 0.5}), 0.5, 40),
    (_seeded_potential(2, 2, 13), 0.5, 20)])
def test_real_form_matches_the_complex_eigensolve(pot, hbar, K):
    mat = assemble_hamiltonian(pot, hbar, K)
    h = _entry_rule_matrix(pot, hbar, K)
    _assert_exact_real_form(mat, h)
    got = eigen_spectrum(mat).eigenvalues
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


# the 1D cos box of the CLI runs, the 2D box of the spectral benchmark, a
# 3D box, and coefficients given as near conjugates: solved in place, R
# gives the eigenvalues numpy's eigvalsh gives for a C-ordered copy of it
@pytest.mark.parametrize("pot,hbar,K", [
    (cosine((1,)), 0.1, 57), (_seeded_potential(2, 2, 13), 0.5, 20),
    (_seeded_potential(3, 1, 14), 0.7, 3),
    (FourierPotential(1, {(16,): 1e-3, (-16,): 1e-3 + 9e-13j, (1,): 0.5, (-1,): 0.5}), 0.5, 40)],
    ids=["cos-1d", "seeded-2d", "seeded-3d", "not-conjugate"])
def test_in_place_eigensolve_matches_numpy_bit_for_bit(pot, hbar, K):
    mat = assemble_hamiltonian(pot, hbar, K)
    assert mat.matrix.flags.f_contiguous
    ref = np.linalg.eigvalsh(np.ascontiguousarray(mat.matrix))
    assert eigen_spectrum(mat).eigenvalues.tobytes() == ref.tobytes()


def test_near_conjugate_coefficients_give_an_exactly_symmetric_form():
    # the pair within the Hermitian tolerance is stored as exact conjugates,
    # so the triangle LAPACK reads is all of R
    pot = FourierPotential(1, {(16,): 1e-3, (-16,): 1e-3 + 9e-13j, (1,): 0.5, (-1,): 0.5})
    R = assemble_hamiltonian(pot, 0.5, 40).matrix
    assert np.array_equal(R, R.T)


def test_spectrum_holds_no_complex_matrix():
    # the real form (8 N^2 bytes), solved in place, and the tail bound's
    # 1025^2-point vector peak at 11.0 N^2 traced bytes at N = 1681; a second
    # real N x N matrix, such as a copy for the eigensolve, would not fit
    pot = _seeded_potential(2, 2, 13)
    eigen_spectrum(assemble_hamiltonian(pot, 0.5, 20))
    tracemalloc.start()
    try:
        N = eigen_spectrum(assemble_hamiltonian(pot, 0.5, 20)).eigenvalues.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * N * N


def test_require_dense_counts_the_eigensolve_working_set(monkeypatch):
    # N = 101: one complex matrix needs 16 N^2 = 163216 bytes, which fits
    # in 245760, but propagate's two (its eigenvectors and U) do not
    real_sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 60}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real_sysconf(name))
    with pytest.raises(ValueError, match="N=101 needs 163216 bytes and its eigensolve 326432"):
        PlaneWaveBasis(1, 50).require_dense()
    with pytest.raises(ValueError, match="N=101"):
        assemble_hamiltonian(zero_potential(1), 1.0, 50)
    PlaneWaveBasis(1, 43).require_dense()           # 32 * 87^2 = 242208 fits


def test_trusted_energy_and_count_warning():
    spec = eigen_spectrum(assemble_hamiltonian(zero_potential(1), 1.0, 4))
    assert spec.trusted_energy == pytest.approx(25.0 / 4.0)
    with pytest.warns(RuntimeWarning):
        count_eigenvalues(spec, 0.0, 100.0)


def test_count_uses_open_interval():
    spec = eigen_spectrum(assemble_hamiltonian(zero_potential(1), 1.0, 4))
    # eigenvalues: 0, 0.5, 0.5, 2, 2, ...; the edges themselves are excluded
    assert count_eigenvalues(spec, 0.0, 0.5) == 0
    assert count_eigenvalues(spec, -0.1, 0.6) == 3
    assert count_eigenvalues(spec, 0.5, 2.0) == 0


def test_tail_bound_decreases_with_cutoff():
    pot = cosine((1,))
    bounds = [truncation_tail_bound(pot, 0.5, K, 2.0) for K in (8, 16, 32)]
    assert bounds[0] > bounds[1] > bounds[2]
    # integral comparison: sum_{|k|>K} (a k^2 - E)^-2 ~ 2/(3 a^2 K^3)
    assert bounds[2] < 2.0 / (3.0 * 0.125 ** 2 * 32 ** 3) * 1.5


@pytest.mark.parametrize("K", [1, 6, 20, 130])
def test_2d_tail_bound_is_the_masked_sum_bit_for_bit(K):
    # reference: the points |k|_inf > K masked out of the whole outer table,
    # in row-major order, through the same elementwise steps and one sum
    pot, hbar = _seeded_potential(2, 2, 13), 0.5
    a = 0.5 * hbar * hbar
    energy = 0.4 * a * K * K
    cap = max(512, 4 * K)
    axis = np.arange(-cap, cap + 1)
    far = np.abs(axis) > K
    x = np.add.outer(axis ** 2.0, axis ** 2.0)[far[:, None] | far[None, :]]
    norm = sup_norm(pot, remove_mean=True)
    ref = float(np.sum((norm / (a * x - energy)) ** 2))
    ref += 4.0 * norm * norm / (a * (a * cap * cap - energy))
    assert truncation_tail_bound(pot, hbar, K, energy).hex() == ref.hex()


def test_tail_bound_precondition():
    # the window must be resolved: (hbar^2/2) K^2 > E
    with pytest.raises(ValueError):
        truncation_tail_bound(cosine((1,)), 0.1, 4, 2.0)


def test_three_dimensional_tail_bound_is_refused():
    # the refusal comes before any lattice is built: the spectrum reports an
    # infinite bound instead of allocating (2 * 512 + 1)^3 grids
    pot = _seeded_potential(3, 1, 14)
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        truncation_tail_bound(pot, 0.7, 4, 1.0)
    spec = eigen_spectrum(assemble_hamiltonian(pot, 0.7, 4))
    assert spec.eigenvalues.size == 9 ** 3
    assert spec.tail_bound == math.inf


def test_tail_bound_zero_for_constant_potential():
    pot = FourierPotential(1, {(0,): 5.0})
    assert truncation_tail_bound(pot, 1.0, 8, 2.0) == 0.0


def test_auto_cutoff_formula():
    pot = cosine((2,))
    assert auto_cutoff(pot, 0.5, 4.0) == 8
    assert auto_cutoff(pot, 1.0, 0.0) == 4      # never below the floor
    assert auto_cutoff(pot, 1.0, 100.0) == 20


def test_weyl_volume_free_1d_closed_form():
    # slice length 2 sqrt(2E) on each of the 2 pi positions
    vol = weyl_volume(zero_potential(1), 0.0, 2.0)
    assert vol.value == pytest.approx(TWO_PI * 2.0 * math.sqrt(4.0), rel=1e-10)
    assert not vol.empty


def test_weyl_volume_bounds_for_cosine():
    vol = weyl_volume(cosine((1,)), -5.0, 2.0).value
    lo = TWO_PI * 2.0 * math.sqrt(2.0)          # V replaced by its max
    hi = TWO_PI * 2.0 * math.sqrt(6.0)          # V replaced by its min
    assert lo < vol < hi


@pytest.mark.parametrize("energy", [-0.5, 0.3, 0.7])
def test_weyl_volume_cosine_1d_elliptic_closed_form(energy):
    # below the separatrix Vol{cos x + p^2/2 < E} = 16 (E(m) - (1 - m) K(m))
    # with m = (E + 1)/2; the turning points lie between scan points
    m = 0.5 * (energy + 1.0)
    exact = 16.0 * (ellipe(m) - (1.0 - m) * ellipk(m))
    vol = weyl_volume(cosine((1,)), -5.0, energy)
    assert abs(vol.value - exact) <= 1e-12
    assert abs(vol.value - exact) <= vol.std_error


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.3, 2.5), (0.0, 1e-3)])
def test_weyl_volume_free_2d_exact(a, b):
    # annulus of area 2 pi (b - a) over every point of the torus
    exact = 8.0 * math.pi ** 3 * (b - a)
    vol = weyl_volume(zero_potential(2), a, b)
    assert abs(vol.value - exact) <= 1e-12 * exact
    assert not vol.empty


@pytest.mark.parametrize("b", [-0.7, 0.3, 0.95])
def test_weyl_volume_2d_cosine_within_std_error(b):
    # V = cos x1 on T^2: (2 pi)^2 integral (b - cos x)_+ dx
    pot = FourierPotential(2, {(1, 0): 0.5, (-1, 0): 0.5})
    exact = 8.0 * math.pi ** 2 * (b * (math.pi - math.acos(b)) + math.sqrt(1.0 - b * b))
    vol = weyl_volume(pot, -5.0, b)
    assert abs(vol.value - exact) <= vol.std_error


def test_weyl_volume_at_a_scan_value_where_a_point_value_rounds_apart():
    # E is V's value on the panel scan (4097 points from the argmax x*) at a
    # steep point x_j where a one-point evaluation rounds above it.  A root
    # search over that one crossing bracket (x_j and its neighbour on the
    # side where V is higher) then sees one sign at both ends; find_root
    # gives up on it, and the end nearer the level, x_j, is taken
    pot = FourierPotential(1, {(1,): -0.065 + 0.685j, (-1,): -0.065 - 0.685j,
                               (2,): -0.335 + 0.175j, (-2,): -0.335 - 0.175j,
                               (3,): 0.45 + 0.045j, (-3,): 0.45 - 0.045j})
    xs = potential_extrema(pot).argmax[0] + np.arange(4097) * (TWO_PI / 4096)
    vals = pot.evaluate(xs)
    grad = pot.gradient(xs)
    j = next((j for j in np.flatnonzero(np.abs(grad) > 0.5)
              if pot.evaluate(xs[j:j + 1])[0] > vals[j]), None)
    assert j is not None, ("no steep scan point where a one-point evaluate rounds above "
                           "the batched value: this test's premise needs another potential")
    side = slice(j, j + 2) if grad[j] > 0 else slice(j - 1, j + 1)
    lo, hi = xs[side][:1], xs[side][1:]
    level = vals[j:j + 1]

    def gap(x, lev):
        return pot.evaluate(x) - lev

    assert find_root(gap, (lo, hi), args=(level,)).status[0] == -1
    assert spectra._roots(gap, lo, hi, level)[0] == xs[j]
    energy = float(vals[j])
    vol = weyl_volume(pot, energy, energy + 1.0)
    assert vol.value == pytest.approx(weyl_volume(pot, energy + 1e-12, energy + 1.0).value,
                                      abs=1e-9)


def test_weyl_volume_empty_window():
    vol = weyl_volume(cosine((1,)), -5.0, -2.0)
    assert vol.empty and vol.value == 0.0


def test_weyl_count_report_scaling():
    rep = weyl_count_report(zero_potential(1), (0.5, 0.25), (0.0, 2.0), lambda hb: 32)
    assert rep.counts[1] > rep.counts[0]
    # boundary lattice defect is O(hbar): at most two shells plus the origin
    for hb, s in zip(rep.hbars, rep.scaled):
        assert abs(s - rep.volume.value) <= 3.0 * TWO_PI * hb
    d = rep.to_dict()
    assert set(d) >= {"window", "hbar", "count", "scaled", "volume"}


def test_spectrum_csv_golden_bytes(tmp_path):
    spec = eigen_spectrum(assemble_hamiltonian(zero_potential(1), 1.0, 1))
    out = tmp_path / "spectrum.csv"
    write_spectrum_csv(out, [spec])
    golden = (
        "hbar,index,eigenvalue\n"
        "1.000000000000e+00,0,0.000000000000e+00\n"
        "1.000000000000e+00,1,5.000000000000e-01\n"
        "1.000000000000e+00,2,5.000000000000e-01\n"
    )
    assert out.read_text() == golden
    assert FLOAT_FMT % 0.5 == "5.000000000000e-01"
