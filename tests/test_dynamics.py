"""Flows, symplectic maps, and symbol composition."""

import dataclasses
import math

import numpy as np
import pytest

from torusspec import dynamics, potentials, symbols
from torusspec.dynamics import (FlowEscapeError, SymplecticMap, _flow_batch,
                                compose_hamiltonian, symplectic_defect, time_one_map)
from torusspec.potentials import FourierPotential, TWO_PI, cosine, sine, zero_potential
from torusspec.symbols import PhaseSpaceFunction, bump_profile, mechanical_symbol, product_symbol

# generator 0.1 sin(x) cut off in momentum; on the plateau the time-1 flow is
# the exact shear (x, p) -> (x, p - 0.1 cos x)
_SHEAR_POT = FourierPotential(1, {(1,): -0.05j, (-1,): 0.05j})


def _shear_map():
    return time_one_map(product_symbol(_SHEAR_POT, bump_profile(3.0, 6.0)), 1e-2)


def _free(dim=1):
    return mechanical_symbol(zero_potential(dim))


def _central_difference(f, z):
    """Gradient of the batched scalar function f at the rows of z (m, dim),
    by central differences of step 1e-6: the oracle of the analytic fields."""
    step = 1e-6
    cols = []
    for i in range(z.shape[1]):
        e = np.zeros(z.shape[1])
        e[i] = step
        cols.append((np.asarray(f(z + e)) - f(z - e)).reshape(-1) / (2 * step))
    return np.stack(cols, axis=-1)


def _energies(b, x0, p0, t, h):
    """b along the orbit of the 1D point (x0, p0), sampled after every step of h."""
    steps = max(1, int(round(abs(t) / h)))
    X, P = np.array([[x0]]), np.array([[p0]])
    energies = [b.fn(X, P)[0]]
    for _ in range(steps):
        X, P = _flow_batch(b, X, P, t / steps, h)
        energies.append(b.fn(X, P)[0])
    return np.array(energies)


def test_free_flow_is_exact_drift():
    X, P = time_one_map(_free(), 1e-2).apply([[1.0]], [[0.7]])
    assert abs(X[0, 0] - 1.7) < 1e-12
    assert P[0, 0] == 0.7


def test_flow_wraps_position():
    X, _ = time_one_map(_free(), 1e-2).apply([[6.0]], [[1.0]])
    assert 0.0 <= X[0, 0] < TWO_PI
    assert abs(X[0, 0] - (7.0 - TWO_PI)) < 1e-12


def test_pendulum_energy_drift_small():
    H = mechanical_symbol(cosine((1,)))
    energies = _energies(H, 0.3, 1.2, 10.0, 1e-2)
    assert 0.0 < np.max(np.abs(energies - energies[0])) < 1e-3


def test_free_energy_drift_zero():
    energies = _energies(_free(), 0.3, 1.2, 2.0, 1e-2)
    assert np.max(np.abs(energies - energies[0])) == 0.0


def test_flow_reversibility():
    H = mechanical_symbol(cosine((1,)))
    X, P = SymplecticMap(H, -1.0, 1e-2).apply(*time_one_map(H, 1e-2).apply([[0.9]], [[0.4]]))
    assert abs(X[0, 0] - 0.9) < 1e-9
    assert abs(P[0, 0] - 0.4) < 1e-9


def test_step_size_validation():
    for h in (0.0, 0.02):
        with pytest.raises(ValueError):
            time_one_map(_free(), h)


def test_symplectic_map_refusals():
    # h outside (0, 1e-2], more than 10^4 steps, no vector field
    for time, h in ((1.0, -1e-2), (1.0, 0.5), (1.0, math.nan), (1e12, 1e-2),
                    (math.inf, 1e-2), (math.nan, 1e-2), (100.0 + 1e-2, 1e-2)):
        with pytest.raises(ValueError):
            SymplecticMap(_free(), time, h)
    assert SymplecticMap(_free(), -100.0, 1e-2).time == -100.0     # 10^4 steps
    with pytest.raises(ValueError, match="vector_field"):
        SymplecticMap(PhaseSpaceFunction(dim=1, fn=_free().fn), 1.0, 1e-2)


def test_flow_dimension_mismatch():
    phi = time_one_map(_free(), 1e-2)
    for X, P in (([[1.0, 2.0]], [[0.0, 0.0]]), ([1.0], [0.0]), ([[1.0]], [[0.0], [1.0]])):
        with pytest.raises(ValueError):
            phi.apply(X, P)


def test_composed_symbol_refuses_a_mismatched_batch():
    # with and without dead rows, before any flow
    phi = time_one_map(mechanical_symbol(cosine((1,), 0.5)), 1e-2)
    for H in (mechanical_symbol(cosine((1,))), product_symbol(cosine((1,)), bump_profile(0.9, 1.2))):
        with pytest.raises(ValueError, match="batch"):
            compose_hamiltonian(H, phi).fn(np.zeros(3), np.zeros(2))


def test_trajectory_sampling():
    energies = _energies(mechanical_symbol(cosine((1,))), 0.3, 1.2, 0.5, 1e-2)
    assert energies.shape == (51,)
    assert np.max(np.abs(energies - energies[0])) < 1e-4


def test_composed_hamiltonian_matches_shear_closed_form():
    H = mechanical_symbol(cosine((1,)))
    composed = compose_hamiltonian(H, _shear_map())
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TWO_PI, size=12)
    p = rng.uniform(-2.0, 2.0, size=12)
    expect = 0.5 * (p - 0.1 * np.cos(x)) ** 2 + np.cos(x)
    assert np.max(np.abs(composed.fn(x, p) - expect)) < 1e-10


def test_symplectic_defect_of_shear():
    assert symplectic_defect(_shear_map(), probes=8) < 1e-8


def test_defect_with_every_probe_on_the_plateau_makes_no_empty_rk4_stage():
    # the probes' momenta lie in [-3, 3] and 0.1 sin x moves them by at most
    # 0.1, so under bump(5, 8) every row rests on the plateau: one field call
    # gives the shear, and RK4 makes no stage on the empty rest of the batch
    b = product_symbol(_SHEAR_POT, bump_profile(5.0, 8.0))
    field, rows = b.vector_field, []
    b.vector_field = lambda x, eta: rows.append(len(x)) or field(x, eta)
    assert symplectic_defect(time_one_map(b, 1e-2), probes=16) < 1e-8
    assert rows == [16 * 4]


def test_symplectic_defect_matches_per_probe_loop():
    # 2D, non-separable generator; each probe's 4x4 Jacobian from its own flows
    phi = time_one_map(product_symbol(cosine((1, 2)) * 0.2, bump_profile(3.0, 6.0)), 1e-2)
    probes, fd = 2, 1e-5
    rng = np.random.default_rng(42)
    x0 = rng.uniform(0.0, TWO_PI, size=(probes, 2))
    p0 = rng.uniform(-3.0, 3.0, size=(probes, 2))
    worst = 0.0
    for z in np.concatenate([x0, p0], axis=1):
        jac = np.empty((4, 4))
        for c in range(4):
            e = np.zeros(4)
            e[c] = fd
            plus = np.concatenate(_flow_batch(phi.generator, (z + e)[None, :2], (z + e)[None, 2:],
                                              phi.time, phi.h), axis=1)[0]
            minus = np.concatenate(_flow_batch(phi.generator, (z - e)[None, :2], (z - e)[None, 2:],
                                               phi.time, phi.h), axis=1)[0]
            jac[:, c] = (plus - minus) / (2 * fd)
        worst = max(worst, abs(float(np.linalg.det(jac)) - 1.0))
    assert symplectic_defect(phi, probes=probes) == worst


def test_flow_escape_detected():
    H = mechanical_symbol(cosine((1,)) * 1e6)
    with pytest.raises(FlowEscapeError):
        time_one_map(H, 1e-2).apply([[1.0]], [[0.0]])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("z0", [(0.0, math.nan), (math.inf, 0.0)])
def test_flow_of_non_finite_point_refused(z0):
    with pytest.raises(FlowEscapeError):
        time_one_map(mechanical_symbol(cosine((1,))), 1e-2).apply([[z0[0]]], [[z0[1]]])


def test_generators_call_the_vector_field_once_per_rk4_stage():
    # four calls in each of the 100 steps, for a mechanical generator and
    # for a point in the band of a product generator's cutoff
    for b in (mechanical_symbol(cosine((1,))), _shear_map().generator):
        field, seen = b.vector_field, []
        b.vector_field = lambda x, eta: seen.append(1) or field(x, eta)
        time_one_map(b, 1e-2).apply([[0.3]], [[4.5]])
        assert len(seen) == 400


def _band_batch(dim, m=40, seed=11):
    # positions anywhere, momenta on the plateau, in the band and beyond the
    # support of bump_profile(3, 6)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, TWO_PI, (m, dim))
    P = rng.normal(size=(m, dim))
    P *= (rng.uniform(0.5, 7.0, m) / np.linalg.norm(P, axis=1))[:, None]
    return X, P


def test_bump_profile_derivative_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    r0, r1 = 3.0, 6.0
    prof = bump_profile(r0, r1)

    def s(r):
        t = (r - r0) / (r1 - r0)
        f, g = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
        return g / (f + g)

    rng = np.random.default_rng(5)
    radii = np.linspace(3.1, 5.9, 29)
    eta1 = (radii * rng.choice([-1.0, 1.0], radii.size))[:, None]
    angles = rng.uniform(0.0, TWO_PI, radii.size)
    eta2 = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with mpmath.workdps(40):
        for eta in (eta1, eta2):
            _, grad = prof.value_and_gradient(eta)
            for e, gr in zip(eta, grad):
                r = mpmath.sqrt(sum(mpmath.mpf(v) ** 2 for v in e))
                ref = [mpmath.diff(s, r) * mpmath.mpf(v) / r for v in e]
                err = mpmath.sqrt(sum((gr[i] - ref[i]) ** 2 for i in range(len(e))))
                assert err <= 1e-12 * mpmath.sqrt(sum(v ** 2 for v in ref))


def _clipped_smooth_step(eta, r0, r1):
    # the profile as computed before it evaluated only the band's exps
    r = np.abs(eta) if eta.ndim == 1 else np.sqrt(np.sum(eta ** 2, axis=-1))
    t = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        g = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return g / (f + g)


def test_bump_profile_values_and_flat_regions():
    prof = bump_profile(3.0, 6.0)
    for dim in (1, 2):
        _, eta = _band_batch(dim, m=400)
        eta[:3] = 0.0
        eta[3, 0], eta[4, 0] = 3.0, 6.0           # the band's closed ends
        vals, grad = prof.value_and_gradient(eta)
        reference = _clipped_smooth_step(eta, 3.0, 6.0)
        assert np.array_equal(vals, reference)
        assert np.array_equal(prof(eta), reference)
        assert np.array_equal(prof(eta[:, 0]), _clipped_smooth_step(eta[:, 0], 3.0, 6.0))
        r = np.linalg.norm(eta, axis=1)
        flat = (r <= 3.0) | (r >= 6.0)
        assert 0 < flat.sum() < r.size
        assert np.all(grad[flat] == 0.0)
        inner = (r > 3.03) & (r < 5.97)           # exp(-1/t) >= exp(-100)
        assert np.all(np.linalg.norm(grad[inner], axis=1) > 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_vector_field_matches_central_differences(dim):
    pot = (cosine((1,)) + sine((2,), 0.4) if dim == 1
           else cosine((1, 2), 0.5) + sine((1, 0), 0.3) + cosine((0, 0), 0.2))
    X, P = _band_batch(dim)
    for b in (product_symbol(pot, bump_profile(3.0, 6.0)), mechanical_symbol(pot)):
        dx, deta = b.vector_field(X, P)
        assert dx.shape == deta.shape == (X.shape[0], dim)
        assert np.max(np.abs(dx - _central_difference(lambda z: b.fn(z, P), X))) <= 1e-8
        assert np.max(np.abs(deta - _central_difference(lambda z: b.fn(X, z), P))) <= 1e-8


def test_one_rk4_step_makes_one_trig_pass_and_one_profile_call_per_stage(monkeypatch):
    counts = {"trig": 0, "profile": 0}
    trig_sum = potentials._trig_sum

    def counted_trig(*args):
        counts["trig"] += 1
        return trig_sum(*args)

    prof = bump_profile(3.0, 6.0)

    def counted(eta):
        counts["profile"] += 1
        return prof(eta)

    def counted_with_gradient(eta):
        counts["profile"] += 1
        return prof.value_and_gradient(eta)

    counted.value_and_gradient = counted_with_gradient
    monkeypatch.setattr(potentials, "_trig_sum", counted_trig)
    X, P = _band_batch(1)
    _flow_batch(product_symbol(_SHEAR_POT, counted), X, P, 1e-2, 1e-2)
    assert counts == {"trig": 4, "profile": 4}


def test_builtin_symbols_flow_without_central_differences():
    # the built-in symbols carry analytic fields and symbols differences
    # nothing: a profile without value_and_gradient gives a symbol without a
    # vector_field, which a map refuses before any step
    assert not hasattr(symbols, "_central_difference")
    for dim in (1, 2):
        X, P = _band_batch(dim)
        pot = cosine((1,) * dim, 0.2)
        for b in (mechanical_symbol(pot), _free(dim),
                  product_symbol(pot, bump_profile(3.0, 6.0))):
            _flow_batch(b, X, P, 0.1, 1e-2)
    prof = bump_profile(3.0, 6.0)
    plain = product_symbol(cosine((1,), 0.2), lambda eta: prof(eta))
    assert plain.vector_field is None
    with pytest.raises(ValueError, match="vector_field"):
        time_one_map(plain, 1e-2)


def _gathered_bump(eta, r0, r1):
    # bump_profile's value_and_gradient as it was when it gathered the
    # transition band and scattered s and grad s back (2D batches only: a
    # bare 1D array broadcast its band rows against each other)
    r = np.abs(eta) if eta.ndim == 1 else np.sqrt(np.sum(eta ** 2, axis=-1))
    t = (r - r0) / (r1 - r0)
    band = np.nonzero((t > 0.0) & (t < 1.0))
    tb = t[band]
    f, g = np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))
    s = (t <= 0.0).astype(float)
    s[band] = g / (f + g)
    u = 1.0 - tb
    ds = -(f / tb / tb + f / u / u) * g / (f + g) ** 2
    grad = np.zeros(eta.shape)
    grad[band] = (ds / ((r1 - r0) * r[band]))[:, None] * eta[band]
    return s, grad


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("cols", [0, 1, 2], ids=["1d", "one-column", "two-column"])
def test_bump_profile_bits_match_the_gathered_formula(cols):
    # every row takes the masked path: the band, both closed ends t = 0 and
    # t = 1, the plateau, beyond the support, r = 0 (and -0), |eta| = 1e200,
    # NaN and inf; the gradient is +0.0 exactly off the band, and no row
    # divides by zero or makes an invalid operation
    r0, r1 = 3.0, 6.0
    prof = bump_profile(r0, r1)
    rng = np.random.default_rng(37)
    radii = np.concatenate([rng.uniform(0.0, 8.0, 500),
                            [0.0, -0.0, r0, r1, np.nextafter(r0, r1), np.nextafter(r1, r0),
                             1e-200, 1e200, np.nan, np.inf]])
    signs = rng.choice([-1.0, 1.0], radii.size)
    if cols == 2:
        angles = rng.uniform(0.0, TWO_PI, radii.size)
        eta = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        eta[-10:] = [[0.0, 0.0], [-0.0, 0.0], [r0, 0.0], [0.0, -r1], [0.0, np.nextafter(r0, r1)],
                     [np.nextafter(r1, r0), 0.0], [1e-200, 0.0], [1e200, -1e200],
                     [np.nan, 1.0], [-np.inf, 1.0]]
    else:
        eta = (signs * radii)[:, None]
    batch = eta[:, 0] if cols == 0 else eta     # a bare 1D array or an (m, dim) batch
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        s, grad = prof.value_and_gradient(batch)
        values = prof(batch)
    with np.errstate(all="ignore"):
        ref_s, ref_grad = _gathered_bump(eta, r0, r1)
        r = np.sqrt(np.sum(eta ** 2, axis=1)) if cols == 2 else np.abs(eta[:, 0])
    assert _same_bits(s, ref_s) and _same_bits(values, ref_s)
    assert _same_bits(grad, ref_grad.reshape(grad.shape))
    off = ~((r > r0) & (r < r1))
    assert np.all(grad[off].view(np.uint64) == 0)      # +0.0, never -0.0 or NaN


# -- empty batches and the three sets of a product generator's RK4 batch --


# None: no eta cutoff, every row takes RK4; rk4: a product symbol, whose
# batch is split into the resting sets and the rows that take RK4
@pytest.mark.parametrize("profile", [None, bump_profile(3.0, 6.0)], ids=["None", "rk4"])
def test_empty_batch_flows_to_empty_arrays(profile):
    pot = cosine((1, 0), 0.2)
    b = mechanical_symbol(pot) if profile is None else product_symbol(pot, profile)
    X, P = _flow_batch(b, np.empty((0, 2)), np.empty((0, 2)), 1.0, 1e-2)
    assert X.shape == P.shape == (0, 2)


def test_empty_batch_through_a_symplectic_map():
    for b in (mechanical_symbol(cosine((1,))), _shear_map().generator):
        X, P = time_one_map(b, 1e-2).apply(np.empty((0, 1)), np.empty((0, 1)))
        assert X.shape == P.shape == (0, 1)


def test_bump_profile_and_product_symbol_carry_the_cutoff():
    prof = bump_profile(3.0, 6.0)
    assert (prof.plateau, prof.support) == (3.0, 6.0)
    pot = cosine((1, 2), 0.5) + sine((1, 0), 0.3)
    # sup |grad W|_2 <= 0.5 |(1, 2)| + 0.3 |(1, 0)|
    assert product_symbol(pot, prof).eta_cutoff == (3.0, 6.0, 0.5 * math.sqrt(5.0) + 0.3)
    assert product_symbol(pot, lambda eta: prof(eta)).eta_cutoff is None
    assert mechanical_symbol(pot).eta_cutoff is None


def test_rk4_steps_only_the_points_that_can_reach_the_band():
    # 0.1 sin x bounds |grad W| by G = 0.1: over t = 1 a plateau point with
    # |eta| < 3 - 0.1 never reaches the band, one with |eta| >= 6 never moves
    X, P = _band_batch(1, m=400)
    r = np.abs(P[:, 0])
    assert np.min(np.abs(r - 2.9)) > 1e-6
    near = np.sum((r >= 2.9) & (r < 6.0))
    plateau = np.sum(r < 2.9)
    assert near > 0 and plateau > 0 and np.sum(r >= 6.0) > 0
    b = product_symbol(_SHEAR_POT, bump_profile(3.0, 6.0))
    rows = []
    field = b.vector_field

    def counted(x, eta):
        rows.append(x.shape[0])
        return field(x, eta)

    b.vector_field = counted
    _flow_batch(b, X, P, 1.0, 1e-2)
    assert sum(rows) == 4 * 100 * near + plateau


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x,eta,profile", [
    (0.5, math.nan, (3.0, 6.0)),        # non-finite: goes through RK4
    (math.inf, 1.0, (3.0, 6.0)),
    (0.5, 1500.0, (3.0, 6.0)),          # outside set, refused at the first step
    (0.5, -1500.0, (2000.0, 3000.0)),   # plateau set
])
def test_every_set_keeps_the_escape_refusal(x, eta, profile):
    b = product_symbol(_SHEAR_POT, bump_profile(*profile))
    X = np.array([[x], [1.0], [0.2]])
    P = np.array([[eta], [4.5], [0.1]])
    with pytest.raises(FlowEscapeError):
        _flow_batch(b, X, P, 1.0, 1e-2)


@pytest.mark.parametrize("pot", [
    cosine((1,), 0.3) + sine((2,), 0.2).translate(0.4),
    cosine((1, 2), 0.5) + sine((1, 0), 0.3) + cosine((0, 1), 0.2).translate((0.1, 0.7)),
])
@pytest.mark.parametrize("t", [1.0, -1.0])
def test_split_flow_is_bit_identical_to_all_rk4(pot, t):
    b = product_symbol(pot, bump_profile(3.0, 6.0))
    reference = dataclasses.replace(b, eta_cutoff=None)
    X, P = _band_batch(pot.dim, m=2000)
    got = _flow_batch(b, X, P, t, 1e-2)
    want = _flow_batch(reference, X, P, t, 1e-2)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# -- dead rows of a symbol composed with a mechanical flow --


_OBSERVABLE = product_symbol(cosine((1,)), bump_profile(0.9, 1.2))


def _counted_flows(monkeypatch):
    """Rows handed to each flow call."""
    rows = []
    flow = dynamics._flow_batch

    def counted(b, X, P, t, h):
        rows.append(np.shape(X)[0])
        return flow(b, X, P, t, h)

    monkeypatch.setattr(dynamics, "_flow_batch", counted)
    return rows


@pytest.mark.parametrize("t", [1.0, -0.5])
def test_composed_symbol_flows_only_the_live_rows(monkeypatch, t):
    # V = 0.5 cos x bounds |grad V| by G_V = 0.5: a row with |eta| - |t| G_V
    # >= 1.2 never reaches the observable's support
    phi = SymplecticMap(mechanical_symbol(cosine((1,), 0.5)), t, 1e-2)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, TWO_PI, 241)
    eta = np.linspace(-3.0, 3.0, 241)
    live = np.abs(eta) - abs(t) * 0.5 * (1.0 + 1e-9) < 1.2
    assert 0 < live.sum() < live.size
    rows = _counted_flows(monkeypatch)
    got = compose_hamiltonian(_OBSERVABLE, phi).fn(x, eta)
    assert rows == [live.sum()]
    assert np.all(got[~live] == 0.0)
    want = compose_hamiltonian(dataclasses.replace(_OBSERVABLE, eta_cutoff=None), phi).fn(x, eta)
    assert rows == [live.sum(), live.size]
    assert np.array_equal(got, want)


def test_composed_symbol_with_only_dead_rows_flows_nothing(monkeypatch):
    phi = time_one_map(mechanical_symbol(cosine((1,), 0.5)), 1e-2)
    rows = _counted_flows(monkeypatch)
    got = compose_hamiltonian(_OBSERVABLE, phi).fn(np.zeros(3), np.array([2.0, -5.0, 999.0]))
    assert rows == [] and np.array_equal(got, np.zeros(3))


def test_dead_rows_need_a_mechanical_generator(monkeypatch):
    # the generator of the invariance check: a product symbol, no potential
    phi = _shear_map()
    assert phi.generator.potential is None
    eta = np.linspace(-8.0, 8.0, 33)
    rows = _counted_flows(monkeypatch)
    compose_hamiltonian(_OBSERVABLE, phi).fn(np.zeros(33), eta)
    assert rows == [33]


def test_dead_rows_need_an_observable_with_eta_cutoff(monkeypatch):
    phi = time_one_map(mechanical_symbol(cosine((1,), 0.5)), 1e-2)
    eta = np.linspace(-8.0, 8.0, 33)
    rows = _counted_flows(monkeypatch)
    for H in (mechanical_symbol(cosine((1,))),
              product_symbol(cosine((1,)), lambda e: bump_profile(0.9, 1.2)(e))):
        assert H.eta_cutoff is None
        compose_hamiltonian(H, phi).fn(np.zeros(33), eta)
    assert rows == [33, 33]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x,eta", [
    (0.5, 1e3 + 0.25),          # beyond 1e3, within |t| G_V of it
    (0.5, -1e3 - 0.25),
    (0.5, math.nan),            # non-finite
    (math.inf, 5.0),
    (0.5, math.inf),
])
def test_dead_rows_keep_the_escape_refusal(monkeypatch, x, eta):
    phi = time_one_map(mechanical_symbol(cosine((1,), 0.5)), 1e-2)
    rows = _counted_flows(monkeypatch)
    for H in (_OBSERVABLE, dataclasses.replace(_OBSERVABLE, eta_cutoff=None)):
        with pytest.raises(FlowEscapeError):
            compose_hamiltonian(H, phi).fn(np.array([x, 1.0]), np.array([eta, 5.0]))
    # the refused row was flowed; the dead row beside it was not
    assert rows == [1, 2]


def test_dead_rows_reach_up_to_the_escape_bound(monkeypatch):
    # |eta| + |t| G_V (1 + 1e-9) <= 1e3: the flow cannot leave |p| <= 1e3
    phi = time_one_map(mechanical_symbol(cosine((1,), 0.5)), 1e-2)
    eta = np.array([1e3 - 0.5 * (1.0 + 2e-9), -(1e3 - 0.5 * (1.0 + 2e-9))])
    rows = _counted_flows(monkeypatch)
    assert np.array_equal(compose_hamiltonian(_OBSERVABLE, phi).fn(np.zeros(2), eta), np.zeros(2))
    assert rows == []
