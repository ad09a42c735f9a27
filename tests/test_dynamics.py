"""Flows, symplectic maps, and symbol composition."""

import dataclasses
import math

import numpy as np
import pytest

from torusspec import dynamics, potentials, symbols
from torusspec.dynamics import (FlowEscapeError, PhasePoint, SymplecticMap,
                                _flow_batch, compose_hamiltonian, symplectic_defect,
                                time_one_map)
from torusspec.potentials import FourierPotential, TWO_PI, cosine, sine, zero_potential
from torusspec.symbols import (PhaseSpaceFunction, _central_difference, bump_profile,
                               mechanical_symbol, product_symbol)

# generator 0.1 sin(x) cut off in momentum; on the plateau the time-1 flow is
# the exact shear (x, p) -> (x, p - 0.1 cos x)
_SHEAR_POT = FourierPotential(1, {(1,): -0.05j, (-1,): 0.05j})


def _shear_map():
    return time_one_map(product_symbol(_SHEAR_POT, bump_profile(3.0, 6.0)), 1e-2)


def _free(dim=1):
    return mechanical_symbol(zero_potential(dim))


def _energies(b, z0, t, h):
    """b along the orbit of z0, sampled after every step of h."""
    steps = max(1, int(round(abs(t) / h)))
    X, P = z0.x.reshape(1, -1), z0.p.reshape(1, -1)
    energies = [b.fn(X, P)[0]]
    for _ in range(steps):
        X, P = _flow_batch(b, X, P, t / steps, h)
        energies.append(b.fn(X, P)[0])
    return np.array(energies)


def test_free_flow_is_exact_drift():
    z = time_one_map(_free(), 1e-2)(PhasePoint(1.0, 0.7))
    assert abs(z.x[0] - 1.7) < 1e-12
    assert z.p[0] == 0.7


def test_flow_wraps_position():
    z = time_one_map(_free(), 1e-2)(PhasePoint(6.0, 1.0))
    assert 0.0 <= z.x[0] < TWO_PI
    assert abs(z.x[0] - (7.0 - TWO_PI)) < 1e-12


def test_pendulum_energy_drift_small():
    H = mechanical_symbol(cosine((1,)))
    energies = _energies(H, PhasePoint(0.3, 1.2), 10.0, 1e-2)
    assert 0.0 < np.max(np.abs(energies - energies[0])) < 1e-3


def test_free_energy_drift_zero():
    energies = _energies(_free(), PhasePoint(0.3, 1.2), 2.0, 1e-2)
    assert np.max(np.abs(energies - energies[0])) == 0.0


def test_flow_reversibility():
    H = mechanical_symbol(cosine((1,)))
    phi = time_one_map(H, 1e-2)
    z0 = PhasePoint(0.9, 0.4)
    z1 = phi.inverse()(phi(z0))
    assert abs(z1.x[0] - z0.x[0]) < 1e-9
    assert abs(z1.p[0] - z0.p[0]) < 1e-9


def test_step_size_validation():
    for h in (0.0, 0.02):
        with pytest.raises(ValueError):
            time_one_map(_free(), h)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint([0.0, 1.0], [1.0])
    assert PhasePoint(1.0, 2.0).x.shape == (1,)


def test_flow_dimension_mismatch():
    with pytest.raises(ValueError):
        time_one_map(_free(), 1e-2)(PhasePoint([1.0, 2.0], [0.0, 0.0]))


def test_trajectory_sampling():
    energies = _energies(mechanical_symbol(cosine((1,))), PhasePoint(0.3, 1.2), 0.5, 1e-2)
    assert energies.shape == (51,)
    assert np.max(np.abs(energies - energies[0])) < 1e-4


def test_inverse_negates_time():
    phi = _shear_map()
    assert phi.inverse().time == -1.0
    assert isinstance(phi.inverse(), SymplecticMap)


def test_composed_hamiltonian_matches_shear_closed_form():
    H = mechanical_symbol(cosine((1,)))
    composed = compose_hamiltonian(H, _shear_map())
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TWO_PI, size=12)
    p = rng.uniform(-2.0, 2.0, size=12)
    expect = 0.5 * (p - 0.1 * np.cos(x)) ** 2 + np.cos(x)
    assert np.max(np.abs(composed.fn(x, p) - expect)) < 1e-10


def test_symplectic_defect_of_shear():
    assert symplectic_defect(_shear_map(), probes=8, p_box=2.0) < 1e-8


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
        time_one_map(H, 1e-2)(PhasePoint(1.0, 0.0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("z0", [PhasePoint(0.0, math.nan), PhasePoint(math.inf, 0.0)])
def test_flow_of_non_finite_point_refused(z0):
    with pytest.raises(FlowEscapeError):
        time_one_map(mechanical_symbol(cosine((1,))), 1e-2)(z0)


def test_mechanical_generators_take_verlet_and_others_rk4():
    # Verlet reads grad V itself; RK4 calls the vector field once per stage,
    # four times in each of the 100 steps for a point in the cutoff's band
    for b, calls in ((mechanical_symbol(cosine((1,))), 0), (_shear_map().generator, 400)):
        field, seen = b.vector_field, []
        b.vector_field = lambda x, eta: seen.append(1) or field(x, eta)
        time_one_map(b, 1e-2)(PhasePoint(0.3, 4.5))
        assert len(seen) == calls


def test_rk4_with_central_difference_gradients_matches_analytic():
    # a plain copy of a mechanical symbol carries no gradients, so the RK4
    # path differences it; the analytic symbol forced onto RK4 is the reference
    pot = cosine((1, 0)) + FourierPotential(2, {(1, 1): 0.2 - 0.1j, (-1, -1): 0.2 + 0.1j})
    H = mechanical_symbol(pot)
    plain = PhaseSpaceFunction(dim=2, fn=H.fn)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, TWO_PI, (20, 2))
    P = rng.uniform(-2.0, 2.0, (20, 2))
    Xd, Pd = _flow_batch(plain, X, P, 1.0, 1e-2)
    Xa, Pa = _flow_batch(H, X, P, 1.0, 1e-2, scheme="rk4")
    assert np.max(np.abs(Xd - Xa)) <= 1e-8
    assert np.max(np.abs(Pd - Pa)) <= 1e-8


def test_rk4_on_a_gradient_pair_matches_the_vector_field():
    # a symbol with grad_x/grad_eta and no vector_field: one call of each per stage
    H = mechanical_symbol(cosine((1, 0)) + sine((1, 1), 0.3))
    pair = PhaseSpaceFunction(dim=2, fn=H.fn,
                              grad_x=lambda x, eta: H.vector_field(x, eta)[0],
                              grad_eta=lambda x, eta: H.vector_field(x, eta)[1])
    X, P = _band_batch(2)
    Xg, Pg = _flow_batch(pair, X, P, 0.5, 1e-2)
    Xa, Pa = _flow_batch(H, X, P, 0.5, 1e-2, scheme="rk4")
    assert np.array_equal(Xg, Xa) and np.array_equal(Pg, Pa)


def _band_batch(dim, m=40, seed=11):
    # positions anywhere, momenta on the plateau, in the band and beyond the
    # support of bump_profile(3, 6)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, TWO_PI, (m, dim))
    P = rng.normal(size=(m, dim))
    P *= (rng.uniform(0.5, 7.0, m) / np.linalg.norm(P, axis=1))[:, None]
    return X, P


def test_verlet_shares_the_gradient_between_steps(monkeypatch):
    pot = cosine((1, 0)) + sine((1, 2), 0.3)
    X0, P0 = _band_batch(2)
    steps, dt = 150, 1.5 / 150
    # the loop with two gradient calls per step
    X, P = X0.copy(), P0.copy()
    for _ in range(steps):
        P -= 0.5 * dt * pot.gradient(X).reshape(X.shape)
        X += dt * P
        P -= 0.5 * dt * pot.gradient(X).reshape(X.shape)
    calls = []
    gradient = FourierPotential.gradient
    monkeypatch.setattr(FourierPotential, "gradient",
                        lambda self, x: calls.append(1) or gradient(self, x))
    Xv, Pv = _flow_batch(mechanical_symbol(pot), X0, P0, 1.5, 1e-2)
    assert np.array_equal(Xv, X) and np.array_equal(Pv, P)
    assert len(calls) == steps + 1


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


def test_builtin_symbols_flow_without_central_differences(monkeypatch):
    def refuse(*args):
        raise AssertionError("central difference in a flow of a built-in symbol")

    monkeypatch.setattr(symbols, "_central_difference", refuse)
    monkeypatch.setattr(dynamics, "_central_difference", refuse)
    for dim in (1, 2):
        X, P = _band_batch(dim)
        pot = cosine((1,) * dim, 0.2)
        for b in (mechanical_symbol(pot), _free(dim),
                  product_symbol(pot, bump_profile(3.0, 6.0))):
            for scheme in (None, "rk4"):
                _flow_batch(b, X, P, 0.1, 1e-2, scheme=scheme)


# -- empty batches and the three sets of a product generator's RK4 batch --


@pytest.mark.parametrize("scheme", [None, "rk4"])
def test_empty_batch_flows_to_empty_arrays(scheme):
    # mechanical: Verlet, or RK4 when forced; product symbol: RK4 with the split
    for b in (mechanical_symbol(cosine((1, 0))),
              product_symbol(cosine((1, 0), 0.2), bump_profile(3.0, 6.0))):
        X, P = _flow_batch(b, np.empty((0, 2)), np.empty((0, 2)), 1.0, 1e-2, scheme=scheme)
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
