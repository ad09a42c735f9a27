"""Flows, symplectic maps, and symbol composition."""

import math

import numpy as np
import pytest

from torusspec import dynamics, potentials, symbols
from torusspec.dynamics import (FlowEscapeError, PhasePoint, SymplecticMap,
                                _flow_batch, compose_hamiltonian, energy_drift, flow,
                                map_diagnostics, symplectic_defect, time_one_map,
                                trajectory)
from torusspec.potentials import FourierPotential, TWO_PI, cosine, sine
from torusspec.symbols import (PhaseSpaceFunction, _central_difference, bump_profile,
                               kinetic_symbol, mechanical_symbol, product_symbol)

# generator 0.1 sin(x) cut off in momentum; on the plateau the time-1 flow is
# the exact shear (x, p) -> (x, p - 0.1 cos x)
_SHEAR_POT = FourierPotential(1, {(1,): -0.05j, (-1,): 0.05j})


def _shear_map():
    return time_one_map(product_symbol(_SHEAR_POT, bump_profile(3.0, 6.0)), 1e-2)


def test_free_flow_is_exact_drift():
    z = flow(kinetic_symbol(1), PhasePoint(1.0, 0.7), 1.0, 1e-2)
    assert abs(z.x[0] - 1.7) < 1e-12
    assert z.p[0] == 0.7


def test_flow_wraps_position():
    z = flow(kinetic_symbol(1), PhasePoint(6.0, 1.0), 1.0, 1e-2)
    assert 0.0 <= z.x[0] < TWO_PI
    assert abs(z.x[0] - (7.0 - TWO_PI)) < 1e-12


def test_pendulum_energy_drift_small():
    H = mechanical_symbol(cosine((1,)))
    drift = energy_drift(H, PhasePoint(0.3, 1.2), 10.0, 1e-2)
    assert 0.0 < drift < 1e-3


def test_free_energy_drift_zero():
    assert energy_drift(kinetic_symbol(1), PhasePoint(0.3, 1.2), 2.0, 1e-2) == 0.0


def test_flow_reversibility():
    H = mechanical_symbol(cosine((1,)))
    phi = time_one_map(H, 1e-2)
    z0 = PhasePoint(0.9, 0.4)
    z1 = phi.inverse()(phi(z0))
    assert abs(z1.x[0] - z0.x[0]) < 1e-9
    assert abs(z1.p[0] - z0.p[0]) < 1e-9


def test_step_size_validation():
    H = kinetic_symbol(1)
    with pytest.raises(ValueError):
        flow(H, PhasePoint(0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        flow(H, PhasePoint(0.0, 0.0), 1.0, 0.02)
    with pytest.raises(ValueError):
        time_one_map(H, 0.02)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint([0.0, 1.0], [1.0])
    assert PhasePoint(1.0, 2.0).x.shape == (1,)


def test_flow_dimension_mismatch():
    with pytest.raises(ValueError):
        flow(kinetic_symbol(1), PhasePoint([1.0, 2.0], [0.0, 0.0]), 1.0, 1e-2)


def test_trajectory_sampling():
    H = mechanical_symbol(cosine((1,)))
    times, xs, ps, energies = trajectory(H, PhasePoint(0.3, 1.2), 0.5, 1e-2)
    assert times.shape == (51,) and xs.shape == (51, 1) and ps.shape == (51, 1)
    assert times[-1] == pytest.approx(0.5)
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
        flow(H, PhasePoint(1.0, 0.0), 1.0, 1e-2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("z0", [PhasePoint(0.0, math.nan), PhasePoint(math.inf, 0.0)])
def test_flow_of_non_finite_point_refused(z0):
    with pytest.raises(FlowEscapeError):
        flow(mechanical_symbol(cosine((1,))), z0, 1.0, 1e-2)


def test_map_diagnostics_scheme_selection():
    pend = map_diagnostics(time_one_map(mechanical_symbol(cosine((1,))), 1e-2),
                           PhasePoint(0.3, 1.2))
    assert pend.scheme == "verlet" and pend.steps == 100
    shear = map_diagnostics(_shear_map(), PhasePoint(0.3, 0.5))
    assert shear.scheme == "rk4"


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
        for b in (mechanical_symbol(pot), kinetic_symbol(dim),
                  product_symbol(pot, bump_profile(3.0, 6.0))):
            for scheme in (None, "rk4"):
                _flow_batch(b, X, P, 0.1, 1e-2, scheme=scheme)
