"""Flows, symplectic maps, and symbol composition."""

import math

import numpy as np
import pytest

from torusspec.dynamics import (FlowEscapeError, PhasePoint, SymplecticMap,
                                _flow_batch, compose_hamiltonian, energy_drift, flow,
                                map_diagnostics, symplectic_defect, time_one_map,
                                trajectory)
from torusspec.potentials import FourierPotential, TWO_PI, cosine
from torusspec.symbols import (PhaseSpaceFunction, bump_profile, kinetic_symbol,
                               mechanical_symbol, product_symbol)

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
    assert composed.expensive


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
