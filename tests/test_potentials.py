"""Trigonometric potential container: algebra, evaluation, serialization."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from torusspec import potentials
from torusspec.potentials import (FourierPotential, TWO_PI, cosine,
                                  load_potential, potential_extrema,
                                  potential_from_dict, potential_to_dict,
                                  save_potential, sine, sup_norm, wrap_angles,
                                  zero_potential)


def test_hermitian_symmetry_enforced():
    with pytest.raises(ValueError):
        FourierPotential(1, {(1,): 1.0 + 0.0j})   # missing conjugate partner
    with pytest.raises(ValueError):
        FourierPotential(1, {(1,): 0.5j, (-1,): 0.5j})


def test_zero_coefficients_are_dropped():
    pot = FourierPotential(1, {(1,): 0.0, (-1,): 0.0, (0,): 2.0})
    assert pot.coeffs == {(0,): 2.0 + 0.0j}
    assert pot.max_frequency == 0
    assert pot.mean == 2.0


def test_cosine_evaluates_to_cos():
    pot = cosine((1,))
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TWO_PI, size=64)
    assert np.max(np.abs(pot.evaluate(x) - np.cos(x))) < 1e-14


def test_sine_and_amplitude():
    pot = sine((1,), 0.3)
    x = np.linspace(0.0, TWO_PI, 17)
    assert np.max(np.abs(pot.evaluate(x) - 0.3 * np.sin(x))) < 1e-14


def test_two_dimensional_evaluation():
    pot = cosine((1, 0)) + cosine((0, 1))
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, TWO_PI, size=(40, 2))
    ref = np.cos(pts[:, 0]) + np.cos(pts[:, 1])
    assert np.max(np.abs(pot.evaluate(pts) - ref)) < 1e-13


def test_gradient_matches_finite_differences():
    pot = cosine((1,)) + sine((2,), 0.4)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, TWO_PI, size=32)
    step = 1e-6
    fd = (pot.evaluate(x + step) - pot.evaluate(x - step)) / (2 * step)
    assert np.max(np.abs(pot.gradient(x) - fd)) < 1e-8


def test_translate_and_reflect():
    pot = cosine((1,)) + sine((3,), 0.2)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, TWO_PI, size=50)
    a = 0.77
    assert np.max(np.abs(pot.translate(a).evaluate(x) - pot.evaluate(x + a))) < 1e-13
    assert np.max(np.abs(pot.reflect().evaluate(x) - pot.evaluate(-x))) < 1e-13


def test_translate_round_trip_is_identity():
    pot = cosine((1,)) + sine((2,), -0.6)
    back = pot.translate(1.234).translate(-1.234)
    for q, c in pot.items():
        assert abs(back.coefficient(q) - c) < 1e-15


def test_algebra():
    a = cosine((1,))
    b = sine((1,), 2.0)
    x = np.linspace(0.0, TWO_PI, 33)
    total = a + b
    assert np.max(np.abs(total.evaluate(x) - (np.cos(x) + 2 * np.sin(x)))) < 1e-13
    assert np.max(np.abs((a * 3.0).evaluate(x) - 3 * np.cos(x))) < 1e-13
    assert np.max(np.abs((-a).evaluate(x) + np.cos(x))) < 1e-13


def test_extrema_of_cosine():
    rep = potential_extrema(cosine((1,)), res=2048)
    assert rep.max_value == pytest.approx(1.0, abs=1e-12)
    assert rep.min_value == pytest.approx(-1.0, abs=1e-12)
    assert sup_norm(cosine((1,))) == pytest.approx(1.0, abs=1e-12)


def test_wrap_angles_range():
    x = np.array([-0.1, 0.0, TWO_PI, TWO_PI + 0.3, 17.0])
    w = wrap_angles(x)
    assert np.all(w >= 0.0) and np.all(w < TWO_PI)
    assert np.max(np.abs(np.cos(w) - np.cos(x))) < 1e-12


def test_serialization_round_trip(tmp_path):
    pot = cosine((1,)) + sine((2,), 0.25)
    path = tmp_path / "pot.json"
    save_potential(pot, path)
    back = load_potential(path)
    assert back.dim == pot.dim
    for q, c in pot.items():
        assert abs(back.coefficient(q) - c) < 1e-15
    # the file is plain JSON, editable by hand
    data = json.loads(path.read_text())
    assert potential_from_dict(potential_to_dict(pot)).coeffs == pot.coeffs
    assert "dim" in data


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1}))
    with pytest.raises((ValueError, KeyError)):
        load_potential(path)


def test_zero_potential_is_zero():
    pot = zero_potential(2)
    pts = np.zeros((4, 2))
    assert np.all(pot.evaluate(pts) == 0.0)
    assert pot.max_frequency == 0


def _exp_loop(pot, pts):
    """Reference: V and grad V by one complex exponential per coefficient."""
    val = np.zeros(pts.shape[0], dtype=complex)
    grad = np.zeros((pts.shape[0], pot.dim), dtype=complex)
    for q, c in pot.items():
        qa = np.asarray(q, dtype=float)
        e = np.exp(1j * (pts @ qa))
        val += c * e
        grad += (1j * c) * e[:, None] * qa[None, :]
    return val.real, grad.real


def _complex_2d():
    # off-axis complex coefficients and a constant; components in
    # {0, +-1, +-2} make every product q_i x_i exact, so the phase q.x is
    # rounded once in any summation order (with |q_i| = 3 at |x| ~ 1e3 two
    # orders differ by ~1e-12 in V, and each is that far from the exact V)
    coeffs = {(0, 0): -0.4}
    for q, c in {(1, 0): 0.5, (0, 1): 0.3 - 0.2j, (1, 1): 0.25j,
                 (1, -1): -0.1 + 0.35j, (2, 1): 0.15 - 0.05j}.items():
        coeffs[q] = c
        coeffs[(-q[0], -q[1])] = c.conjugate()
    return FourierPotential(2, coeffs)


def test_kernel_matches_complex_exp_loop():
    pot1 = (cosine((1,)) + sine((2,), 0.5)
            + FourierPotential(1, {(0,): 0.3, (3,): 0.2 - 0.1j, (-3,): 0.2 + 0.1j}))
    rng = np.random.default_rng(17)
    for pot in (pot1, _complex_2d(), zero_potential(1), zero_potential(2),
                FourierPotential(2, {(0, 0): 1.75})):
        tol = 1e-13 * (1.0 + sum(abs(c) for c in pot.coeffs.values()))
        for span in (TWO_PI, 1e3):      # flows keep positions unwrapped
            pts = rng.uniform(-span, span, size=(257, pot.dim))
            val, grad = _exp_loop(pot, pts)
            assert np.max(np.abs(pot.evaluate(pts) - val)) <= tol
            assert np.max(np.abs(pot.gradient(pts) - grad)) <= tol


def test_value_and_gradient_matches_evaluate_and_gradient(monkeypatch):
    pot1 = (cosine((1,)) + sine((2,), 0.5)
            + FourierPotential(1, {(0,): 0.3, (3,): 0.2 - 0.1j, (-3,): 0.2 + 0.1j}))
    passes = []
    trig_sum = potentials._trig_sum
    monkeypatch.setattr(potentials, "_trig_sum",
                        lambda *args: passes.append(1) or trig_sum(*args))
    rng = np.random.default_rng(23)
    for pot in (pot1, _complex_2d(), zero_potential(1), zero_potential(2),
                FourierPotential(2, {(0, 0): 1.75})):
        for span in (TWO_PI, 20.0):
            pts = rng.uniform(-span, span, size=(257, pot.dim))
            del passes[:]
            vals, grad = pot.value_and_gradient(pts)
            assert len(passes) == 1
            assert vals.shape == (257,) and grad.shape == (257, pot.dim)
            assert np.max(np.abs(vals - pot.evaluate(pts))) <= 1e-15
            assert np.max(np.abs(grad - pot.gradient(pts).reshape(grad.shape))) <= 1e-15


def test_many_frequencies_evaluate_in_blocks():
    # 840 half-spectrum frequencies on a 128^2 grid: unblocked, the phase,
    # cos and sin arrays would take 110 MB each
    rng = np.random.default_rng(31)
    coeffs = {}
    for q in itertools.product(range(-20, 21), repeat=2):
        if q > (0, 0):
            c = 1e-3 * complex(*rng.normal(size=2))
            coeffs[q], coeffs[(-q[0], -q[1])] = c, c.conjugate()
    pot = FourierPotential(2, coeffs)
    axis = np.arange(128) * (TWO_PI / 128)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        vals, grad = pot.evaluate(pts), pot.gradient(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    tol = 1e-13 * (1.0 + sum(abs(c) for c in coeffs.values()))
    ref_val, ref_grad = _exp_loop(pot, pts[::997])     # points in many blocks
    assert np.max(np.abs(vals[::997] - ref_val)) <= tol
    assert np.max(np.abs(grad[::997] - ref_grad)) <= tol


def test_evaluation_shape_contracts():
    pot = cosine((1,)) + sine((2,), 0.5)
    assert isinstance(pot.evaluate(0.3), float)
    x = np.linspace(0.0, 1.0, 7)
    assert pot.evaluate(x).shape == (7,)
    assert pot.gradient(x).shape == (7,)
    col = x.reshape(-1, 1)
    assert np.array_equal(pot.evaluate(col), pot.evaluate(x))
    assert np.array_equal(pot.gradient(col), pot.gradient(x).reshape(-1, 1))
    pot2 = _complex_2d()
    assert isinstance(pot2.evaluate(np.array([0.1, 0.2])), float)
    pts = np.zeros((3, 2))
    assert pot2.evaluate(pts).shape == (3,)
    assert pot2.gradient(pts).shape == (3, 2)


def test_non_real_evaluation_refused():
    # each pair passes the construction check (9e-13 <= 1e-12), but the 50
    # antisymmetric parts add up to Im V(0) = 4.5e-11
    coeffs = {}
    for q in range(1, 51):
        coeffs[(q,)] = 1e-3
        coeffs[(-q,)] = 1e-3 + 9e-13j
    pot = FourierPotential(1, coeffs)
    with pytest.raises(ArithmeticError):
        pot.evaluate(0.0)
    with pytest.raises(ArithmeticError):
        pot.value_and_gradient(np.zeros((1, 1)))
