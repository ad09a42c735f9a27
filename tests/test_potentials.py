"""Trigonometric potential container: algebra, evaluation, serialization."""

import itertools
import json
import math
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


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_coefficients_refused(value):
    # NaN passes the Hermitian comparison, so finiteness is its own check
    with pytest.raises(ValueError, match="not finite"):
        FourierPotential(1, {(1,): value, (-1,): complex(value).conjugate()})
    with pytest.raises(ValueError, match="not finite"):
        FourierPotential(1, {(0,): value})


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
    rep = potential_extrema(cosine((1,)))
    assert rep.max_value == pytest.approx(1.0, abs=1e-12)
    assert rep.min_value == pytest.approx(-1.0, abs=1e-12)
    assert sup_norm(cosine((1,))) == pytest.approx(1.0, abs=1e-12)


def _random_potential(dim, band, seed):
    """Coefficients uniform in [-0.5, 0.5] + i [-0.5, 0.5] on the whole band."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for q in itertools.product(range(-band, band + 1), repeat=dim):
        if q > tuple(-v for v in q):
            c = complex(*rng.uniform(-0.5, 0.5, 2))
            coeffs[q] = c
            coeffs[tuple(-v for v in q)] = c.conjugate()
    return FourierPotential(dim, coeffs)


def _cell2d_seed1():
    # the benchmark's cell2d input at seed 1: two translated cosines, whose
    # extrema are +-(a1 + a2)
    rng = np.random.default_rng(1)
    amps = rng.uniform(0.9, 1.1, 2)
    phases = rng.uniform(0.0, TWO_PI, 2)
    pot = (cosine((1, 0), amps[0]).translate((phases[0], 0.0))
           + cosine((0, 1), amps[1]).translate((0.0, phases[1])))
    return pot, -(amps[0] + amps[1]), amps[0] + amps[1]


# (potential, min V, max V).  The random references are Newton on grad V in
# 30-digit mpmath, started at the best local extrema of a 2^18-point (1D) or
# 1024^2 (2D) scan.
EXACT_EXTREMA = {
    "cos+0.5sin2x": lambda: (cosine((1,)) + sine((2,), 0.5),
                             -0.75 * math.sqrt(3.0), 0.75 * math.sqrt(3.0)),
    "band16": lambda: (_random_potential(1, 16, 1), -4.3671734717054120968, 7.8148240686093872533),
    "band64": lambda: (_random_potential(1, 64, 2), -12.393322912438083524, 14.450613752862385676),
    "rounding": lambda: (FourierPotential(1, {
        (1,): -0.065 + 0.685j, (-1,): -0.065 - 0.685j, (2,): -0.335 + 0.175j,
        (-2,): -0.335 - 0.175j, (3,): 0.45 + 0.045j, (-3,): 0.45 - 0.045j}),
        -2.1967110923404996018, 2.3559564146638403714),
    "2d-band2": lambda: (_random_potential(2, 2, 3), -4.9123345083984300623, 4.4091807269208127241),
    "2d-band8": lambda: (_random_potential(2, 8, 4), -23.309227455197127966, 26.09114978778751295),
    "cell2d-seed1": _cell2d_seed1,
}


@pytest.mark.parametrize("case", list(EXACT_EXTREMA))
def test_extrema_are_exact_and_never_worse_than_the_scan(case):
    pot, vmin, vmax = EXACT_EXTREMA[case]()
    rep = potential_extrema(pot)
    for value, ref, arg in ((rep.min_value, vmin, rep.argmin), (rep.max_value, vmax, rep.argmax)):
        tol = 1e-14 * max(1.0, abs(ref))
        assert abs(value - ref) <= tol
        assert abs(pot.evaluate(arg[None, :])[0] - value) <= tol
    assert abs(sup_norm(pot) - max(-vmin, vmax)) <= 1e-14 * max(-vmin, vmax)
    n = 4096 if pot.dim == 1 else 256
    scan = pot.evaluate(potentials._grid_points([np.arange(n) * (TWO_PI / n)] * pot.dim))
    assert rep.min_value <= np.min(scan) and rep.max_value >= np.max(scan)


@pytest.mark.parametrize("pot, vmin, vmax", [
    (zero_potential(1), 0.0, 0.0),
    (zero_potential(2), 0.0, 0.0),
    (FourierPotential(2, {(0, 0): 1.5}), 1.5, 1.5),
    (cosine((1, 0)), -1.0, 1.0),                  # a ridge: the Hessian is singular
    (cosine((1,)) + cosine((2,), -0.25), -1.25, 0.75),  # V'' = 0 at the max
], ids=["zero-1d", "zero-2d", "constant", "ridge", "flat-max"])
def test_extrema_of_degenerate_potentials(monkeypatch, pot, vmin, vmax):
    assert sup_norm(pot, remove_mean=True) == pytest.approx(
        max(abs(vmin - pot.mean), abs(vmax - pot.mean)), abs=1e-15)
    batches = []
    trig_sum = potentials._trig_sum

    def counting(pts, freqs, w):
        batches.append(len(pts))
        return trig_sum(pts, freqs, w)

    monkeypatch.setattr(potentials, "_trig_sum", counting)
    rep = potential_extrema(pot)
    assert abs(rep.min_value - vmin) <= 1e-15 and abs(rep.max_value - vmax) <= 1e-15
    if vmin == vmax:
        assert batches == []        # a constant potential is neither scanned nor polished
    else:
        # one scan, then Newton on a few starts, never on the whole grid
        assert len(batches) > 2 and max(batches[1:]) <= batches[0] // 64


def test_extrema_scan_is_bounded_in_three_dimensions(monkeypatch):
    # the scan holds at most 2^16 points in any dimension, not res^dim
    sizes = []
    grid_points = potentials._grid_points

    def bounded(axes):
        sizes.append(math.prod(len(a) for a in axes))
        assert sizes[-1] <= 2 ** 16
        return grid_points(axes)

    monkeypatch.setattr(potentials, "_grid_points", bounded)
    pot = cosine((1, 0, 0)) + cosine((0, 1, 1), 0.5).translate((0.0, 0.3, 0.0))
    rep = potential_extrema(pot)
    assert sizes == [2 ** 15]
    assert abs(rep.max_value - 1.5) <= 1e-15 and abs(rep.min_value + 1.5) <= 1e-15


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


@pytest.mark.parametrize("data", [
    {"dim": 1},
    {"dim": 1.5, "coeffs": []},
    {"dim": 1, "coeffs": 5},
    {"dim": 1, "coeffs": [[1, 2]]},
    {"dim": 1, "coeffs": [{"q": [1]}]},
    {"dim": 1, "coeffs": [{"q": [1.5], "re": 0.5}, {"q": [-1.5], "re": 0.5}]},
], ids=["no-coeffs", "fractional-dim", "coeffs-not-a-list", "entry-not-an-object",
        "entry-without-re", "fractional-q"])
def test_load_rejects_garbage(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("m", [257, 3584, 2 ** 16 // 5 + 3], ids=["257", "3584", "blocks"])
def test_fused_pass_is_evaluate_and_gradient_bit_for_bit(m):
    # a real V's fused pass takes the cos product over V's column alone and
    # the sin product over grad V's columns alone: the same products as
    # evaluate and gradient, in the same blocks of _TRIG_BLOCK // h rows
    rng = np.random.default_rng(19)
    for pot in (cosine((1,)) + cosine((3,), -0.4).translate(0.3), _complex_2d(),
                _real_cosine_sum_2d()):
        pts = rng.uniform(-7.0, 7.0, size=(m, pot.dim))
        vals, grad = pot.value_and_gradient(pts)
        assert np.array_equal(vals.view(np.uint64), pot.evaluate(pts).view(np.uint64))
        assert np.array_equal(grad.view(np.uint64),
                              pot.gradient(pts).reshape(grad.shape).view(np.uint64))


def _real_cosine_sum_2d():
    # real coefficients on 40 half-spectrum frequencies, |q|_inf <= 4
    rng = np.random.default_rng(41)
    coeffs = {(0, 0): 0.2}
    for q in itertools.product(range(-4, 5), repeat=2):
        if q > (0, 0):
            coeffs[q] = coeffs[(-q[0], -q[1])] = float(rng.normal())
    return FourierPotential(2, coeffs)


@pytest.mark.parametrize("pot, m", [
    (cosine((1,)), 257),
    (cosine((2,), -0.25), 257),
    (_real_cosine_sum_2d(), 2 ** 16),     # 2^16 x 40 phases: three blocks
], ids=["cos", "-0.25cos2x", "2d-blocks"])
def test_real_coefficients_take_phase_zero_and_one_transcendental(pot, m):
    # a real coefficient has theta = 0 exactly and its signed amplitude a_q
    # is A_q, so V = c_0 + sum a_q cos(q.x) and grad V = -sum a_q q sin(q.x)
    # bit for bit.  The kernel takes the rows in blocks of _TRIG_BLOCK // k
    # and BLAS rounds the last rows of a product apart, so the reference
    # takes the same blocks
    pts = np.random.default_rng(43).uniform(-20.0, 20.0, size=(m, pot.dim))
    q, a = pot.half_freqs, pot.half_amplitudes
    assert not np.any(pot.half_phases)
    step = potentials._TRIG_BLOCK // q.shape[0]
    blocks = [np.dot(pts[lo:lo + step], q.T) for lo in range(0, m, step)]
    assert len(blocks) == (3 if m > 257 else 1)
    vals = np.concatenate([pot.mean + np.dot(np.cos(t), a) for t in blocks])
    grad = np.concatenate([-np.dot(np.sin(t), a[:, None] * q) for t in blocks])
    assert np.array_equal(pot.evaluate(pts), vals)
    assert np.array_equal(pot.gradient(pts).reshape(m, pot.dim), grad)


def test_each_pass_takes_only_the_transcendentals_it_needs(monkeypatch):
    # evaluate takes the cos of every (point, frequency) pair and no sin,
    # gradient the sin and no cos, value_and_gradient one of each; a
    # potential whose coefficients are not exact conjugates is stored as
    # exact pairs, so its evaluate takes the cos alone too
    coeffs = {}
    for q in range(1, 51):
        coeffs[(q,)] = 1e-3
        coeffs[(-q,)] = 1e-3 + 9e-13j
    near = FourierPotential(1, coeffs)
    pot1 = cosine((1,)) + sine((2,), 0.5).translate(0.3)
    counts = {}

    def counted(name, fn):
        def wrapped(t, **kwargs):
            counts[name] += np.size(t)
            return fn(t, **kwargs)
        return wrapped

    monkeypatch.setattr(np, "cos", counted("cos", np.cos))
    monkeypatch.setattr(np, "sin", counted("sin", np.sin))
    m = 257
    for pot in (pot1, _complex_2d(), _real_cosine_sum_2d()):
        pts = np.linspace(-3.0, 3.0, m * pot.dim).reshape(m, pot.dim)
        mk = m * pot.half_freqs.shape[0]
        for call, expected in ((pot.evaluate, (mk, 0)), (pot.gradient, (0, mk)),
                               (pot.value_and_gradient, (mk, mk))):
            counts.update(cos=0, sin=0)
            call(pts)
            assert (counts["cos"], counts["sin"]) == expected
    counts.update(cos=0, sin=0)
    near.evaluate(np.zeros((m, 1)))
    assert counts == {"cos": 50 * m, "sin": 0}


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


def test_near_conjugate_pairs_are_stored_exactly():
    # each pair passes the construction check (9e-13 <= 1e-12) and keeps its
    # half-spectrum member's coefficient, so V is real: V(0) = 50 * 2e-3
    coeffs = {}
    for q in range(1, 51):
        coeffs[(q,)] = 1e-3
        coeffs[(-q,)] = 1e-3 + 9e-13j
    pot = FourierPotential(1, coeffs)
    assert pot.coeffs == {q: 1e-3 + 0j for q in coeffs}
    assert all(pot.coefficient((-q,)) == pot.coefficient((q,)).conjugate()
               for q in range(1, 51))
    assert pot.evaluate(0.0) == 0.1
    vals, grad = pot.value_and_gradient(np.zeros((1, 1)))
    assert vals[0] == 0.1 and grad[0, 0] == 0.0
    # an absent half-spectrum member is the conjugate of its partner, and an
    # imaginary c_0 within the tolerance is dropped with its real part kept
    tiny = FourierPotential(1, {(-2,): 1e-13 + 2e-13j, (0,): 1.5 - 1e-13j, (3,): 0.0})
    assert tiny.coeffs == {(-2,): 1e-13 + 2e-13j, (2,): 1e-13 - 2e-13j, (0,): 1.5}
    assert FourierPotential(1, {(0,): 1e-13j}).coeffs == {}


@pytest.mark.parametrize("pot", [
    -cosine((1,)),
    cosine((1,)) + 0.5 * sine((2,)).translate(0.3),
    (-FourierPotential(1, {(0,): 1.0})) + sine((3,)),
    (cosine((1, 1)).reflect() * -2.5).translate((0.2, -0.7)),
], ids=["neg-cos", "cos-sin", "neg-const-sin", "2d-reflect-scale"])
def test_exact_pairs_keep_every_bit(pot, tmp_path):
    # an exactly Hermitian table is stored as given, signed zeros included
    again = FourierPotential(pot.dim, dict(pot.coeffs))
    assert [(q, c.real.hex(), c.imag.hex()) for q, c in again.items()] == \
        [(q, c.real.hex(), c.imag.hex()) for q, c in pot.items()]
    save_potential(pot, tmp_path / "a.json")
    save_potential(again, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_signed_zero_imaginary_parts_are_kept(tmp_path):
    # -0.0 == 0.0, so each entry already equals its partner's conjugate
    pot = FourierPotential(1, {(1,): complex(-0.5, -0.0), (-1,): complex(-0.5, -0.0),
                               (0,): complex(0.25, -0.0)})
    assert [math.copysign(1.0, c.imag) for _, c in pot.items()] == [-1.0, -1.0, -1.0]
    save_potential(pot, tmp_path / "neg.json")
    assert (tmp_path / "neg.json").read_text() == json.dumps(
        {"dim": 1, "coeffs": [{"q": [-1], "re": -0.5, "im": -0.0},
                              {"q": [0], "re": 0.25, "im": -0.0},
                              {"q": [1], "re": -0.5, "im": -0.0}]}, indent=2) + "\n"
