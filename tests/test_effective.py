"""Effective Hamiltonian: closed form, cell solver, tables, invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from torusspec import effective
from torusspec.dynamics import SymplecticMap, compose_hamiltonian, time_one_map
from torusspec.effective import (CellConvergenceError, EffectiveTable,
                                 action_J, action_threshold, cell_problem_solve,
                                 cell_table, closed_form_table, compute_certificates,
                                 effective_1d, effective_grid, infsup_upper,
                                 invariance_check, nested_dissection, sublevel_set,
                                 write_effective_csv)
from torusspec.potentials import (FourierPotential, TWO_PI, cosine, potential_extrema,
                                  sine, zero_potential)
from torusspec.symbols import (PhaseSpaceFunction, bump_profile, kinetic_symbol,
                               mechanical_symbol, product_symbol)

COS = cosine((1,))

# frozen closed-form values (action inversion, tolerance 1e-9)
HBAR_COS = {1.5: 1.244637640628406, 2.0: 2.0637954228622046, 3.0: 4.527886154984213}


@pytest.fixture(scope="module")
def cos_closed_table():
    return closed_form_table(COS, 3.0, 0.25)


def test_action_free():
    assert action_J(zero_potential(1), 2.0) == pytest.approx(2.0, abs=1e-10)


def test_action_cosine_at_separatrix():
    # integral of 2 |sin(x/2)| over a period is 8, so J(1) = 4/pi
    assert action_J(COS, 1.0) == pytest.approx(4.0 / math.pi, abs=1e-10)
    assert action_threshold(COS) == pytest.approx(4.0 / math.pi, abs=1e-10)


def test_action_below_max_rejected():
    with pytest.raises(ValueError):
        action_J(COS, 0.5)


def test_effective_free_is_parabola():
    assert effective_1d(zero_potential(1), 1.3) == pytest.approx(0.845, abs=1e-10)
    assert effective_1d(zero_potential(1), 0.0) == 0.0


def test_effective_cosine_frozen_values():
    for p, val in HBAR_COS.items():
        assert effective_1d(COS, p) == pytest.approx(val, abs=1e-9)


def test_effective_plateau_and_evenness():
    assert effective_1d(COS, 1.0) == 1.0
    assert effective_1d(COS, 4.0 / math.pi - 1e-3) == 1.0
    assert effective_1d(COS, -2.0) == effective_1d(COS, 2.0)


def test_cell_free_is_exact():
    sol = cell_problem_solve(kinetic_symbol(1), 1.3, 64)
    assert sol.value == pytest.approx(0.845, abs=1e-10)
    assert sol.corrector.residual < 1e-10


def test_cell_cosine_above_plateau():
    sol = cell_problem_solve(mechanical_symbol(COS), 2.0, 256)
    assert abs(sol.value - HBAR_COS[2.0]) < 1e-4
    # the corrector is reported at the smallest discount, so its residual
    # carries the O(delta) offset of that solve
    assert sol.corrector.residual < 1e-2


def test_cell_cosine_plateau_dip():
    # the vanishing-viscosity scheme undershoots the flat piece by O(alpha h)
    sol = cell_problem_solve(mechanical_symbol(COS), 0.0, 512)
    assert 1.0 - 3e-2 < sol.value < 1.0 + 1e-9


def test_cell_validation():
    H = mechanical_symbol(COS)
    with pytest.raises(ValueError):
        cell_problem_solve(H, 1.0, 16)
    with pytest.raises(ValueError):
        cell_problem_solve(H, [1.0, 2.0], 64)
    numeric = PhaseSpaceFunction(dim=1, fn=lambda x, eta: 0.5 * eta[:, 0] ** 2)
    with pytest.raises(ValueError):
        cell_problem_solve(numeric, 1.0, 64)
    with pytest.raises(ValueError, match="mechanical"):
        invariance_check(numeric, _shear_map(), (1.0,), 64)


@pytest.mark.parametrize("P", [math.nan, math.inf, -math.inf])
def test_cell_non_finite_momentum_refused(P):
    with pytest.raises(ValueError, match="not finite"):
        cell_problem_solve(mechanical_symbol(COS), P, 32)


def test_cell_nan_residual_refused():
    # Newton takes no step on a NaN residual; the cascade must refuse it
    # rather than extrapolate a value from it
    nan_symbol = PhaseSpaceFunction(dim=1, fn=lambda x, eta: np.full(len(eta), np.nan))
    with pytest.raises(CellConvergenceError) as exc:
        cell_problem_solve(nan_symbol, 1.0, 32, v_range=(-1.0, 1.0))
    assert math.isnan(exc.value.residual)


def test_cell_convergence_error(monkeypatch):
    monkeypatch.setattr(effective, "_TOL", 1e-16)
    with pytest.raises(CellConvergenceError) as exc:
        cell_problem_solve(mechanical_symbol(COS), 1.0, 64)
    assert exc.value.residual > 0.0


def test_closed_form_table_certificates(cos_closed_table):
    certs = cos_closed_table.certificates
    assert certs.convex
    assert certs.even_defect == 0.0
    assert certs.bound_defect == 0.0
    assert certs.convex_defect <= 1e-12


def test_cell_table_honest_certificates():
    table = cell_table(COS, 2.0, 1.0, 512)
    certs = table.certificates
    # mirrored solves make evenness exact; the plateau dip voids convexity
    assert certs.even_defect == 0.0
    assert not certs.convex
    assert 0.0 < certs.convex_defect < 5e-3
    assert 0.0 < certs.bound_defect < 3e-2
    assert np.all(np.isfinite(table.residuals))


def test_sublevel_set_convex(cos_closed_table):
    lev = sublevel_set(cos_closed_table, 2.0)
    assert not lev.empty
    assert lev.points.shape == (15, 1)
    assert lev.convex_certified
    assert np.max(np.abs(lev.points)) <= action_J(COS, 2.0) + 1e-12


def test_sublevel_set_empty(cos_closed_table):
    lev = sublevel_set(cos_closed_table, -2.0)
    assert lev.empty and lev.convex_certified


def test_sublevel_set_with_a_hole_is_refused():
    axis = np.array([-1.0, 0.0, 1.0])

    def table(values):
        return EffectiveTable(dim=values.ndim, axes=(axis,) * values.ndim, values=values,
                              method="cell-problem", residuals=None, certificates=None,
                              v_max=0.0)

    # 1D: the middle node lies above the level, between two members
    lev = sublevel_set(table(np.array([0.5, 0.9, 0.5])), 0.6)
    assert not lev.empty and not lev.convex_certified
    assert lev.points.tolist() == [[-1.0], [1.0]]
    # 2D: the corners (-1, -1) and (1, 1) are members, the centre on the
    # diagonal between them is not
    values = np.full((3, 3), 2.0)
    values[0, 0] = values[2, 2] = 0.0
    lev = sublevel_set(table(values), 1.0)
    assert not lev.empty and not lev.convex_certified
    assert lev.points.tolist() == [[-1.0, -1.0], [1.0, 1.0]]


def _all_pairs_walk(flags):
    """Reference certificate: every lattice point strictly between two
    members is a member."""
    members = [tuple(c) for c in np.argwhere(flags)]
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            d = np.subtract(b, a)
            g = int(np.gcd.reduce(np.abs(d)))
            if any(not flags[tuple(np.add(a, k * (d // g)))] for k in range(1, g)):
                return False
    return True


@st.composite
def _level_tables(draw):
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["segment", "any", "quadratic"]))
    if kind == "segment":
        # the ends of a segment k*v along a lattice direction v, with or
        # without the points between them
        v = np.array([draw(st.integers(-3, 3)) for _ in range(dim)])
        k = draw(st.integers(1, 3))
        ends = np.array([np.zeros(dim, dtype=int), k * v])
        start = -ends.min(axis=0) + [draw(st.integers(0, 2)) for _ in range(dim)]
        shape = tuple(start + ends.max(axis=0) + 1 + [draw(st.integers(0, 2)) for _ in range(dim)])
        values = np.ones(shape)
        for j in (range(k + 1) if draw(st.booleans()) else (0, k)):
            values[tuple(start + j * v)] = 0.0
        return values, 0.5
    shape = tuple(draw(st.integers(1, 7)) for _ in range(dim))
    if kind == "any":
        # arbitrary sets: mostly holes
        values = np.array(draw(st.lists(st.integers(0, 3), min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        return values.astype(float), 1.5
    # level sets of a quadratic about a random centre: mostly convex, with
    # discrete holes where the lattice cuts a thin ellipse
    idx = np.indices(shape).reshape(dim, -1).T.astype(float)
    centre = np.array([draw(st.floats(-1.0, m)) for m in shape])
    A = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    z = idx - centre
    values = np.einsum("ni,ij,nj->n", z, A @ A.T + 0.05 * np.eye(dim), z)
    return values.reshape(shape), draw(st.floats(0.0, 20.0))


@settings(max_examples=300, deadline=None)
@given(_level_tables())
def test_sublevel_set_matches_the_all_pairs_walk(case):
    values, energy = case
    table = EffectiveTable(dim=values.ndim, axes=tuple(np.arange(m) for m in values.shape),
                           values=values, method="cell-problem", residuals=None,
                           certificates=None, v_max=0.0)
    lev = sublevel_set(table, energy)
    assert lev.convex_certified == _all_pairs_walk(values <= energy)


def test_certificates_flag_violations():
    axis = np.array([-1.0, 0.0, 1.0])
    certs = compute_certificates((axis,), np.array([0.5, 0.9, 0.5]), 0.0)
    assert not certs.convex and certs.convex_defect > 0.0
    certs = compute_certificates((axis,), np.array([0.5, 0.0, 0.6]), 0.0)
    assert certs.even_defect == pytest.approx(0.1)


def test_infsup_upper_bounds():
    assert infsup_upper(mechanical_symbol(COS), 0.0) == 1.0
    assert infsup_upper(kinetic_symbol(1), 1.3) == 0.5 * 1.3 ** 2
    val = infsup_upper(mechanical_symbol(COS), 2.0)
    assert HBAR_COS[2.0] - 1e-9 <= val <= HBAR_COS[2.0] + 5e-3
    with pytest.raises(ValueError):
        infsup_upper(mechanical_symbol(COS), 0.0, bandwidth=0)
    with pytest.raises(ValueError):
        infsup_upper(mechanical_symbol(COS), 0.0, bandwidth=5)


def test_table_axis_must_divide():
    with pytest.raises(ValueError):
        closed_form_table(COS, 1.0, 0.3)


def test_effective_grid_dispatch():
    table = effective_grid(zero_potential(1), 1.0, 0.5, "closed-form")
    assert table.method == "closed-form"
    with pytest.raises(ValueError):
        effective_grid(COS, 1.0, 0.5, "nope")
    with pytest.raises(ValueError):
        effective_grid(COS, 1.0, 0.5, "cell-problem", grid=0)


def test_invariance_under_momentum_shear():
    H = mechanical_symbol(COS)
    gen = FourierPotential(1, {(1,): -0.05j, (-1,): 0.05j})
    phi = time_one_map(product_symbol(gen, bump_profile(3.0, 6.0)), 1e-2)
    rep = invariance_check(H, phi, p_values=(2.0,), grid=256, defect_probes=8)
    assert rep.max_distance < 1e-4
    assert rep.symplectic_defect < 1e-8
    assert rep.base_values[0] == pytest.approx(HBAR_COS[2.0], abs=1e-4)


def test_cell_table_mirrors_only_under_p_to_minus_p():
    # cos(x1 + x2) is even under P -> -P but not under P2 -> -P2 alone:
    # Hbar(1, -1) = 2 exactly, while Hbar(1, 1) sits on the plateau
    pot = cosine((1, 1))
    H = mechanical_symbol(pot)
    table = cell_table(pot, 1.0, 1.0, 48)
    direct = cell_problem_solve(H, (1, -1), 48).value
    assert table.values[2, 0] == direct
    assert table.values[0, 2] == table.values[2, 0]


def test_cell_2d_separable_potential():
    pot = cosine((1, 0)) + cosine((0, 1))
    sol = cell_problem_solve(mechanical_symbol(pot), (1.5, 1.5), 48)
    assert abs(sol.value - 2.0 * HBAR_COS[1.5]) < 1.5e-2


def test_effective_csv_golden_bytes(tmp_path):
    table = EffectiveTable(
        dim=1, axes=(np.array([-1.0, 0.0, 1.0]),),
        values=np.array([0.5, 0.0, 0.5]), method="closed-form",
        residuals=None, certificates=None, v_max=0.0)
    out = tmp_path / "effective.csv"
    write_effective_csv(out, table)
    golden = (
        "P,Hbar,method,residual\n"
        "-1.000000000000e+00,5.000000000000e-01,closed-form,0.000000000000e+00\n"
        "0.000000000000e+00,0.000000000000e+00,closed-form,0.000000000000e+00\n"
        "1.000000000000e+00,5.000000000000e-01,closed-form,0.000000000000e+00\n"
    )
    assert out.read_text() == golden


# max V lies between scan points (x* = 4.38108...); the references are
# Newton on V' and tanh-sinh quadrature over [x*, x* + 2 pi] in 40-digit mpmath
ROUNDING = FourierPotential(1, {(1,): -0.065 + 0.685j, (-1,): -0.065 - 0.685j,
                                (2,): -0.335 + 0.175j, (-2,): -0.335 - 0.175j,
                                (3,): 0.45 + 0.045j, (-3,): 0.45 - 0.045j})
ROUNDING_VMAX = 2.3559564146638403714
ROUNDING_J = 2.0467184348550306420


def test_action_J_at_max_v_matches_mpmath():
    assert abs(potential_extrema(ROUNDING).max_value - ROUNDING_VMAX) <= 1e-14
    assert abs(action_threshold(ROUNDING) - ROUNDING_J) <= 1e-14
    assert abs(action_J(ROUNDING, ROUNDING_VMAX) - ROUNDING_J) <= 1e-14


def test_action_J_at_max_v_keeps_the_kink_on_the_ends(monkeypatch):
    # the period of J(max V) starts at x*, so no quadrature panel has to
    # resolve the kink of sqrt(2 (max V - V)) there: 235 evaluations of V,
    # against 991 over [0, 2 pi] with x* inside
    calls = []
    evaluate = FourierPotential.evaluate

    def counting(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(FourierPotential, "evaluate", counting)
    action_threshold(ROUNDING)
    assert len(calls) <= 400


def test_closed_form_plateau_is_exact_max_v():
    # cos x + 0.5 sin 2x has its max 3 sqrt(3)/4 at x = pi/6, between scan points
    table = closed_form_table(COS + sine((2,), 0.5), 2.0, 0.5)
    vmax = 0.75 * math.sqrt(3.0)
    assert abs(table.v_max - vmax) <= 1e-14
    assert abs(table.values[table.axes[0].size // 2] - vmax) <= 1e-14
    assert table.certificates.convex and table.certificates.bound_defect == 0.0


def test_action_J_scans_its_grid_once(monkeypatch):
    # one potential_extrema per call, none inside the quadrature or the
    # action inversion: the scan is the only evaluation of 4096 points
    calls = []
    evaluate = FourierPotential.evaluate

    def counting(self, x):
        if np.size(x) == 4096:
            calls.append(np.size(x))
        return evaluate(self, x)

    pot = COS + FourierPotential(1, {(2,): 0.1j, (-2,): -0.1j})
    vmax = potential_extrema(pot).max_value
    monkeypatch.setattr(FourierPotential, "evaluate", counting)
    for energy in (vmax, vmax + 0.7):
        action_J(pot, energy)
        assert len(calls) == 1
        calls.clear()
    effective_1d(pot, 3.0)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(64,), (64, 64), (33, 48)])
def test_nested_dissection_is_a_permutation(shape):
    order = nested_dissection(shape)
    size = math.prod(shape)
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(size))
    # the seam (a zero index on some axis) is eliminated last
    seam = np.flatnonzero(np.any(np.indices(shape).reshape(len(shape), -1) == 0, axis=0))
    assert np.array_equal(np.sort(order[size - seam.size:]), seam)
    if len(shape) == 1:
        assert np.array_equal(order, np.r_[1:shape[0], 0])


def _workspaces_64():
    """A smooth Newton state at 64^2 with two workspaces on it: one in the
    elimination order, one in natural numbering."""
    pot = cosine((1, 0)) + cosine((0, 1), 1.05).translate((0.0, 0.7))
    H = mechanical_symbol(pot)
    axes = [np.arange(64) * (TWO_PI / 64)] * 2
    sym = effective._GridSymbol(H, axes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effective, "nested_dissection", lambda shape: np.arange(math.prod(shape)))
        natural = effective._GridSymbol(H, axes)
    P, alphas, delta = np.array([1.6, 2.1]), np.array([3.2, 3.6]), 0.03
    ws = effective._CellWorkspace(sym, P, alphas, delta)
    ref = effective._CellWorkspace(natural, P, alphas, delta)
    x1, x2 = np.meshgrid(*axes, indexing="ij")
    u = (0.3 * np.sin(x1 + 0.2) * np.cos(2 * x2) + 0.1 * np.cos(x2)).reshape(-1) - 20.0
    return ws, ref, u


def test_newton_step_in_elimination_order_matches_spsolve():
    ws, ref, u = _workspaces_64()
    F = ws.residual(u)
    J = ref.jacobian(u, math.inf)
    # the residual is quadratic in u, so a central difference is exact
    v = np.random.default_rng(3).standard_normal(u.size)
    dF = 0.5 * (ref.residual(u + v) - ref.residual(u - v))
    assert np.max(np.abs(J @ v - dF)) <= 1e-9 * np.max(np.abs(dF))
    dt = 100.0
    step = ws.newton_step(u, F, dt)
    direct = spsolve((J + sparse.identity(u.size) / dt).tocsc(), F)
    assert np.linalg.norm(step - direct) <= 1e-12 * np.linalg.norm(direct)


def test_nested_dissection_fill_below_colamd():
    ws, ref, u = _workspaces_64()
    lu = splu(ws.jacobian(u, 100.0), permc_spec="NATURAL", diag_pivot_thresh=0.01)
    colamd = splu(ref.jacobian(u, 100.0))
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def _counted_lus(monkeypatch):
    lus = []

    def counting_lu(*args, **kwargs):
        lus.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(effective, "splu", counting_lu)
    return lus


def test_guard_retry_matches_colamd_reference(monkeypatch):
    # with alpha_margin 0.5 the tightened dissipation undershoots the
    # realised slopes, so the Lax-Friedrichs guard fails and the solve is
    # retried with larger alpha; before the retry J + I/dt need not be
    # diagonally dominant, the case the nonzero pivot threshold is kept for
    H = mechanical_symbol(cosine((1, 0)) + cosine((0, 1)))
    monkeypatch.setattr(effective, "_ALPHA_MARGIN", 0.5)
    cascades = []
    cascade = effective._solve_cascade

    def counting(*args, **kwargs):
        cascades.append(1)
        return cascade(*args, **kwargs)

    monkeypatch.setattr(effective, "_solve_cascade", counting)
    lus = _counted_lus(monkeypatch)
    sol = cell_problem_solve(H, (1.5, 1.5), 48)
    assert len(cascades) >= 2
    assert sol.iterations == len(lus)
    monkeypatch.setattr(effective, "splu", lambda A, **_: splu(A))
    reference = cell_problem_solve(H, (1.5, 1.5), 48)
    assert sol.alphas == pytest.approx(reference.alphas, rel=1e-9)
    assert abs(sol.value - reference.value) <= 1e-9


def test_numeric_symbol_slope_by_central_difference():
    # no potential, no table: dH/dp comes from _GridSymbol.slope's central
    # difference, and that Jacobian goes through the same ordered LU
    pot = cosine((1, 0)) + cosine((0, 1), 0.8).translate((0.0, 0.4))
    numeric = PhaseSpaceFunction(
        dim=2, fn=lambda x, eta: 0.5 * np.sum(eta ** 2, axis=-1) + pot.evaluate(x))
    ext = potential_extrema(pot)
    sol = cell_problem_solve(numeric, (1.5, 1.2), 32, v_range=(ext.min_value, ext.max_value))
    exact = cell_problem_solve(mechanical_symbol(pot), (1.5, 1.2), 32)
    assert sol.iterations > 0
    assert abs(sol.value - exact.value) <= 1e-6


def test_newton_counts_only_factoring_steps(monkeypatch):
    H = mechanical_symbol(COS)
    sym = effective._GridSymbol(H, [np.arange(64) * (TWO_PI / 64)])
    ws = effective._CellWorkspace(sym, np.array([1.5]), np.array([3.0]), 0.1)
    lus = _counted_lus(monkeypatch)
    u, nrm, steps = ws.newton(np.zeros(sym.size), 1e-11)
    assert steps == len(lus) > 0
    # a state already within tol takes no step and no factorization
    lus.clear()
    _, again, steps = ws.newton(u, nrm)
    assert (steps, len(lus)) == (0, 0)
    assert again == nrm


@pytest.mark.parametrize("pot, P, grid", [(COS, 2.0, 128),
                                          (cosine((1, 0)) + cosine((0, 1)), (1.5, 1.5), 48)],
                         ids=["1d", "2d"])
def test_cell_counts_one_lu_per_iteration(monkeypatch, pot, P, grid):
    lus = _counted_lus(monkeypatch)
    sol = cell_problem_solve(mechanical_symbol(pot), P, grid)
    assert sol.iterations == len(lus) > 0


def test_workspace_holds_only_the_problem_parameters():
    # the stencil (neighbours, spacings, Jacobian pattern) is the grid
    # symbol's, built once per grid, not once per discounted problem
    sym = effective._GridSymbol(mechanical_symbol(COS), [np.arange(64) * (TWO_PI / 64)])
    ws = effective._CellWorkspace(sym, np.array([1.5]), np.array([3.0]), 0.1)
    assert set(vars(ws)) == {"sym", "P", "alphas", "delta"}


def _shear_map():
    gen = FourierPotential(1, {(1,): -0.05j, (-1,): 0.05j})
    return time_one_map(product_symbol(gen, bump_profile(3.0, 6.0)), 1e-2)


def _count_flowed_points(monkeypatch):
    """Batch sizes of every evaluation of a composed symbol (one flow each)."""
    sizes = []
    apply = SymplecticMap.apply

    def counting(self, X, P):
        sizes.append(len(X))
        return apply(self, X, P)

    monkeypatch.setattr(SymplecticMap, "apply", counting)
    return sizes


def test_invariance_check_builds_one_table_per_map(monkeypatch):
    sizes = _count_flowed_points(monkeypatch)
    invariance_check(mechanical_symbol(COS), _shear_map(), p_values=(0.0, 1.0, 2.0),
                     grid=64, defect_probes=2)
    # the composed symbol is evaluated once, on the whole (x-node, p-node) table
    assert sizes == [64 * effective._TABLE_P_RES]


def test_each_cell_solve_builds_its_own_table(monkeypatch):
    composed = compose_hamiltonian(mechanical_symbol(COS), _shear_map())
    ext = potential_extrema(COS)
    v_range = (ext.min_value, ext.max_value)
    sizes = _count_flowed_points(monkeypatch)
    first = cell_problem_solve(composed, 1.0, 64, v_range=v_range)
    second = cell_problem_solve(composed, 1.0, 64, v_range=v_range)
    # no table outlives its solve: the second call flows its own
    assert sizes == [64 * effective._TABLE_P_RES] * 2
    assert first.value == second.value
