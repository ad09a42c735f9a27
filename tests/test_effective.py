"""Effective Hamiltonian: closed form, cell solver, tables, invariance."""

import dataclasses
import math
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from scipy import interpolate, sparse
from scipy.sparse.linalg import splu, spsolve

from torusspec import effective
from torusspec.dynamics import SymplecticMap, compose_hamiltonian, time_one_map
from torusspec.effective import (CellConvergenceError, EffectiveTable,
                                 action_J, action_threshold, cell_problem_solve,
                                 cell_table, closed_form_table, compute_certificates,
                                 effective_1d, effective_grid, invariance_check,
                                 nested_dissection, write_effective_csv)
from torusspec.potentials import (FourierPotential, TWO_PI, cosine, potential_extrema,
                                  sine, zero_potential)
from torusspec.spectra import weyl_volume
from torusspec.symbols import (PhaseSpaceFunction, bump_profile, mechanical_symbol,
                               product_symbol)

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
    sol = cell_problem_solve(mechanical_symbol(zero_potential(1)), 1.3, 64)
    assert sol.value == pytest.approx(0.845, abs=1e-10)
    assert sol.corrector.residual < 1e-10


def test_cell_cosine_above_plateau():
    sol = cell_problem_solve(mechanical_symbol(COS), 2.0, 256)
    assert abs(sol.value - HBAR_COS[2.0]) < 1e-4
    assert sol.corrector.residual < 1e-2


def test_cell_cosine_plateau_dip():
    # max V = 1 is a grid node, so the flat piece is not undershot
    sol = cell_problem_solve(mechanical_symbol(COS), 0.0, 512)
    assert 1.0 - 3e-2 < sol.value < 1.0 + 1e-9


def test_cell_validation():
    H = mechanical_symbol(COS)
    with pytest.raises(ValueError):
        cell_problem_solve(H, 1.0, 16)
    with pytest.raises(ValueError):
        cell_problem_solve(H, [1.0, 2.0], 64)
    numeric = PhaseSpaceFunction(dim=1, fn=lambda x, eta: 0.5 * eta[:, 0] ** 2)
    with pytest.raises(ValueError, match="mechanical") as exc:
        cell_problem_solve(numeric, 1.0, 64)
    assert "invariance_check" in str(exc.value)
    with pytest.raises(ValueError, match="mechanical"):
        invariance_check(numeric, _shear_map(), (1.0,), 64)


@pytest.mark.parametrize("P", [math.nan, math.inf, -math.inf])
def test_cell_non_finite_momentum_refused(P):
    with pytest.raises(ValueError, match="not finite"):
        cell_problem_solve(mechanical_symbol(COS), P, 32)


def test_cell_nan_residual_refused(monkeypatch):
    # Newton takes no step on a NaN residual; the solve must refuse it
    # rather than return a value from it
    monkeypatch.setattr(effective._GridSymbol, "value",
                        lambda self, pargs: np.full(len(pargs), np.nan))
    with pytest.raises(CellConvergenceError) as exc:
        cell_problem_solve(mechanical_symbol(COS), 1.0, 32)
    assert math.isnan(exc.value.residual)


def test_cell_convergence_error(monkeypatch):
    # Newton steps that go nowhere (J^-1 F = 0 and, on the ergodic problem,
    # J^-1 1 = 1, so neither u nor c moves) use up the step budget on every
    # level, and the finest level's finite residual is refused
    class Idle:
        def solve(self, rhs):
            step = np.zeros_like(rhs)
            if rhs.ndim == 2:
                step[:, 1] = 1.0
            return step

    monkeypatch.setattr(effective, "splu", lambda *args, **kwargs: Idle())
    with pytest.raises(CellConvergenceError, match=r"on the grid of shape \(64,\)") as exc:
        cell_problem_solve(mechanical_symbol(COS), 1.0, 64)
    assert effective._TOL < exc.value.residual < math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("P", [1e8, 1e12, 1e15, 1e20, 1e30, 1e60, 1e100, 1e308])
def test_cell_huge_momentum_refused(P):
    # Hbar(P) = P^2/2 + O(P^-2): up to 1e12 the solve returns it; from 1e15
    # to 1e100 SuperLU finds a Newton Jacobian singular; at 1e308 the
    # residual's rounding floor overflows and leaves no finite tolerance.
    # 1e20 must be right or refused
    H = mechanical_symbol(COS)
    if P <= 1e12 or P == 1e20:
        try:
            value = cell_problem_solve(H, P, 64).value
        except CellConvergenceError:
            assert P == 1e20
        else:
            assert abs(value - 0.5 * P * P) <= 1e-12 * 0.5 * P * P
        return
    with pytest.raises(CellConvergenceError, match="Newton Jacobian|finite tolerance"):
        cell_problem_solve(H, P, 64)


def test_closed_form_table_certificates(cos_closed_table):
    certs = cos_closed_table.certificates
    assert certs.convex
    assert certs.even_defect == 0.0
    assert certs.bound_defect == 0.0
    assert certs.convex_defect <= 1e-12


def test_cell_table_honest_certificates():
    table = cell_table(COS, 2.0, 1.0, 512)
    certs = table.certificates
    # mirrored solves make evenness exact and the values are convex; the
    # plateau sits on max V, a grid node, so the bounds hold to rounding
    assert certs.even_defect == 0.0
    assert certs.convex_defect <= 1e-6
    assert certs.convex
    assert certs.bound_defect <= 1e-12
    assert np.all(np.isfinite(table.residuals))


def test_certificates_flag_violations():
    axis = np.array([-1.0, 0.0, 1.0])
    certs = compute_certificates((axis,), np.array([0.5, 0.9, 0.5]), 0.0)
    assert not certs.convex and certs.convex_defect > 0.0
    certs = compute_certificates((axis,), np.array([0.5, 0.0, 0.6]), 0.0)
    assert certs.even_defect == pytest.approx(0.1)


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


@pytest.mark.parametrize("seed", [39, 75, 143])
def test_invariance_table_route_on_the_plateau(seed):
    # the invariance workload's inputs at seeds whose H o phi table solves
    # stalled at the clipped table edge under a Jacobian shift of 1e-12
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.9, 1.1)
    H = mechanical_symbol(cosine((1,), amp).translate(rng.uniform(0.0, TWO_PI)))
    gen = sine((1,), rng.uniform(0.08, 0.12)).translate(rng.uniform(0.0, TWO_PI))
    phi = time_one_map(product_symbol(gen, bump_profile(3.0, 6.0)), 1e-2)
    rep = invariance_check(H, phi, (0.0, 1.0, 2.0), 128, defect_probes=16)
    assert rep.max_distance <= 1e-10


def test_invariance_report_is_the_same_with_an_all_rk4_generator():
    # the bench's seed-1 inputs; the generator without its eta_cutoff flows
    # every table point through RK4, and every report field must agree
    rng = np.random.default_rng(1)
    amp = rng.uniform(0.9, 1.1)
    H = mechanical_symbol(cosine((1,), amp).translate(rng.uniform(0.0, TWO_PI)))
    gen = sine((1,), rng.uniform(0.08, 0.12)).translate(rng.uniform(0.0, TWO_PI))
    b = product_symbol(gen, bump_profile(3.0, 6.0))
    split, reference = (invariance_check(H, time_one_map(g, 1e-2), (0.0, 1.0, 2.0), 128,
                                         defect_probes=16)
                        for g in (b, dataclasses.replace(b, eta_cutoff=None)))
    assert dataclasses.asdict(split) == dataclasses.asdict(reference)


def test_cell_table_mirrors_only_under_p_to_minus_p():
    # cos(x1 + x2) is even under P -> -P but not under P2 -> -P2 alone:
    # Hbar(1, -1) = 2 exactly, while Hbar(1, 1) sits on the plateau
    pot = cosine((1, 1))
    H = mechanical_symbol(pot)
    table = cell_table(pot, 1.0, 1.0, 48)
    direct = cell_problem_solve(H, (1, -1), 48)
    assert table.values[2, 0] == direct.value
    assert table.values[0, 2] == table.values[2, 0]
    # one diagnostics entry per solve, the mirrored half of the grid excluded
    assert [d["P"] for d in table.diagnostics] == [
        [0.0, 0.0], [0.0, 1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]
    assert table.diagnostics[2] == direct.diagnostics()


def test_cell_table_builds_each_grid_level_once(monkeypatch):
    # the five solves of a 2D table share one _GridSymbol and its halved
    # level, so the 64 and 32 grids are each dissected once, not once per P;
    # the last solve, after four on the shared levels, is still bit for bit
    # its own cell_problem_solve
    shapes = []
    dissect = effective.nested_dissection
    monkeypatch.setattr(effective, "nested_dissection",
                        lambda shape: shapes.append(tuple(shape)) or dissect(shape))
    pot = cosine((1, 0)) + cosine((0, 1))
    table = cell_table(pot, 1.0, 1.0, 64)
    assert len(table.diagnostics) == 5 and shapes == [(64, 64), (32, 32)]
    direct = cell_problem_solve(mechanical_symbol(pot), (1.0, 1.0), 64)
    assert table.diagnostics[-1] == direct.diagnostics()
    assert table.values[2, 2] == direct.value
    assert table.residuals[2, 2] == direct.corrector.residual


@pytest.mark.parametrize("P", [0.0, 1.2, 1.35, 2.0])
def test_cell_1d_ergodic_solve_matches_the_closed_form(P):
    # the upwind slopes solve p^2/2 + V = c node by node, so mean p = P is
    # the trapezoid rule for J(c): no discount error, spectral accuracy
    sol = cell_problem_solve(mechanical_symbol(COS), P, 2048)
    assert abs(sol.value - effective_1d(COS, P)) <= 1e-10


@pytest.mark.parametrize("P", [(0.0, 0.0), (0.0, 1.0), (1.5, 1.5), (1.2, 2.0)])
def test_cell_2d_separable_matches_the_closed_form_sum(P):
    sol = cell_problem_solve(mechanical_symbol(cosine((1, 0)) + cosine((0, 1))), P, 64)
    assert abs(sol.value - effective_1d(COS, P[0]) - effective_1d(COS, P[1])) <= 1e-10


def test_cell_2d_non_separable_plateau_is_max_v():
    # max V = 2.4 at the node x = 0
    pot = cosine((1, 0)) + cosine((0, 1)) + cosine((1, 1), 0.4)
    sol = cell_problem_solve(mechanical_symbol(pot), (0.0, 0.0), 64)
    assert abs(sol.value - 2.4) <= 1e-10


def test_cell_2d_separable_potential():
    pot = cosine((1, 0)) + cosine((0, 1))
    sol = cell_problem_solve(mechanical_symbol(pot), (1.5, 1.5), 48)
    assert abs(sol.value - 2.0 * HBAR_COS[1.5]) < 1.5e-2


@pytest.mark.parametrize("P", [0.0, 1.0])
def test_cell_cosine_on_the_plateau_at_the_default_grid(P):
    # the upwind flux adds no dissipation, so the flat piece is not biased
    sol = cell_problem_solve(mechanical_symbol(COS), P, 256)
    assert abs(sol.value - effective_1d(COS, P)) <= 1e-3


@pytest.mark.parametrize("pot, P, exact", [
    (cosine((1, 0)) + cosine((0, 1)), (0.0, 1.0), 2.0),
    (cosine((1, 0)) + cosine((0, 1)), (1.5, 1.5), 2.0 * HBAR_COS[1.5]),
    # plateau of a non-separable potential: Hbar = max V = 2.4
    (cosine((1, 0)) + cosine((0, 1)) + cosine((1, 1), 0.4), (0.0, 1.0), 2.4),
], ids=["separable-plateau", "separable-off", "non-separable-plateau"])
def test_cell_2d_at_a_coarse_grid(pot, P, exact):
    sol = cell_problem_solve(mechanical_symbol(pot), P, 32)
    assert abs(sol.value - exact) <= 1e-3


@pytest.mark.parametrize("grid", [128, 512])
def test_cell_deep_potential_is_solved(grid):
    # max|u| ~ 1e6 here; the residual tolerances follow its rounding floor
    pot = cosine((1,), 1e4)
    for P in (0.0, 1.0, 5.0):
        sol = cell_problem_solve(mechanical_symbol(pot), P, grid)
        assert abs(sol.value - effective_1d(pot, P)) <= 1e-3
        assert sol.iterations < 300


def test_cell_fine_grid_plateau_within_budget():
    # from u = 0 Newton moves the corrector's kink about one cell per step;
    # the nested start brings it in from the coarse grids
    sol = cell_problem_solve(mechanical_symbol(COS), 1.0, 8192)
    assert sol.iterations <= 200
    assert abs(sol.value - 1.0) <= 1e-3


@pytest.mark.parametrize("dim, m", [(1, 4096), (2, 64)])
def test_cell_grid_beyond_physical_memory_is_refused(monkeypatch, dim, m):
    # the count is every array a _GridSymbol holds, but its dim spacings
    sym = effective._GridSymbol(mechanical_symbol(cosine((1,) * dim)),
                                effective._cell_axes(dim, m))
    held = sum(a.nbytes for v in vars(sym).values()
               for a in (v if isinstance(v, (list, tuple)) else [v])
               if isinstance(a, np.ndarray)) - sym.hs.nbytes
    monkeypatch.setattr(effective, "_physical_memory", lambda: held)
    effective._cell_axes(dim, m)
    monkeypatch.setattr(effective, "_physical_memory", lambda: held - 1)
    with pytest.raises(ValueError, match="physical memory"):
        effective._cell_axes(dim, m)


@pytest.mark.parametrize("dim, m", [(1, 2048), (2, 128), (2, 80)])
def test_halved_axes_are_the_cell_axes(dim, m):
    pot = cosine((1,)) if dim == 1 else cosine((1, 0)) + cosine((0, 2))
    sym = effective._GridSymbol(mechanical_symbol(pot), effective._cell_axes(dim, m))
    half = sym.halved()
    for a, b in zip(half.axes, effective._cell_axes(dim, m // 2)):
        assert np.array_equal(a, b)
    assert np.array_equal(half.vgrid, sym.vgrid.reshape(sym.shape)[(slice(None, None, 2),) * dim]
                          .reshape(-1))


def test_halved_table_matches_the_fine_table_on_even_nodes():
    H = compose_hamiltonian(mechanical_symbol(COS), _shear_map())
    sym = effective._GridSymbol(H, effective._cell_axes(1, 64))
    sym.build_table(-6.0, 6.0, effective._TABLE_P_RES)
    half = sym.halved()
    p = np.linspace(-7.0, 7.0, 32)[:, None]
    assert np.array_equal(half.value(p), sym.value(np.repeat(p, 2, axis=0))[::2])
    assert np.array_equal(half.slope(p), sym.slope(np.repeat(p, 2, axis=0))[::2])
    assert np.array_equal(half.pstar, sym.pstar[::2])
    # p* is the root of the table's dH/dp
    assert np.max(np.abs(sym.slope(sym.pstar))) <= 1e-12
    # the halved symbol is kept until a new table replaces the one it sliced
    assert sym.halved() is half
    sym.build_table(-5.0, 5.0, effective._TABLE_P_RES)
    half = sym.halved()
    assert half.p_range == (-5.0, 5.0)
    assert np.array_equal(half.value(p), sym.value(np.repeat(p, 2, axis=0))[::2])


def test_table_not_convex_in_p_is_refused():
    H = PhaseSpaceFunction(dim=1, fn=lambda x, eta: np.cos(eta[:, 0]) + np.cos(x[:, 0]))
    sym = effective._GridSymbol(H, effective._cell_axes(1, 32))
    with pytest.raises(ValueError, match="not strictly convex"):
        sym.build_table(-3.0, 3.0, effective._TABLE_P_RES)


def test_invariance_check_on_the_plateau():
    rep = invariance_check(mechanical_symbol(COS), _shear_map(), p_values=(0.0, 1.0),
                           grid=128, defect_probes=2)
    exact = effective_1d(COS, np.array([0.0, 1.0]))
    assert np.max(np.abs(np.array(rep.base_values) - exact)) <= 1e-3
    assert np.max(np.abs(np.array(rep.mapped_values) - exact)) <= 1e-3


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
    # the period of J(max V) starts at x* and its panels end at the other
    # local maximum, so tanh-sinh meets the kinks of sqrt(2 (max V - V)) only
    # on panel ends and stops at its first check: 9,225 points, of which
    # 8,193 are the extrema scan and the panel scan.  With one panel over
    # [0, 2 pi] and x* inside it runs to its last level (about 20,000 more
    # points), misses by 7.7e-7 and is refused
    points = []
    evaluate = FourierPotential.evaluate

    def counting(self, x):
        points.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(FourierPotential, "evaluate", counting)
    action_threshold(ROUNDING)
    assert sum(points) <= 10_000


def test_closed_form_plateau_is_exact_max_v():
    # cos x + 0.5 sin 2x has its max 3 sqrt(3)/4 at x = pi/6, between scan points
    table = closed_form_table(COS + sine((2,), 0.5), 2.0, 0.5)
    vmax = 0.75 * math.sqrt(3.0)
    assert abs(table.v_max - vmax) <= 1e-14
    assert abs(table.values[table.axes[0].size // 2] - vmax) <= 1e-14
    assert table.certificates.convex and table.certificates.bound_defect == 0.0


def test_action_J_scans_its_grid_once(monkeypatch):
    # one potential_extrema and one panel scan per call, none inside the
    # quadrature or the action inversion, however many P are inverted
    scans = []
    panels = effective._panels

    def counting_extrema(pot):
        scans.append("extrema")
        return potential_extrema(pot)

    def counting_panels(*args):
        scans.append("panels")
        return panels(*args)

    pot = COS + FourierPotential(1, {(2,): 0.1j, (-2,): -0.1j})
    vmax = potential_extrema(pot).max_value
    monkeypatch.setattr(effective, "potential_extrema", counting_extrema)
    monkeypatch.setattr(effective, "_panels", counting_panels)
    for call in (lambda: action_J(pot, vmax), lambda: action_J(pot, vmax + 0.7),
                 lambda: effective_1d(pot, 3.0),
                 lambda: effective_1d(pot, np.linspace(-3.0, 3.0, 13))):
        call()
        assert scans == ["extrema", "panels"]
        scans.clear()


def test_closed_form_table_evaluates_v_in_few_batches(monkeypatch):
    # one extrema report for the whole P axis, and V evaluated at all nodes
    # of all panels in one call per tanh-sinh level
    calls, extrema = [], []
    evaluate = FourierPotential.evaluate

    def counting(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    def counting_extrema(pot):
        extrema.append(1)
        return potential_extrema(pot)

    monkeypatch.setattr(FourierPotential, "evaluate", counting)
    monkeypatch.setattr(effective, "potential_extrema", counting_extrema)
    table = closed_form_table(COS, 3.0, 0.25)
    assert len(extrema) == 1
    assert len(calls) <= 50
    for p, val in HBAR_COS.items():
        assert table.values[list(table.axes[0]).index(p)] == pytest.approx(val, abs=1e-9)


def _cos_action(energy):
    # J(E) of cos x above the separatrix: (2/pi) sqrt(2(E + 1)) E(2/(E + 1))
    energy = mpmath.mpf(energy)
    return 2 / mpmath.pi * mpmath.sqrt(2 * (energy + 1)) * mpmath.ellipe(2 / (energy + 1))


@pytest.mark.parametrize("offset", [1e-9, 1e-5, 1.0])
def test_action_J_near_the_separatrix_matches_elliptic(offset):
    with mpmath.workdps(40):
        exact = _cos_action(mpmath.mpf(1) + mpmath.mpf(offset))
        assert abs(action_J(COS, 1.0 + offset) - exact) <= 1e-15


def test_effective_1d_array_across_the_plateau_edge():
    # P just below and above J(max V) = 4/pi, where J'(E) diverges
    offsets = np.array([-1e-3, 0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5])
    P = 4.0 / math.pi + offsets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hbar = effective_1d(COS, P)
    assert hbar.shape == P.shape
    with mpmath.workdps(40):
        threshold = 4 / mpmath.pi
        for p, h in zip(P, hbar):
            if p <= threshold:
                exact = mpmath.mpf(1)
            else:
                exact = mpmath.findroot(lambda e: _cos_action(e) - mpmath.mpf(p),
                                        (mpmath.mpf(1), mpmath.mpf(2)), solver="anderson")
            assert abs(h - exact) <= 1e-14
    assert effective_1d(COS, float(P[-1])) == hbar[-1]


@pytest.mark.parametrize("pot,extra", [
    (cosine((2,)), None),
    (cosine((3,)), None),
    # the second maximum lies 2e-7 below the first; 40-digit mpmath reference
    (cosine((2,)) + cosine((1,), 1e-7), "1.27323986130523701533753566510"),
])
def test_action_J_splits_at_every_local_maximum(pot, extra):
    # J(max V) of cos(n x) is 4/pi for every n; the maxima other than x*
    # are panel ends, so no kink lies inside a panel
    exact = 4.0 / math.pi if extra is None else float(extra)
    assert abs(action_threshold(pot) - exact) <= 1e-15


# Vol{V + p^2/2 < E} of ROUNDING at E = max of V on the 4096-point scan from
# 0, 5.1e-9 below max V; 40-digit mpmath over panels between the turning
# points and the other local maximum
ROUNDING_SCANNED_MAX = 2.355956409600385
ROUNDING_SCANNED_VOL = 25.719822297949884326


@pytest.mark.parametrize("energy,exact", [
    (None, 4.0 * math.pi * ROUNDING_J),
    (ROUNDING_SCANNED_MAX, ROUNDING_SCANNED_VOL),
])
def test_weyl_volume_at_an_off_grid_max_v(energy, exact):
    if energy is None:
        energy = potential_extrema(ROUNDING).max_value
    vol = weyl_volume(ROUNDING, -5.0, energy)
    assert abs(vol.value - exact) <= 1e-13
    assert abs(vol.value - exact) <= vol.std_error


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


P64, DELTA64 = np.array([1.6, 2.1]), 0.03


def _grids_64():
    """A smooth Newton state u at 64^2 and two grid symbols for it: one in the
    elimination order, one in natural numbering."""
    pot = cosine((1, 0)) + cosine((0, 1), 1.05).translate((0.0, 0.7))
    H = mechanical_symbol(pot)
    axes = [np.arange(64) * (TWO_PI / 64)] * 2
    sym = effective._GridSymbol(H, axes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effective, "nested_dissection", lambda shape: np.arange(math.prod(shape)))
        natural = effective._GridSymbol(H, axes)
    x1, x2 = np.meshgrid(*axes, indexing="ij")
    u = (0.3 * np.sin(x1 + 0.2) * np.cos(2 * x2) + 0.1 * np.cos(x2)).reshape(-1) - 20.0
    return sym, natural, u


def _discounted(sym, u):
    """delta u + H_G(x, P + Du) at (P64, DELTA64) and its Jacobian."""
    q, back = effective._upwind(sym, P64, u)
    F = DELTA64 * u + sym.value(q)
    return F, effective._jacobian(sym, DELTA64, sym.slope(q), back)


def test_newton_step_in_elimination_order_matches_spsolve(monkeypatch):
    sym, ref, u = _grids_64()
    F, J = _discounted(ref, u)
    # the residual is quadratic in u between upwind switches, so a central
    # difference along a direction that crosses none is exact
    v = 1e-3 * np.random.default_rng(3).standard_normal(u.size)
    for w in (u + v, u - v):
        assert np.array_equal(effective._upwind(ref, P64, w)[1],
                              effective._upwind(ref, P64, u)[1])
    dF = 0.5 * (_discounted(ref, u + v)[0] - _discounted(ref, u - v)[0])
    assert np.max(np.abs(J @ v - dF)) <= 1e-9 * np.max(np.abs(dF))
    # an M-matrix whose row sums are the discount
    off = J - sparse.diags(J.diagonal())
    assert off.max() <= 0.0
    assert np.allclose(J @ np.ones(u.size), 0.03, rtol=0.0, atol=1e-9)
    # the first Newton step of the discounted solve in elimination order: the
    # second upwind pass reads its iterate u - J^-1 F
    iterates = []
    upwind = effective._upwind

    class Stop(Exception):
        pass

    def recording(s, P, w):
        iterates.append(w)
        if len(iterates) == 2:
            raise Stop
        return upwind(s, P, w)

    monkeypatch.setattr(effective, "_upwind", recording)
    with pytest.raises(Stop):
        effective._newton(sym, P64, DELTA64, u)
    step = u - iterates[1]
    direct = spsolve(J.tocsc(), F)
    assert np.linalg.norm(step - direct) <= 1e-12 * np.linalg.norm(direct)


def test_nested_dissection_fill_below_colamd():
    sym, ref, u = _grids_64()
    lu = splu(_discounted(sym, u)[1], permc_spec="NATURAL", diag_pivot_thresh=0.01)
    colamd = splu(_discounted(ref, u)[1])
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def _counted(monkeypatch, owner, name):
    """Calls of owner.name from here on, one entry each."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _counted_lus(monkeypatch):
    return _counted(monkeypatch, effective, "splu")


def test_nested_dissection_solve_matches_colamd_reference(monkeypatch):
    # the whole solve, nested start included, in the elimination order with
    # its pivot threshold against SuperLU's default COLAMD order
    H = mechanical_symbol(cosine((1, 0)) + cosine((0, 1)))
    lus = _counted_lus(monkeypatch)
    sol = cell_problem_solve(H, (1.5, 1.5), 48)
    assert sol.iterations == len(lus) > 0
    colamd = []

    def colamd_lu(A, **_):
        colamd.append(1)
        return splu(A)

    monkeypatch.setattr(effective, "splu", colamd_lu)
    reference = cell_problem_solve(H, (1.5, 1.5), 48)
    assert reference.iterations == len(colamd) == sol.iterations
    assert abs(sol.value - reference.value) <= 1e-9


def test_newton_holds_one_lu_at_a_time(monkeypatch):
    # each factorization is dropped before the next is made: two live LUs
    # raised the peak RSS of the bench's 80^2 cell solves by about 10%
    live = []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def factor(*args, **kwargs):
        assert not any(ref() for ref in live)
        lu = Factor(splu(*args, **kwargs))
        live.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(effective, "splu", factor)
    sol = cell_problem_solve(mechanical_symbol(cosine((1, 0)) + cosine((0, 1))), (1.5, 1.5), 64)
    assert len(live) == sol.iterations > 1


def _sym_64():
    return effective._GridSymbol(mechanical_symbol(COS), [np.arange(64) * (TWO_PI / 64)])


def test_newton_counts_only_factoring_steps(monkeypatch):
    sym, P = _sym_64(), np.array([1.5])
    lus = _counted_lus(monkeypatch)
    u, nrm, floor, steps = effective._newton(sym, P, 0.1, np.zeros(sym.size))
    assert steps == len(lus) > 0
    # the rounding floor is the returned iterate's:
    # eps (1 + max|u|) (delta + max|H_p| / h), H_p = q for |p|^2/2 + V
    q = effective._upwind(sym, P, u)[0]
    slopes = float(np.sum(np.max(np.abs(q), axis=0) / sym.hs))
    assert floor == np.finfo(float).eps * (1.0 + float(np.max(np.abs(u)))) * (0.1 + slopes)
    # a state already within tol takes no step and no factorization
    lus.clear()
    _, again, same, steps = effective._newton(sym, P, 0.1, u)
    assert (steps, len(lus)) == (0, 0)
    assert (again, same) == (nrm, floor)


def test_newton_forms_the_upwind_arguments_once_per_iterate(monkeypatch):
    sym = _sym_64()
    calls = _counted(monkeypatch, effective, "_upwind")
    _, _, _, steps = effective._newton(sym, np.array([1.5]), 0.1, np.zeros(sym.size))
    # the start and each iterate: residual, floor and Jacobian share them
    assert len(calls) == steps + 1 and steps > 0


def test_newton_forms_the_slopes_once_per_iterate(monkeypatch):
    sym, P = _sym_64(), np.array([1.5])
    calls = _counted(monkeypatch, effective._GridSymbol, "slope")
    u, _, _, steps = effective._newton(sym, P, 0.1, np.zeros(sym.size))
    # the rounding floor and the Jacobian share one slope per iterate
    assert len(calls) == steps + 1 and steps > 0
    calls.clear()
    mean = float(np.mean(u))
    _, _, _, steps = effective._newton(sym, P, effective._SHIFT, u - mean, -0.1 * mean)
    assert len(calls) == steps + 1 and steps > 0


@pytest.mark.parametrize("pot, P, grid", [(COS, 2.0, 128),
                                          (cosine((1, 0)) + cosine((0, 1)), (1.5, 1.5), 48)],
                         ids=["1d", "2d"])
def test_cell_counts_one_lu_per_iteration(monkeypatch, pot, P, grid):
    lus = _counted_lus(monkeypatch)
    sol = cell_problem_solve(mechanical_symbol(pot), P, grid)
    assert sol.iterations == len(lus) > 0


@pytest.mark.parametrize("shape", [(64,), (33,), (32, 32), (33, 35)])
def test_jacobian_is_the_coo_assembly_converted_to_csc(shape):
    # the grid symbol's CSC permutation, indices and indptr give the matrix
    # that coo_matrix(...).tocsc() gives from the stencil's COO pattern
    # (diagonal, then the +/- neighbours per axis, in elimination order), bit
    # for bit, on even and odd grids
    dim = len(shape)
    pot = cosine((1,) * dim) + (sine((1, 2), 0.3) if dim == 2 else sine((2,), 0.3))
    sym = effective._GridSymbol(mechanical_symbol(pot), effective._cell_axes(dim, shape))
    P = np.full(dim, 0.7)
    q, back = effective._upwind(sym, P, np.random.default_rng(17).normal(size=sym.size))
    assert 0 < np.count_nonzero(back) < back.size
    J = effective._jacobian(sym, 0.1, sym.slope(q), back)
    w = sym.slope(q) / sym.hs
    wa = np.where(back, w, 0.0)
    wb = w - wa
    data = [0.1 + np.sum(wa - wb, axis=1)]
    for i in range(dim):
        data += [wb[:, i], -wa[:, i]]
    nbrs = [sym.rank[nb[i]] for i in range(dim) for nb in (sym.ip, sym.im)]
    pattern = (np.tile(sym.rank, 2 * dim + 1), np.concatenate([sym.rank] + nbrs))
    ref = sparse.coo_matrix((np.concatenate(data), pattern), shape=(sym.size, sym.size)).tocsc()
    assert J.format == "csc" and J.shape == ref.shape
    assert np.array_equal(J.data.view(np.uint64), ref.data.view(np.uint64))
    assert np.array_equal(J.indices, ref.indices) and np.array_equal(J.indptr, ref.indptr)


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
    rep = invariance_check(mechanical_symbol(COS), _shear_map(), p_values=(0.0, 1.0, 2.0),
                           grid=64, defect_probes=2)
    # one table for all P: 32 x-nodes, whose nested estimate misses, then the
    # 32 odd nodes that complete the solver grid (the cap); each batch holds
    # every p-node
    assert sizes == [32 * effective._TABLE_P_RES] * 2
    assert rep.table_nodes == 64 and math.isnan(rep.table_estimate)


def test_each_invariance_check_builds_its_own_table(monkeypatch):
    sizes = _count_flowed_points(monkeypatch)
    first, second = (invariance_check(mechanical_symbol(COS), _shear_map(), p_values=(1.0,),
                                      grid=64, defect_probes=2) for _ in range(2))
    # no table outlives its call: the second call flows its own
    assert sizes == [32 * effective._TABLE_P_RES] * 4
    assert first.mapped_values == second.mapped_values


def test_invariance_table_flows_half_the_grid_at_128(monkeypatch):
    sizes = _count_flowed_points(monkeypatch)
    rep = invariance_check(mechanical_symbol(COS), _shear_map(), p_values=(0.0, 1.0),
                           grid=128, defect_probes=2)
    # 32 nodes, then 32 more; the 64-node estimate is at rounding level, so
    # the table is resampled onto the 128 solver nodes (128 x 256 flowed
    # points before the nested grid)
    assert sizes == [32 * effective._TABLE_P_RES] * 2
    assert sum(sizes) == 64 * effective._TABLE_P_RES
    assert rep.table_nodes == 64 and rep.table_estimate <= effective._TABLE_TOL


@pytest.mark.parametrize("m, n", [(16, 40), (32, 128), (12, 13)])
def test_resample_keeps_a_trig_polynomial_with_the_nyquist_mode(m, n):
    def f(x):
        # cos(m x / 2) is the Nyquist mode of m nodes; its sine vanishes there
        return 1.0 + 0.3 * np.cos(x) - 0.2 * np.sin(3 * x) + 0.5 * np.cos(m // 2 * x)

    coarse = f(np.arange(m) * (TWO_PI / m))
    fine = effective._resample(np.stack([coarse, 2.0 * coarse]), n)
    exact = f(np.arange(n) * (TWO_PI / n))
    assert np.max(np.abs(fine - np.stack([exact, 2.0 * exact]))) <= 1e-14


def _bench_like_composed():
    H = mechanical_symbol(cosine((1,), 1.05).translate(0.4))
    gen = sine((1,), 0.11).translate(2.0)
    return compose_hamiltonian(H, time_one_map(product_symbol(gen, bump_profile(3.0, 6.0)),
                                               1e-2))


def _table_and_direct_flow(grid, H=None, band=2, p_range=(-6.0, 8.0),
                           res=effective._TABLE_P_RES):
    """The table of H o phi (bench-like by default, whose x-band is 1 + 1)
    on ``grid`` x-nodes, and the values of one direct flow of every (solver
    x-node, p-node) pair."""
    H = _bench_like_composed() if H is None else H
    sym = effective._GridSymbol(H, effective._cell_axes(1, grid), band)
    sym.build_table(*p_range, res)
    pg = np.linspace(*p_range, res)
    x = sym.xpts[:, 0]
    direct = np.asarray(H.fn(np.tile(x, pg.size)[:, None], np.repeat(pg, grid)[:, None]))
    return sym, pg, direct.reshape(pg.size, grid)


@pytest.mark.parametrize("grid", [128, 96])
def test_coarse_table_matches_the_full_flow(grid):
    sym, _, direct = _table_and_direct_flow(grid)
    # 96 is not 32 2^k: 32 and 64 nodes are flowed, then resampled onto 96
    assert sym.table_nodes == 64 and sym.table_estimate <= effective._TABLE_TOL
    # the spline's constant coefficients are the table's values at every
    # p-node but the last
    assert np.max(np.abs(sym.coef[-1] - direct[:-1])) <= 1e-10


def test_table_at_the_cap_is_the_full_flow():
    sym, pg, direct = _table_and_direct_flow(64)
    assert sym.table_nodes == 64 and math.isnan(sym.table_estimate)
    assert np.array_equal(sym.coef, interpolate.CubicSpline(pg, direct, axis=0).c)


def test_table_starts_at_four_nodes_per_period_of_the_band():
    # below |p| = 3 the shear's bump is flat: phi moves only p, so
    # cos(32 x) reaches H o phi unspread, and it is 1 on every node of the
    # 32-node level and of its 16-node half alike
    H = compose_hamiltonian(mechanical_symbol(cosine((32,))), _shear_map())
    kw = dict(H=H, p_range=(-2.5, 2.5), res=32)
    blind, _, direct = _table_and_direct_flow(512, band=2, **kw)
    assert blind.table_nodes == 32 and blind.table_estimate <= effective._TABLE_TOL
    assert np.max(np.abs(blind.coef[-1] - direct[:-1])) > 1.0
    # 4 (32 + 1) nodes at least: the first level is 256, its half holds cos(32 x)
    sym, _, direct = _table_and_direct_flow(512, band=33, **kw)
    assert sym.table_nodes == 256 and sym.table_estimate <= effective._TABLE_TOL
    assert np.max(np.abs(sym.coef[-1] - direct[:-1])) <= 1e-10


def test_invariance_check_starts_the_table_at_the_band(monkeypatch):
    sizes = _count_flowed_points(monkeypatch)
    pot = cosine((1,)) + cosine((32,), 0.01)
    rep = invariance_check(mechanical_symbol(pot), _shear_map(), p_values=(0.0, 2.0),
                           grid=512, defect_probes=2)
    # the band of V and of the generator is 32 + 1: one batch of 256 x-nodes,
    # whose estimate is at rounding level
    assert sizes == [256 * effective._TABLE_P_RES]
    assert rep.table_nodes == 256 and rep.table_estimate <= effective._TABLE_TOL
    assert rep.max_distance <= 1e-6


def test_table_without_a_band_flows_the_solver_grid(monkeypatch):
    sizes = _count_flowed_points(monkeypatch)
    sym, pg, direct = _table_and_direct_flow(128, band=None, res=32)
    # the table's one batch, then the direct flow it is compared with
    assert sizes == [128 * 32] * 2 and sym.table_nodes == 128
    assert math.isnan(sym.table_estimate)
    assert np.array_equal(sym.coef, interpolate.CubicSpline(pg, direct, axis=0).c)


def test_non_dyadic_grid_at_the_cap_flows_the_coarse_levels_too(monkeypatch):
    # a generator ten times the shear's: the estimate misses at 32 and at 64
    # nodes, and 128 passes 96, so the 96 solver nodes are flowed as well
    phi = time_one_map(product_symbol(sine((1,), 1.0), bump_profile(3.0, 6.0)), 1e-2)
    H = compose_hamiltonian(mechanical_symbol(COS), phi)
    sizes = _count_flowed_points(monkeypatch)
    sym, pg, direct = _table_and_direct_flow(96, H=H, p_range=(-2.5, 2.5), res=32)
    # 32 + 32 + 96 = 160 x-nodes for the table, then the direct flow
    assert sizes == [32 * 32, 32 * 32, 96 * 32, 96 * 32]
    assert sym.table_nodes == 96 and math.isnan(sym.table_estimate)
    assert np.array_equal(sym.coef, interpolate.CubicSpline(pg, direct, axis=0).c)
