"""Effective Hamiltonians by homogenization of the cell problem.

Two routes are implemented and kept strictly separate so they can be
cross-checked: the one-dimensional closed form built on the action integral
J(E) = (2 pi)^-1 integral sqrt(2(E - V)) dx (flat plateau at max V for
|P| <= J(max V), inverse of J above it), and a grid solver for the cell
problem H(x, P + Du) = Hbar(P) in any dimension.  The plateau, the lower
bound Hbar >= max V and the solver's dissipation box read the exact max V.

The grid solver discretises with the monotone Lax-Friedrichs numerical
Hamiltonian (Kao, Osher & Qian, J. Comput. Phys. 196, 2004), adds a
vanishing discount term delta*u, solves each discounted problem by
pseudo-transient Newton on the sparse system, and extrapolates
-delta*u_delta -> Hbar(P) linearly in delta.  A discounted problem that
Newton leaves above the residual tolerance is refused with
CellConvergenceError; there is no second solver.

Each Newton step, rejected trial steps included, factors J + I/dt with
SuperLU in a fixed geometric nested-dissection order of the grid (George,
SIAM J. Numer. Anal. 10, 1973): the periodic seam last, the open box before
it bisected recursively.  On 2D grids this cuts the L+U fill of SuperLU's
default COLAMD order by 40-50%.  Rows pivot only when the diagonal falls
below 0.01 of its column's largest entry; once the Lax-Friedrichs guard
holds, J + I/dt is diagonally dominant.

The scheme constants are fixed: discounts delta = 0.1, 0.03, 0.01 (Hbar
extrapolates from the last two); discounted residual 1e-6 in sup-norm and
Newton tolerance 1e-11; at most 900 Newton steps per discount; dissipation
tightened to 1.2 times the realised slope plus 0.05; interpolation tables
padded by 2 in p with 256 nodes.  Table certificates hold to 1e-6.  The
fixed tolerances that consume these results live with their checks:
``theorem2_check`` (spectra 1e-8 (1+|E|), Hbar 5e-3) and ``egorov_scaling``
(exact at 1e-8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import interpolate, optimize, sparse
from scipy.sparse.linalg import splu

from .dynamics import compose_hamiltonian, symplectic_defect
from .potentials import TWO_PI, FourierPotential, _grid_points, _trig_sum, potential_extrema
from .spectra import _momentum_integral, write_csv
from .symbols import PhaseSpaceFunction, _central_difference, mechanical_symbol

_MIN_GRID = 32

# scheme constants of the discounted Lax-Friedrichs solve (module docstring)
_DELTAS = (1e-1, 3e-2, 1e-2)
_TOL = 1e-6             # required sup-norm of the discounted residual
_NEWTON_TOL = 1e-11
_ALPHA_MARGIN = 1.2
_TABLE_P_PAD = 2.0      # momentum padding of interpolation tables
_TABLE_P_RES = 256
_CERT_TOL = 1e-6


class CellConvergenceError(RuntimeError):
    """Discounted cell problem failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# closed form in one dimension
# ---------------------------------------------------------------------------


def _action(pot: FourierPotential, energy: float, ext) -> float:
    """J(E), E >= max V, over the period from the argmax in the report ``ext``."""
    return _momentum_integral(pot, energy, ext.argmax, [ext.max_value])[0] / TWO_PI


def action_J(pot: FourierPotential, energy: float) -> float:
    """J(E) = (2 pi)^-1 integral_0^2pi sqrt(2 (E - V(x))) dx, for E >= max V.

    Energies within 1e-12 below max V are clamped; anything lower is
    rejected.
    """
    if pot.dim != 1:
        raise ValueError("action integral is one-dimensional")
    ext = potential_extrema(pot)
    energy = float(energy)
    if energy < ext.max_value - 1e-12:
        raise ValueError(f"energy {energy} below max V = {ext.max_value}")
    return _action(pot, max(energy, ext.max_value), ext)


def action_threshold(pot: FourierPotential) -> float:
    """J(max V): half-width of the flat plateau of the effective Hamiltonian."""
    return action_J(pot, potential_extrema(pot).max_value)


def effective_1d(pot: FourierPotential, P: float) -> float:
    """Closed-form Hbar(P): max V on the plateau, J^{-1}(|P|) outside.

    The extrema come from one ``potential_extrema`` per call.  The inversion
    is by root bracketing on the strictly increasing branch; the returned
    energy satisfies |J(E) - |P|| <= 1e-9.
    """
    if pot.dim != 1:
        raise ValueError("closed form is one-dimensional")
    ext = potential_extrema(pot)
    vmax = ext.max_value
    p_abs = abs(float(P))
    if p_abs <= _action(pot, vmax, ext) + 1e-14:
        return vmax
    hi = vmax + 0.5 * p_abs * p_abs + 1.0
    energy = optimize.brentq(lambda e: _action(pot, e, ext) - p_abs, vmax, hi,
                             xtol=1e-12, rtol=8.9e-16, maxiter=200)
    if abs(_action(pot, energy, ext) - p_abs) > 1e-9:
        raise ArithmeticError("action inversion missed its tolerance")
    return float(energy)


# ---------------------------------------------------------------------------
# cell-problem solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corrector:
    """Mean-zero corrector of one cell problem on its solver grid."""

    P: np.ndarray
    axes: tuple
    values: np.ndarray
    residual: float       # sup |H_LF(x, P + Du) - Hbar|


@dataclass(frozen=True)
class CellSolution:
    value: float
    corrector: Corrector
    discount_values: tuple
    alphas: tuple
    iterations: int       # Newton steps, each one sparse LU factorization


_ND_LEAF = 16   # boxes of at most this many cells keep their natural order


def nested_dissection(shape) -> np.ndarray:
    """Elimination order of the periodic grid ``shape`` (C-order indices).

    The seam (every cell with a zero index) comes last; removing it leaves
    an open box without wrap-around neighbours, which is bisected across its
    longest axis: first half, second half, then the separating slab,
    recursively down to leaves of ``_ND_LEAF`` cells or a single line of
    cells.  A line is a chain, which natural order eliminates without fill,
    so in 1D the order is the chain 1..m-1 followed by node 0.
    """
    idx = np.arange(math.prod(shape)).reshape(shape)
    box = (slice(1, None),) * len(shape)
    order = []

    def dissect(block):
        if block.size <= _ND_LEAF or sum(m > 1 for m in block.shape) <= 1:
            order.append(block.reshape(-1))
            return
        ax = int(np.argmax(block.shape))
        mid = block.shape[ax] // 2
        first, sep, second = np.split(block, [mid, mid + 1], axis=ax)
        dissect(first)
        dissect(second)
        order.append(sep.reshape(-1))

    dissect(idx[box])
    seam = np.ones(shape, dtype=bool)
    seam[box] = False
    order.append(idx[seam])
    return np.concatenate(order)


class _GridSymbol:
    """Evaluator of H and dH/dp_i on the fixed solver x-grid, with the
    grid's stencil and its elimination order for the Newton LU."""

    def __init__(self, H: PhaseSpaceFunction, axes):
        self.H = H
        self.dim = H.dim
        self.axes = tuple(axes)
        self.shape = tuple(a.size for a in self.axes)
        self.xpts = _grid_points(self.axes)
        # cell order[k] is unknown k of the factored system; rank inverts it
        self.order = nested_dissection(self.shape)
        self.rank = np.argsort(self.order)
        self.size = self.order.size
        self.hs = [TWO_PI / m for m in self.shape]
        idx = np.arange(self.size).reshape(self.shape)
        self.ip = [np.roll(idx, -1, axis=i).reshape(-1) for i in range(self.dim)]
        self.im = [np.roll(idx, 1, axis=i).reshape(-1) for i in range(self.dim)]
        # COO pattern of the Jacobian (diagonal, then +/- neighbours per axis)
        # in elimination-order numbering
        nbrs = [self.rank[nb[i]] for i in range(self.dim) for nb in (self.ip, self.im)]
        self.pattern = (np.tile(self.rank, 2 * self.dim + 1),
                        np.concatenate([self.rank] + nbrs))
        self.mechanical = H.potential is not None
        self.vgrid = None
        self.spline = None
        self.p_range = None
        if self.mechanical:
            self.vgrid = H.potential.evaluate(self.xpts).reshape(-1)

    def build_table(self, p_lo: float, p_hi: float, res: int):
        """Cubic interpolation in p at every x-node (expensive symbols, 1D).

        The whole (x-node, p-node) product goes through the symbol in one
        batched call; for flow-composed symbols that means a single flow of
        the full table instead of one per p-node.  The table belongs to this
        instance: asking again for the same range and resolution is free, so
        solves of several P on one instance pay once.
        """
        if self.dim != 1:
            raise ValueError("interpolation tables support one dimension")
        if self.p_range == (p_lo, p_hi) and self.spline.x.size == res:
            return
        nx = self.xpts.shape[0]
        pg = np.linspace(p_lo, p_hi, res)
        xx = np.tile(self.xpts, (pg.size, 1))
        ee = np.repeat(pg, nx)[:, None]
        vals = np.asarray(self.H.fn(xx, ee)).reshape(pg.size, nx)
        self.spline = interpolate.CubicSpline(pg, vals, axis=0)
        self.spline_d = self.spline.derivative()
        self.p_range = (p_lo, p_hi)

    def _table(self, coef, pargs):
        """Piecewise polynomial ``coef`` (one column per x-node) at (x_j, p_j),
        p clipped into the table range."""
        p = np.clip(pargs[:, 0], *self.p_range)
        knots = self.spline.x
        i = np.clip(np.searchsorted(knots, p) - 1, 0, knots.size - 2)
        t = p - knots[i]
        cols = np.arange(p.size)
        out = coef[0, i, cols]
        for c in coef[1:]:
            out = out * t + c[i, cols]
        return out

    def value(self, pargs):
        """H(x_j, p_j) over the grid; pargs has shape (cells, dim)."""
        if self.mechanical:
            return 0.5 * np.sum(pargs ** 2, axis=-1) + self.vgrid
        if self.spline is not None:
            return self._table(self.spline.c, pargs)
        return np.asarray(self.H.fn(self.xpts, pargs)).reshape(-1)

    def slope(self, pargs):
        """dH/dp_i at (x_j, p_j), shape (cells, dim)."""
        if self.mechanical:
            return pargs.copy()
        if self.spline is not None:
            return self._table(self.spline_d.c, pargs)[:, None]
        return _central_difference(lambda p: self.H.fn(self.xpts, p), pargs)


def _alpha_box(P, v_min: float, v_max: float) -> float:
    spread = max(v_max + 0.5 * float(np.dot(P, P)) - v_min, 0.0)
    return float(np.linalg.norm(P)) + math.sqrt(2.0 * spread) + 1.0


class _CellWorkspace:
    """One discounted problem (P, dissipation, discount) on the grid of
    ``sym``: residual, Jacobian and Newton solve."""

    def __init__(self, sym: _GridSymbol, P, alphas, delta):
        self.sym = sym
        self.P = np.asarray(P, dtype=float)
        self.alphas = np.asarray(alphas, dtype=float)
        self.delta = float(delta)

    def _pargs(self, u):
        sym = self.sym
        cols = []
        for i in range(sym.dim):
            cols.append(self.P[i] + (u[sym.ip[i]] - u[sym.im[i]]) / (2 * sym.hs[i]))
        return np.stack(cols, axis=-1)

    def residual(self, u):
        sym = self.sym
        pargs = self._pargs(u)
        F = self.delta * u + sym.value(pargs)
        for i in range(sym.dim):
            lap = (u[sym.ip[i]] - 2 * u + u[sym.im[i]]) / (2 * sym.hs[i])
            F -= self.alphas[i] * lap
        return F

    def numerical_hamiltonian(self, u):
        """H_LF(x, P + Du) including the dissipation, as an array."""
        return self.residual(u) - self.delta * u

    def jacobian(self, u, dt):
        """J + I/dt as CSC, rows and columns in the grid's elimination order."""
        sym = self.sym
        hp = sym.slope(self._pargs(u))
        data = [np.full(sym.size, self.delta + sum(self.alphas[i] / sym.hs[i]
                                                   for i in range(sym.dim)) + 1.0 / dt)]
        for i in range(sym.dim):
            data.append(hp[:, i] / (2 * sym.hs[i]) - self.alphas[i] / (2 * sym.hs[i]))
            data.append(-hp[:, i] / (2 * sym.hs[i]) - self.alphas[i] / (2 * sym.hs[i]))
        return sparse.coo_matrix((np.concatenate(data), sym.pattern),
                                 shape=(sym.size, sym.size)).tocsc()

    def newton_step(self, u, F, dt):
        """(J + I/dt)^{-1} F from one LU factorization in elimination order."""
        lu = splu(self.jacobian(u, dt), permc_spec="NATURAL", diag_pivot_thresh=0.01)
        return lu.solve(F[self.sym.order])[self.sym.rank]

    def realized_slope(self, u):
        return np.max(np.abs(self.sym.slope(self._pargs(u))), axis=0)

    def newton(self, u0, tol):
        """Pseudo-transient Newton: (J + I/dt) steps with dt grown as the
        residual falls, at most 900.  Plain damped Newton crawls here because
        the sup-norm is a poor merit function for transport-dominated
        residuals.  Returns the iterate, its residual norm and the steps
        taken; every step, rejected trials included, is one LU
        factorization.  A NaN residual ends the loop at once and is returned
        for the caller to refuse."""
        u = u0.copy()
        F = self.residual(u)
        nrm = float(np.max(np.abs(F)))
        dt = 10.0
        steps = 0
        stall = 0
        scale = self.delta + float(np.sum(self.alphas / np.asarray(self.sym.hs)))
        while steps < 900 and nrm > tol:
            trial = u - self.newton_step(u, F, dt)
            steps += 1
            Ft = self.residual(trial)
            nt = float(np.max(np.abs(Ft)))
            if not np.isfinite(nt) or nt > 2.0 * nrm:
                dt = max(dt / 4.0, 1e-8)
                continue
            # the mean of u is O(1/delta), so residual evaluations carry a
            # rounding floor ~ eps*|u|*alpha/h; treat no-progress steps as a
            # stall only near that floor, otherwise the front is still moving
            floor = np.finfo(float).eps * (1.0 + float(np.max(np.abs(u)))) * scale
            stall = stall + 1 if (nt > 0.9 * nrm and nrm <= 1e3 * floor) else 0
            u, F = trial, Ft
            dt = min(dt * max(nrm / max(nt, 1e-300), 1.5), 1e12)
            nrm = nt
            if stall >= 6:
                break
        return u, nrm, steps


def _solve_cascade(sym: _GridSymbol, P, alphas, u_init=None, init_delta=None):
    """All discounted problems for one P and one dissipation choice."""
    c_values = []
    u = u_init
    prev_delta = init_delta
    total_steps = 0
    final = None
    for delta in _DELTAS:
        ws = _CellWorkspace(sym, P, alphas, delta)
        if u is None:
            u0 = np.zeros(sym.size)
        else:
            # mean scales like 1/delta, the oscillating part barely moves
            mean = float(np.mean(u))
            u0 = (u - mean) + mean * ((prev_delta or delta) / delta)
        u, res, steps = ws.newton(u0, _NEWTON_TOL)
        total_steps += steps
        if not res <= _TOL:     # a NaN residual fails too
            raise CellConvergenceError(
                f"cell residual {res:.3e} above {_TOL} at delta={delta}", res)
        c_values.append(-delta * float(np.mean(u)))
        prev_delta = delta
        final = (ws, u)
    return c_values, final, total_steps


def _cell_axes(dim: int, grid) -> list:
    """Uniform torus grid axes, ``grid`` points per axis (or one per axis)."""
    shape = (int(grid),) * dim if np.isscalar(grid) else tuple(int(g) for g in grid)
    if min(shape) < _MIN_GRID:
        raise ValueError(f"grid below {_MIN_GRID} per axis is rejected")
    return [np.arange(m) * (TWO_PI / m) for m in shape]


def _value_range(H: PhaseSpaceFunction, v_range=None):
    """(min V, max V): exact for mechanical symbols, else ``v_range``."""
    if H.potential is not None:
        rep = potential_extrema(H.potential)
        return rep.min_value, rep.max_value
    if v_range is None:
        raise ValueError("numeric symbols need v_range=(min V, max V)")
    return v_range


def cell_problem_solve(H: PhaseSpaceFunction, P, grid: int, *,
                       v_range=None) -> CellSolution:
    """Solve the cell problem for one P on a uniform torus grid.

    Returns the extrapolated Hbar(P) together with the mean-zero corrector
    at the smallest discount and the sup-norm residual of the discrete cell
    equation.  Raises CellConvergenceError if any discounted solve misses
    the residual tolerance within its Newton steps.  A numeric symbol
    (one without a potential) needs ``v_range=(min V, max V)`` to bound its
    dissipation.  A symbol flagged expensive is tabulated afresh on every
    call (see ``invariance_check`` for one table shared by several P).
    """
    axes = _cell_axes(H.dim, grid)
    v_min, v_max = _value_range(H, v_range)
    return _solve_on(_GridSymbol(H, axes), P, v_min, v_max)


def _solve_on(sym: _GridSymbol, P, v_min: float, v_max: float,
              p_range=None) -> CellSolution:
    """One P on the grid of ``sym``.  Expensive symbols go through the
    instance's interpolation table over ``p_range``, by default the
    Lax-Friedrichs box around P."""
    n = sym.dim
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if P.shape != (n,):
        raise ValueError("P does not match the symbol dimension")
    if not np.all(np.isfinite(P)):
        raise ValueError(f"P = {P.tolist()} is not finite")
    if sym.H.expensive:
        if p_range is None:
            box = _alpha_box(P, v_min, v_max)
            p_range = (float(np.min(P)) - box - _TABLE_P_PAD,
                       float(np.max(P)) + box + _TABLE_P_PAD)
        sym.build_table(*p_range, _TABLE_P_RES)

    # presolve the largest discount with the conservative box dissipation,
    # then shrink alpha to the gradient range the solution actually visits
    alphas = np.full(n, _alpha_box(P, v_min, v_max))
    ws0 = _CellWorkspace(sym, P, alphas, _DELTAS[0])
    u_warm, res0, total = ws0.newton(np.zeros(sym.size), _NEWTON_TOL)
    warm_delta = None
    if res0 <= _TOL:
        alphas = np.maximum(_ALPHA_MARGIN * ws0.realized_slope(u_warm) + 0.05, 0.5)
        warm_delta = _DELTAS[0]
    else:
        u_warm = None
    for _ in range(3):
        c_values, (ws, u), steps = _solve_cascade(
            sym, P, alphas, u_init=u_warm, init_delta=warm_delta)
        total += steps
        # guard: the dissipation must dominate the realised slopes
        realized = ws.realized_slope(u)
        if np.all(realized <= alphas + 1e-9):
            break
        alphas = np.maximum(_ALPHA_MARGIN * realized + 0.05, alphas * 1.5)
        u_warm, warm_delta = None, None

    (d1, d2), (c1, c2) = _DELTAS[-2:], c_values[-2:]
    value = (d1 * c2 - d2 * c1) / (d1 - d2)

    w = u - float(np.mean(u))
    ham = ws.numerical_hamiltonian(w)
    residual = float(np.max(np.abs(ham - value)))
    corr = Corrector(P=P.copy(), axes=sym.axes, values=w.reshape(sym.shape),
                     residual=residual)
    return CellSolution(value=float(value), corrector=corr,
                        discount_values=tuple(c_values),
                        alphas=tuple(float(a) for a in alphas),
                        iterations=total)


# ---------------------------------------------------------------------------
# tables, certificates, sublevel sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableCertificates:
    convex: bool
    convex_defect: float
    even_defect: float
    bound_defect: float

    def to_dict(self) -> dict:
        return {
            "convex": bool(self.convex),
            "convex_defect": self.convex_defect,
            "even_defect": self.even_defect,
            "bound_defect": self.bound_defect,
        }


@dataclass(frozen=True)
class EffectiveTable:
    """Hbar sampled on a symmetric uniform P-grid, with certificates."""

    dim: int
    axes: tuple                  # per-axis P values, symmetric about 0
    values: np.ndarray
    method: str
    residuals: Optional[np.ndarray]
    certificates: Optional[TableCertificates]
    v_max: float

    def points(self) -> np.ndarray:
        return _grid_points(self.axes)


def _p_axis(p_max: float, dp: float) -> np.ndarray:
    m = int(round(p_max / dp))
    if m < 1 or abs(m * dp - p_max) > 1e-9:
        raise ValueError("P_max must be an integer multiple of the step")
    return dp * np.arange(-m, m + 1)


def _directions(reach) -> list:
    """Primitive lattice steps v with |v_i| <= reach[i], one of each pair
    +/-v (the one whose first nonzero component is positive)."""
    dirs = []
    for v in itertools.product(*(range(-r, r + 1) for r in reach)):
        nonzero = [c for c in v if c]
        if nonzero and nonzero[0] > 0 and math.gcd(*v) == 1:
            dirs.append(v)
    return dirs


def compute_certificates(axes, values, v_max: float) -> TableCertificates:
    values = np.asarray(values, dtype=float)
    dim = len(axes)
    # midpoint convexity along every grid line (axes and diagonals)
    convex_defect = -math.inf
    for d in _directions((1,) * dim):
        lo = values
        for ax, step in enumerate(d):
            if step:
                lo = np.roll(lo, step, axis=ax)
        hi = values
        for ax, step in enumerate(d):
            if step:
                hi = np.roll(hi, -step, axis=ax)
        mid = values - 0.5 * (lo + hi)
        # drop wrapped rows: only interior triples count
        mask = np.ones_like(values, dtype=bool)
        for ax, step in enumerate(d):
            if step:
                sl = [slice(None)] * dim
                sl[ax] = 0
                mask[tuple(sl)] = False
                sl[ax] = -1
                mask[tuple(sl)] = False
        if np.any(mask):
            convex_defect = max(convex_defect, float(np.max(mid[mask])))
    even_defect = float(np.max(np.abs(values - values[tuple(slice(None, None, -1)
                                                            for _ in range(dim))])))
    pts = _grid_points(axes)
    upper = 0.5 * np.sum(pts ** 2, axis=1) + v_max
    flat = values.reshape(-1)
    bound_defect = max(float(np.max(v_max - flat)), float(np.max(flat - upper)))
    bound_defect = max(bound_defect, 0.0)
    convex = all(d <= _CERT_TOL for d in (convex_defect, even_defect, bound_defect))
    return TableCertificates(convex=convex, convex_defect=convex_defect,
                             even_defect=even_defect, bound_defect=bound_defect)


def closed_form_table(pot: FourierPotential, p_max: float, dp: float) -> EffectiveTable:
    """1D table from the action closed form."""
    axis = _p_axis(p_max, dp)
    vmax = potential_extrema(pot).max_value
    # even by construction: only |P| enters
    values = np.array([effective_1d(pot, abs(p)) for p in axis])
    certs = compute_certificates((axis,), values, vmax)
    return EffectiveTable(dim=1, axes=(axis,), values=values, method="closed-form",
                          residuals=None, certificates=certs, v_max=vmax)


def cell_table(pot: FourierPotential, p_max: float, dp: float, grid: int) -> EffectiveTable:
    """Table from the cell-problem solver on a mechanical symbol.

    Mechanical Hbar is even under P -> -P (and under nothing more in
    general), so each pair {P, -P} is solved once, at the member whose first
    nonzero component is positive, and written into the mirrored index too
    (the axis is symmetric: axis[-1 - i] == -axis[i] exactly); the
    certificates then check convexity and bounds honestly.
    """
    H = mechanical_symbol(pot)
    axis = _p_axis(p_max, dp)
    n = pot.dim
    vmax = potential_extrema(pot).max_value
    shape = (axis.size,) * n
    values = np.full(shape, np.nan)
    residuals = np.full(shape, np.nan)
    for idx in itertools.product(range(axis.size), repeat=n):
        P = axis[list(idx)]
        lead = P[np.flatnonzero(P)[:1]]
        if lead.size and lead[0] < 0:
            continue    # filled in by the solve of -P
        sol = cell_problem_solve(H, P, grid)
        mirror = tuple(axis.size - 1 - i for i in idx)
        values[idx] = values[mirror] = sol.value
        residuals[idx] = residuals[mirror] = sol.corrector.residual
    certs = compute_certificates((axis,) * n, values, vmax)
    return EffectiveTable(dim=n, axes=(axis,) * n, values=values, method="cell-problem",
                          residuals=residuals, certificates=certs, v_max=vmax)


def effective_grid(pot: FourierPotential, p_max: float, dp: float, method: str,
                   grid: int = 0) -> EffectiveTable:
    if method == "closed-form":
        if pot.dim != 1:
            raise ValueError("closed form is one-dimensional")
        return closed_form_table(pot, p_max, dp)
    if method == "cell-problem":
        if grid < _MIN_GRID:
            raise ValueError("cell-problem tables need a grid size")
        return cell_table(pot, p_max, dp, grid)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SublevelSet:
    points: np.ndarray
    empty: bool
    convex_certified: bool


def _shifted(flags: np.ndarray, step) -> np.ndarray:
    """out[x] = flags[x - step], False where x - step is off the grid."""
    out = np.zeros_like(flags)
    dst, src = [], []
    for s, m in zip(step, flags.shape):
        if abs(s) >= m:
            return out
        dst.append(slice(max(s, 0), m + min(s, 0)))
        src.append(slice(max(-s, 0), m - max(s, 0)))
    out[tuple(dst)] = flags[tuple(src)]
    return out


def _flanked(flags: np.ndarray, v) -> np.ndarray:
    """Cells with a member of ``flags`` on either side of them along v."""
    v = np.asarray(v)
    before, after = np.zeros_like(flags), np.zeros_like(flags)
    for k in range(1, max(flags.shape)):
        before |= _shifted(flags, k * v)
        after |= _shifted(flags, -k * v)
    return before & after


def sublevel_set(table: EffectiveTable, energy: float) -> SublevelSet:
    """Grid points with Hbar <= E, certified convex as a discrete set.

    The certificate asks, for every primitive lattice direction v, that the
    members on each grid line parallel to v form one contiguous run: a
    non-member with members on both sides of it along v voids it.  This is
    the same as asking every lattice point on the segment between two
    members to be a member.  A line that holds a hole holds at least three
    points, so v only ranges over |v_i| <= (m_i - 1) // 2.
    """
    energy = float(energy)
    flags = table.values <= energy
    coords = np.argwhere(flags)
    if coords.size == 0:
        return SublevelSet(points=np.empty((0, table.dim)), empty=True,
                           convex_certified=True)
    reach = [(m - 1) // 2 for m in flags.shape]
    convex = not any(np.any(_flanked(flags, v) & ~flags) for v in _directions(reach))
    pts = np.stack([np.asarray(table.axes[i])[coords[:, i]]
                    for i in range(table.dim)], axis=-1)
    return SublevelSet(points=pts, empty=False, convex_certified=convex)


# ---------------------------------------------------------------------------
# variational upper bound and symplectic invariance
# ---------------------------------------------------------------------------


def infsup_upper(H: PhaseSpaceFunction, P, bandwidth: int = 3) -> float:
    """Upper bound inf_v sup_x H(x, P + grad v) over trig polynomials v.

    Derivative-free coordinate descent with a shrinking step over the
    cosine/sine coefficients up to the given bandwidth, at most 400 sweeps
    over a 128-point grid per axis; the incumbent is always returned, so the
    result is an upper bound for the grid-restricted objective whatever the
    sweep budget.
    """
    if bandwidth < 1 or bandwidth > 4:
        raise ValueError("bandwidth must lie in 1..4")
    n = H.dim
    P = np.atleast_1d(np.asarray(P, dtype=float))
    pts = _grid_points([np.arange(128) * (TWO_PI / 128)] * n)

    qs = np.array([q for q in itertools.product(range(-bandwidth, bandwidth + 1), repeat=n)
                   if any(q) and q > tuple(-v for v in q)], dtype=float)
    # gradient harmonics of v = sum a_k cos(q_k.x) + b_k sin(q_k.x): the
    # coefficient pair (a, b) of q enters grad v with weight iq (a - ib)
    unit = np.eye(len(qs))
    pairs = np.stack([1j * unit, unit], axis=-1).reshape(len(qs), -1)   # theta = a0, b0, a1, ...
    weights = (pairs[:, :, None] * qs[:, None, :]).reshape(len(qs), -1)
    harmonics = _trig_sum(pts, qs, weights).reshape(len(pts), -1, n).transpose(1, 0, 2).copy()

    def objective(theta):
        g = np.tensordot(theta, harmonics, axes=1)
        vals = np.asarray(H.fn(pts, g + P[None, :]))
        return float(np.max(vals))

    theta = np.zeros(2 * len(qs))
    best = objective(theta)
    step = 0.5
    sweeps = 0
    while step > 1e-4 and sweeps < 400:
        improved = False
        for k in range(theta.size):
            for sgn in (1.0, -1.0):
                trial = theta.copy()
                trial[k] += sgn * step
                val = objective(trial)
                if val < best - 1e-14:
                    theta, best = trial, val
                    improved = True
        sweeps += 1
        if not improved:
            step *= 0.5
    return best


@dataclass(frozen=True)
class InvarianceReport:
    p_values: tuple
    base_values: tuple
    mapped_values: tuple
    max_distance: float
    symplectic_defect: float


def invariance_check(H: PhaseSpaceFunction, phi, p_values: Sequence[float],
                     grid: int, defect_probes: int = 32) -> InvarianceReport:
    """Hbar of H and of H o phi on the same grid, plus the map's defect.

    The composed symbol goes through the numeric (table-backed) route of the
    cell solver, on one interpolation table that this check builds and owns
    for all the requested P; for an exactly symplectic phi the two columns
    agree up to scheme error.  H must be mechanical: the dissipation bound
    and the table width of both symbols come from its potential's extrema.
    """
    if H.potential is None:
        raise ValueError("invariance_check needs a mechanical H")
    axes = _cell_axes(H.dim, grid)
    base = _GridSymbol(H, axes)
    mapped = _GridSymbol(compose_hamiltonian(H, phi), axes)
    v_min, v_max = _value_range(H)
    # one interpolation table for all the requested P; its width only needs
    # the slope bound sqrt(2(E - min V)), not the full LF box, because the
    # solver clips transient arguments into the table range
    pv = np.asarray(list(p_values), dtype=float)
    e_max = v_max + 0.5 * float(np.max(np.abs(pv))) ** 2
    slope = math.sqrt(max(2.0 * (e_max - v_min), 0.0)) + 1.0
    p_range = (float(pv.min()) - slope - _TABLE_P_PAD,
               float(pv.max()) + slope + _TABLE_P_PAD)
    base_vals = []
    mapped_vals = []
    for p in p_values:
        base_vals.append(_solve_on(base, p, v_min, v_max).value)
        mapped_vals.append(_solve_on(mapped, p, v_min, v_max, p_range=p_range).value)
    dist = float(np.max(np.abs(np.asarray(base_vals) - np.asarray(mapped_vals))))
    defect = symplectic_defect(phi, probes=defect_probes)
    return InvarianceReport(p_values=tuple(float(p) for p in p_values),
                           base_values=tuple(base_vals),
                           mapped_values=tuple(mapped_vals),
                           max_distance=dist,
                           symplectic_defect=defect)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_hbar_csv(path, dim: int, method: str, rows) -> None:
    """CSV of (P, Hbar, residual) rows in the effective.csv layout."""
    head = ",".join(f"P{i+1}" for i in range(dim)) if dim > 1 else "P"
    write_csv(path, f"{head},Hbar,method,residual",
              ((*P, value, method, res) for P, value, res in rows))


def write_effective_csv(path, table: EffectiveTable) -> None:
    flat = table.values.reshape(-1)
    res = table.residuals.reshape(-1) if table.residuals is not None else np.zeros(flat.size)
    write_hbar_csv(path, table.dim, table.method, zip(table.points(), flat, res))
