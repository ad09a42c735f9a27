"""Effective Hamiltonians by homogenization of the cell problem.

Two routes are implemented and kept strictly separate so they can be
cross-checked: the one-dimensional closed form built on the action integral
J(E) = (2 pi)^-1 integral sqrt(2(E - V)) dx (flat plateau at max V for
|P| <= J(max V), inverse of J above it), and a grid solver for the cell
problem H(x, P + Du) = Hbar(P) in any dimension.  The plateau, the lower
bound Hbar >= max V and the interpolation table's width read the exact max
V.  The closed form is batched: J is one tanh-sinh run over every energy and
panel (Takahasi & Mori, Publ. RIMS 9, 1974), and one bracketing root search
(Chandrupatla, Adv. Eng. Softw. 28, 1997) inverts it for every P.

The grid solver takes a mechanical symbol |p|^2/2 + V and no settings.  It
discretises with the monotone Godunov upwind flux, which needs no added
dissipation (Crandall & Lions, Math. Comp. 43, 1984): per axis
a = max(P_i + D-u, p*) and b = min(P_i + D+u, p*), p* the minimiser of
H(x, .), and H taken at whichever gives the larger value (Osher & Shu, SIAM
J. Numer. Anal. 28, 1991; Rouy & Tourin, SIAM J. Numer. Anal. 29, 1992 for
|p|^2/2).  A vanishing discount delta*u is added and -delta*u_delta
extrapolates linearly in delta to Hbar(P).  Each discounted residual is
convex in u with an M-matrix Jacobian whose row sums are delta, so plain
Newton converges; it starts from nested iteration (Brandt, Math. Comp. 31,
1977): the first discount solved on the grid halved down to 32 nodes per
axis, prolonged by periodic linear interpolation and solved again on each
finer grid.  A discounted problem left above its tolerance is refused with
CellConvergenceError; there is no second solver.  ``invariance_check`` runs
the same scheme on H o phi, read from one interpolation table in p, strictly
convex, that the check builds for all its P.  The table evaluates H o phi on
a nested coarse x-grid, from 32 nodes or four times the x-band of V and of
phi's generator, and resamples it onto the solver grid by trigonometric
interpolation (``_GridSymbol.build_table``).

Each Newton step factors the Jacobian with SuperLU in a fixed geometric
nested-dissection order of the grid (George, SIAM J. Numer. Anal. 10, 1973):
the periodic seam last, the open box before it bisected recursively.  On
48^2 to 128^2 grids this cuts the L+U fill of SuperLU's COLAMD order by 5-40%.
Rows pivot only when the diagonal falls below 0.01 of its column's largest
entry.

The scheme constants are fixed: discounts delta = 0.1, 0.03, 0.01 (Hbar
extrapolates from the last two); Newton tolerance 1e-11 and discounted
residual 1e-6 in sup-norm, each raised to 100 times the rounding floor
eps (1 + max|u|) (delta + sum_i max|H_p_i| / h_i); at most 900 Newton steps
per solve; interpolation tables padded by 2 in p with 256 nodes, resampled
in x once a nested estimate is within 1e-10.  Table certificates hold to
1e-6.  The fixed tolerances that consume these results live with their
checks: ``theorem2_check`` (spectra 1e-8 (1+|E|), Hbar 5e-3) and
``egorov_scaling`` (exact at 1e-8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import interpolate, sparse
from scipy.sparse.linalg import splu

from .dynamics import compose_hamiltonian, symplectic_defect
from .potentials import TWO_PI, FourierPotential, _grid_points, potential_extrema
from .spectra import _momentum_integral, _panels, _roots, write_csv
from .symbols import PhaseSpaceFunction, mechanical_symbol

_MIN_GRID = 32

# scheme constants of the discounted upwind solve (module docstring)
_DELTAS = (1e-1, 3e-2, 1e-2)
_TOL = 1e-6             # sup-norm of the discounted residual, or 100x its rounding floor
_NEWTON_TOL = 1e-11
_TABLE_P_PAD = 2.0      # momentum padding of interpolation tables
_TABLE_P_RES = 256
_TABLE_TOL = 1e-10      # nested estimate that ends a table's x-doubling
_CERT_TOL = 1e-6


class CellConvergenceError(RuntimeError):
    """Discounted cell problem failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# closed form in one dimension
# ---------------------------------------------------------------------------


def _max_panels(pot: FourierPotential):
    """max V of a 1D potential and its panels of E = max V (``_panels``)."""
    if pot.dim != 1:
        raise ValueError("the closed form is one-dimensional")
    ext = potential_extrema(pot)
    return ext.max_value, _panels(pot, ext.argmax[0], [ext.max_value])


def _action(pot: FourierPotential, energy, panels):
    """J(E) elementwise over the array ``energy`` >= max V."""
    lo, hi, _ = panels
    part = _momentum_integral(pot, np.asarray(energy, dtype=float)[..., None], lo, hi)[0]
    return np.sum(part, axis=-1) / TWO_PI


def action_J(pot: FourierPotential, energy: float) -> float:
    """J(E) = (2 pi)^-1 integral_0^2pi sqrt(2 (E - V(x))) dx, for E >= max V.

    Energies within 1e-12 below max V are clamped; anything lower is
    rejected.
    """
    vmax, panels = _max_panels(pot)
    energy = float(energy)
    if energy < vmax - 1e-12:
        raise ValueError(f"energy {energy} below max V = {vmax}")
    return float(_action(pot, max(energy, vmax), panels))


def action_threshold(pot: FourierPotential) -> float:
    """J(max V): half-width of the flat plateau of the effective Hamiltonian."""
    vmax, panels = _max_panels(pot)
    return float(_action(pot, vmax, panels))


def effective_1d(pot: FourierPotential, P):
    """Closed-form Hbar(P): max V on the plateau, J^{-1}(|P|) outside.

    P is a number (a float is returned) or an array (an array of its shape
    is returned).  All P share one ``potential_extrema`` and one set of
    panels, and one bracketing root search on [max V, max V + P^2/2 + 1]
    inverts J for every P above the plateau; each returned energy satisfies
    |J(E) - |P|| <= 1e-9.
    """
    vmax, panels = _max_panels(pot)
    p_abs = np.abs(np.asarray(P, dtype=float))
    up = p_abs > _action(pot, vmax, panels) + 1e-14
    p = p_abs[up]

    def gap(e, target):
        return _action(pot, e, panels) - target

    energy = _roots(gap, np.full(p.shape, vmax), vmax + 0.5 * p * p + 1.0, p)
    if not np.all(np.abs(gap(energy, p)) <= 1e-9):
        raise ArithmeticError("action inversion missed its tolerance")
    hbar = np.full(p_abs.shape, vmax)
    hbar[up] = energy
    return float(hbar) if hbar.ndim == 0 else hbar


# ---------------------------------------------------------------------------
# cell-problem solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corrector:
    """Mean-zero corrector of one cell problem on its solver grid."""

    P: np.ndarray
    axes: tuple
    values: np.ndarray
    residual: float       # sup |H_G(x, P + Du) - Hbar|, H_G the upwind flux


@dataclass(frozen=True)
class CellSolution:
    value: float
    corrector: Corrector
    discount_values: tuple
    iterations: int       # Newton steps, each one sparse LU factorization

    def diagnostics(self) -> dict:
        """P, Newton steps and discount values, as the CLI manifests hold them."""
        return {"P": self.corrector.P.tolist(), "iterations": self.iterations,
                "discount_values": list(self.discount_values)}


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


def _resample(vals, n: int):
    """Trigonometric interpolant of each row of ``vals``, given on the m
    uniform nodes j 2pi/m, at the n > m uniform nodes k 2pi/n.  The Nyquist
    coefficient of an even m is halved: it is the cosine cos(m x / 2)."""
    m = vals.shape[-1]
    c = np.fft.rfft(vals, axis=-1)
    if m % 2 == 0:
        c[..., -1] *= 0.5
    return np.fft.irfft(c, n, axis=-1) * (n / m)


class _GridSymbol:
    """Evaluator of H and dH/dp_i on the fixed solver x-grid (exact for a
    mechanical H, else from ``build_table``), with the grid's stencil and
    its elimination order for the Newton LU.  ``pstar`` is the minimiser of
    H(x, .) per axis, where the upwind flux switches sides.  ``band`` bounds
    the x-frequencies that carry a numeric symbol's leading content (None:
    unknown); ``build_table`` starts its nested grid there."""

    def __init__(self, H: PhaseSpaceFunction, axes, band: Optional[int] = None):
        self.H = H
        self.band = band
        self.dim = H.dim
        self.axes = tuple(axes)
        self.shape = tuple(a.size for a in self.axes)
        self.xpts = _grid_points(self.axes)
        # cell order[k] is unknown k of the factored system; rank inverts it
        self.order = nested_dissection(self.shape)
        self.rank = np.argsort(self.order)
        self.size = self.order.size
        self.hs = np.array([TWO_PI / m for m in self.shape])
        idx = np.arange(self.size).reshape(self.shape)
        self.ip = [np.roll(idx, -1, axis=i).reshape(-1) for i in range(self.dim)]
        self.im = [np.roll(idx, 1, axis=i).reshape(-1) for i in range(self.dim)]
        # COO pattern of the Jacobian (diagonal, then +/- neighbours per axis)
        # in elimination-order numbering
        nbrs = [self.rank[nb[i]] for i in range(self.dim) for nb in (self.ip, self.im)]
        self.pattern = (np.tile(self.rank, 2 * self.dim + 1),
                        np.concatenate([self.rank] + nbrs))
        self.mechanical = H.potential is not None
        self.vgrid = H.potential.evaluate(self.xpts).reshape(-1) if self.mechanical else None
        self.pstar = 0.0
        self.p_range = None

    def halved(self) -> "_GridSymbol":
        """The same symbol on every other node of each axis (these axes equal
        ``_cell_axes`` of the halved grid bit for bit).  A table is sliced,
        columns and minimisers, not built again."""
        half = _GridSymbol(self.H, [a[::2] for a in self.axes], self.band)
        if not self.mechanical:
            half.p_range, half.knots = self.p_range, self.knots
            half.coef, half.dcoef = self.coef[..., ::2], self.dcoef[..., ::2]
            half.pstar = self.pstar[::2]
        return half

    def build_table(self, p_lo: float, p_hi: float, res: int):
        """Cubic interpolation in p at every x-node (numeric symbols, 1D).

        H(., p) is smooth and periodic in x, so its trigonometric
        interpolant converges geometrically (Trefethen & Weideman, SIAM Rev.
        56, 2014).  The symbol is evaluated, in one batched call per level,
        on a nested coarse x-grid times the p-nodes: the first uniform grid
        of 32 2^k x-nodes with at least 4 ``band`` nodes, then the odd nodes
        of each doubled grid.  A level stops the doubling when its
        even half, trig-interpolated onto all its nodes, misses them by at
        most ``_TABLE_TOL``; each p-row is then resampled onto the solver
        grid.  The estimate is blind to content that aliases alike on both
        halves, such as cos(m x) on m nodes; starting at 4 ``band`` nodes
        puts the leading content inside the even half's band, so what
        aliases is the geometric tail.  Without a band, or where doubling
        would reach or pass the solver grid, the symbol is evaluated on the
        solver nodes themselves; the coarse levels are then wasted, so a
        grid that is not 32 2^k evaluates up to L + n x-nodes, L the largest
        32 2^k below its n (160 at n = 96).  ``table_nodes`` and
        ``table_estimate`` record the level (the grid at the cap) and its
        estimate (NaN at the cap).  The table belongs to this instance:
        asking again for the same range and resolution is free, so solves
        of several P on one instance pay once.

        A table whose second p-derivative, linear on each interval, is not
        positive at every knot is refused with ValueError.  So each column
        is strictly convex, and its minimiser p* is the root of dH/dp.
        """
        if self.dim != 1:
            raise ValueError("interpolation tables support one dimension")
        if self.p_range == (p_lo, p_hi) and self.knots.size == res:
            return
        nx = self.xpts.shape[0]
        pg = np.linspace(p_lo, p_hi, res)

        def rows(x):
            """H at every (x-node, p-node) pair, shape (res, x.size)."""
            xx = np.tile(x, res)[:, None]
            ee = np.repeat(pg, x.size)[:, None]
            return np.asarray(self.H.fn(xx, ee)).reshape(res, x.size)

        m = _MIN_GRID
        while self.band is not None and m < 4 * self.band:
            m *= 2
        if self.band is None or m >= nx:
            vals, m = rows(self.xpts[:, 0]), nx
        else:
            vals = rows(np.arange(m) * (TWO_PI / m))
        estimate = math.nan
        while m < nx:
            nested = float(np.max(np.abs(_resample(vals[:, ::2], m) - vals)))
            if nested <= _TABLE_TOL:
                vals, estimate = _resample(vals, nx), nested
                break
            if 2 * m > nx:
                vals, m = rows(self.xpts[:, 0]), nx
                break
            # j 2pi/m and 2j 2pi/(2m) round alike: the levels nest bit for bit
            odd = rows((2 * np.arange(m) + 1) * (TWO_PI / (2 * m)))
            vals = np.stack([vals, odd], axis=-1).reshape(res, 2 * m)
            m *= 2
        self.table_nodes, self.table_estimate = m, estimate
        spline = interpolate.CubicSpline(pg, vals, axis=0)
        if not np.all(spline(pg, 2) > 0.0):
            raise ValueError("the interpolation table is not strictly convex in p")
        self.knots, self.coef, self.dcoef = pg, spline.c, spline.derivative().c
        # dH/dp = A t^2 + B t + C on the interval from the last knot where it
        # is <= 0; B = d2H/dp2 > 0 there, so this root form cannot cancel
        k = np.clip(np.sum(self.dcoef[2] <= 0.0, axis=0) - 1, 0, res - 2)
        A, B, C = (c[k, np.arange(nx)] for c in self.dcoef)
        t = -2.0 * C / (B + np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0)))
        self.pstar = (pg[k] + np.clip(t, 0.0, pg[k + 1] - pg[k]))[:, None]
        self.p_range = (p_lo, p_hi)

    def _table(self, coef, pargs):
        """Piecewise polynomial ``coef`` (one column per x-node) at (x_j, p_j),
        p clipped into the table range."""
        p = np.clip(pargs[:, 0], *self.p_range)
        i = np.clip(np.searchsorted(self.knots, p) - 1, 0, self.knots.size - 2)
        t = p - self.knots[i]
        cols = np.arange(p.size)
        out = coef[0, i, cols]
        for c in coef[1:]:
            out = out * t + c[i, cols]
        return out

    def value(self, pargs):
        """H(x_j, p_j) over the grid; pargs has shape (cells, dim)."""
        if self.mechanical:
            return 0.5 * np.sum(pargs ** 2, axis=-1) + self.vgrid
        return self._table(self.coef, pargs)

    def slope(self, pargs):
        """dH/dp_i at (x_j, p_j), shape (cells, dim)."""
        if self.mechanical:
            return pargs.copy()
        return self._table(self.dcoef, pargs)[:, None]

    def backward(self, a, b):
        """Per axis, whether a >= p* carries a larger H than b <= p*."""
        if self.mechanical:
            return a >= -b
        return (self.value(a) >= self.value(b))[:, None]


class _CellWorkspace:
    """One discounted problem (P, discount) on the grid of ``sym``:
    residual, Jacobian and Newton solve."""

    def __init__(self, sym: _GridSymbol, P, delta):
        self.sym = sym
        self.P = np.asarray(P, dtype=float)
        self.delta = float(delta)

    def _upwind(self, u):
        """Godunov arguments q, shape (cells, dim), and where q is backward:
        per axis the larger-H one of max(P_i + D-u, p*), min(P_i + D+u, p*)."""
        sym = self.sym
        du = [(u - u[sym.im[i]], u[sym.ip[i]] - u) for i in range(sym.dim)]
        a = np.maximum(np.stack([d for d, _ in du], axis=-1) / sym.hs + self.P, sym.pstar)
        b = np.minimum(np.stack([d for _, d in du], axis=-1) / sym.hs + self.P, sym.pstar)
        back = sym.backward(a, b)
        return np.where(back, a, b), back

    def residual(self, u, q=None):
        """F(u) = delta u + H_G(x, P + Du), q the Godunov arguments of u
        (formed here when not given)."""
        if q is None:
            q = self._upwind(u)[0]
        return self.delta * u + self.sym.value(q)

    def jacobian(self, q, back):
        """dF/du at the Godunov arguments (q, back) as CSC, rows and columns
        in the grid's elimination order: an M-matrix whose row sums are
        delta."""
        sym = self.sym
        w = sym.slope(q) / sym.hs
        wa = np.where(back, w, 0.0)     # >= 0: H rises with the backward difference
        wb = w - wa                     # <= 0: H falls with the forward difference
        data = [self.delta + np.sum(wa - wb, axis=1)]
        for i in range(sym.dim):
            data += [wb[:, i], -wa[:, i]]
        return sparse.coo_matrix((np.concatenate(data), sym.pattern),
                                 shape=(sym.size, sym.size)).tocsc()

    def newton_step(self, F, q, back):
        """J^{-1} F from one LU factorization in elimination order; a
        Jacobian that SuperLU finds singular raises CellConvergenceError."""
        try:
            lu = splu(self.jacobian(q, back), permc_spec="NATURAL", diag_pivot_thresh=0.01)
        except RuntimeError as exc:     # "Factor is exactly singular"
            raise CellConvergenceError(f"Newton Jacobian at delta={self.delta}: {exc}",
                                       float(np.max(np.abs(F)))) from exc
        return lu.solve(F[self.sym.order])[self.sym.rank]

    def floor(self, u, q):
        """Rounding floor of the residual at u (Godunov arguments q), whose
        mean is O(1/delta): eps (1 + max|u|) (delta + sum_i max|H_p_i| / h_i)."""
        hp = np.max(np.abs(self.sym.slope(q)), axis=0)
        return (np.finfo(float).eps * (1.0 + float(np.max(np.abs(u))))
                * (self.delta + float(np.sum(hp / self.sym.hs))))

    def newton(self, u):
        """Plain Newton steps u <- u - J^{-1} F, at most 900, until the
        sup-norm residual is within _NEWTON_TOL or 100 times its rounding
        floor.  The Godunov arguments are formed once per iterate.  Returns
        the iterate, its residual norm and rounding floor, and the steps
        taken, each one LU factorization.  A NaN residual ends the loop at
        once and is returned for the caller to refuse."""
        steps = 0
        while True:
            q, back = self._upwind(u)
            F = self.residual(u, q)
            nrm, floor = float(np.max(np.abs(F))), self.floor(u, q)
            if steps == 900 or not nrm > max(_NEWTON_TOL, 100.0 * floor):
                return u, nrm, floor, steps
            u = u - self.newton_step(F, q, back)
            steps += 1


def _prolong(u):
    """Periodic linear interpolation of the grid function u onto the grid
    with twice its nodes per axis, flattened."""
    for ax in range(u.ndim):
        mid = 0.5 * (u + np.roll(u, -1, axis=ax))
        u = np.stack([u, mid], axis=ax + 1).reshape(u.shape[:ax] + (-1,) + u.shape[ax + 1:])
    return u.reshape(-1)


def _nested_start(sym: _GridSymbol, P):
    """Start of the discount cascade on the grid of ``sym``, and the Newton
    steps it took: the first discount solved on the halved grid from its own
    nested start and prolonged, or zeros where the grid halves no further."""
    if not all(m % 2 == 0 and m // 2 >= _MIN_GRID for m in sym.shape):
        return np.zeros(sym.size), 0
    half = sym.halved()
    u, steps = _nested_start(half, P)
    u, _, _, n = _CellWorkspace(half, P, _DELTAS[0]).newton(u)
    return _prolong(u.reshape(half.shape)), steps + n


def _cell_axes(dim: int, grid) -> list:
    """Uniform torus grid axes, ``grid`` points per axis (or one per axis)."""
    shape = (int(grid),) * dim if np.isscalar(grid) else tuple(int(g) for g in grid)
    if min(shape) < _MIN_GRID:
        raise ValueError(f"grid below {_MIN_GRID} per axis is rejected")
    return [np.arange(m) * (TWO_PI / m) for m in shape]


def cell_problem_solve(H: PhaseSpaceFunction, P, grid: int) -> CellSolution:
    """Solve the mechanical cell problem for one P on a uniform torus grid.

    Returns the extrapolated Hbar(P) together with the mean-zero corrector
    at the smallest discount and the sup-norm residual of the discrete cell
    equation.  Raises CellConvergenceError if any discounted solve misses
    the residual tolerance within its Newton steps.  A symbol without a
    potential is refused (``invariance_check`` solves H o phi on its own
    table).
    """
    if H.potential is None:
        raise ValueError("cell_problem_solve takes a mechanical symbol; "
                         "H o phi goes through invariance_check")
    return _solve_on(_GridSymbol(H, _cell_axes(H.dim, grid)), P)


def _solve_on(sym: _GridSymbol, P, p_range=None) -> CellSolution:
    """One P on the grid of ``sym``: the discounts of ``_DELTAS`` in turn
    from the nested start, each from the last.  A numeric symbol goes
    through the instance's interpolation table over ``p_range``."""
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if P.shape != (sym.dim,):
        raise ValueError("P does not match the symbol dimension")
    if not np.all(np.isfinite(P)):
        raise ValueError(f"P = {P.tolist()} is not finite")
    if not sym.mechanical:
        sym.build_table(*p_range, _TABLE_P_RES)

    u, total = _nested_start(sym, P)
    c_values = []
    for prev_delta, delta in zip(_DELTAS[:1] + _DELTAS, _DELTAS):
        ws = _CellWorkspace(sym, P, delta)
        # mean scales like 1/delta, the oscillating part barely moves
        mean = float(np.mean(u))
        u, res, floor, steps = ws.newton((u - mean) + mean * (prev_delta / delta))
        total += steps
        tol = max(_TOL, 100.0 * floor)
        # a NaN residual fails too, and so does an overflowed rounding floor
        if not res <= tol < math.inf:
            raise CellConvergenceError(
                f"cell residual {res:.3e} not within the finite tolerance {tol:.3e} "
                f"at delta={delta}", res)
        c_values.append(-delta * float(np.mean(u)))

    (d1, d2), (c1, c2) = _DELTAS[-2:], c_values[-2:]
    value = (d1 * c2 - d2 * c1) / (d1 - d2)

    w = u - float(np.mean(u))
    # H_G(x, P + Dw): the residual less the discount
    residual = float(np.max(np.abs(ws.residual(w) - ws.delta * w - value)))
    corr = Corrector(P=P.copy(), axes=sym.axes, values=w.reshape(sym.shape),
                     residual=residual)
    return CellSolution(value=float(value), corrector=corr,
                        discount_values=tuple(c_values), iterations=total)


# ---------------------------------------------------------------------------
# tables and certificates
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
    diagnostics: tuple = ()     # per solved P; empty for closed-form tables

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
    values = effective_1d(pot, axis)
    vmax = float(values[axis.size // 2])    # P = 0 lies on the plateau
    certs = compute_certificates((axis,), values, vmax)
    return EffectiveTable(dim=1, axes=(axis,), values=values, method="closed-form",
                          residuals=None, certificates=certs, v_max=vmax)


def cell_table(pot: FourierPotential, p_max: float, dp: float, grid: int) -> EffectiveTable:
    """Table from the cell-problem solver on a mechanical symbol.

    Mechanical Hbar is even under P -> -P (and under nothing more in
    general), so each pair {P, -P} is solved once, at the member whose first
    nonzero component is positive, and written into the mirrored index too
    (the axis is symmetric: axis[-1 - i] == -axis[i] exactly); the
    certificates then check convexity and bounds honestly.  diagnostics
    holds each solve's ``CellSolution.diagnostics()``, in solve order.
    """
    H = mechanical_symbol(pot)
    axis = _p_axis(p_max, dp)
    n = pot.dim
    vmax = potential_extrema(pot).max_value
    shape = (axis.size,) * n
    values = np.full(shape, np.nan)
    residuals = np.full(shape, np.nan)
    diagnostics = []
    for idx in itertools.product(range(axis.size), repeat=n):
        P = axis[list(idx)]
        lead = P[np.flatnonzero(P)[:1]]
        if lead.size and lead[0] < 0:
            continue    # filled in by the solve of -P
        sol = cell_problem_solve(H, P, grid)
        mirror = tuple(axis.size - 1 - i for i in idx)
        values[idx] = values[mirror] = sol.value
        residuals[idx] = residuals[mirror] = sol.corrector.residual
        diagnostics.append(sol.diagnostics())
    certs = compute_certificates((axis,) * n, values, vmax)
    return EffectiveTable(dim=n, axes=(axis,) * n, values=values, method="cell-problem",
                          residuals=residuals, certificates=certs, v_max=vmax,
                          diagnostics=tuple(diagnostics))


def effective_grid(pot: FourierPotential, p_max: float, dp: float, method: str,
                   grid: int = 0) -> EffectiveTable:
    if method == "closed-form":
        return closed_form_table(pot, p_max, dp)
    if method == "cell-problem":
        if grid < _MIN_GRID:
            raise ValueError("cell-problem tables need a grid size")
        return cell_table(pot, p_max, dp, grid)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# symplectic invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    p_values: tuple
    base_values: tuple
    mapped_values: tuple
    max_distance: float
    symplectic_defect: float
    table_nodes: int          # x-nodes the H o phi table evaluated (the grid at the cap)
    table_estimate: float     # nested estimate of its resampling (NaN at the cap)


def invariance_check(H: PhaseSpaceFunction, phi, p_values: Sequence[float],
                     grid: int, defect_probes: int = 32) -> InvarianceReport:
    """Hbar of H and of H o phi on the same grid, plus the map's defect.

    The composed symbol goes through the table route of the cell solver,
    on one interpolation table in p that this check builds and owns for all
    the requested P; the report records the x-nodes the table evaluated and
    its nested estimate.  For an exactly symplectic phi the two columns
    agree up to scheme error.  H must be mechanical: the table width comes
    from its potential's extrema.
    """
    if H.potential is None:
        raise ValueError("invariance_check needs a mechanical H")
    axes = _cell_axes(H.dim, grid)
    base = _GridSymbol(H, axes)
    # H o phi carries the x-frequencies of V and of phi's generator, spread
    # by the flow; a generator of unknown band leaves the table full-grid
    gen_band = phi.generator.x_bandwidth
    band = None if gen_band is None else H.potential.max_frequency + gen_band
    mapped = _GridSymbol(compose_hamiltonian(H, phi), axes, band)
    ext = potential_extrema(H.potential)
    # one interpolation table for all the requested P; its width only needs
    # the corrector's slope bound sqrt(2(E - min V)), because the solver
    # clips transient arguments into the table range
    pv = np.asarray(list(p_values), dtype=float)
    e_max = ext.max_value + 0.5 * float(np.max(np.abs(pv))) ** 2
    slope = math.sqrt(max(2.0 * (e_max - ext.min_value), 0.0)) + 1.0
    p_range = (float(pv.min()) - slope - _TABLE_P_PAD,
               float(pv.max()) + slope + _TABLE_P_PAD)
    base_vals = []
    mapped_vals = []
    for p in p_values:
        base_vals.append(_solve_on(base, p).value)
        mapped_vals.append(_solve_on(mapped, p, p_range=p_range).value)
    dist = float(np.max(np.abs(np.asarray(base_vals) - np.asarray(mapped_vals))))
    defect = symplectic_defect(phi, probes=defect_probes)
    return InvarianceReport(p_values=tuple(float(p) for p in p_values),
                           base_values=tuple(base_vals),
                           mapped_values=tuple(mapped_vals),
                           max_distance=dist,
                           symplectic_defect=defect,
                           table_nodes=mapped.table_nodes,
                           table_estimate=mapped.table_estimate)


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
