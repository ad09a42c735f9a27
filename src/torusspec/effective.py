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
|p|^2/2).  It solves the ergodic cell problem H_G(x, P + Du) = c, mean u = 0,
for (u, c), and Hbar(P) is c (Gomes & Oberman, SIAM J. Control Optim. 43,
2004; Cacace & Camilli, SIAM J. Sci. Comput. 38, 2016).  Newton factors the
upwind Jacobian, an M-matrix with zero row sums, with a small diagonal
shift; one LU gives J^-1 F and J^-1 1 > 0, and the mean condition fixes the
step in c.  One Newton function runs the discounted and the ergodic solves;
it forms the Godunov arguments and their slopes dH/dp once per iterate.
Nested iteration (Brandt, Math. Comp. 31, 1977) starts it, one recursion
that halves the grid down to 32 nodes per axis; on that coarsest grid one
discounted problem delta u + H_G = 0, convex, gives u less its mean and
c = -delta mean u; each level's solve is prolonged by periodic linear
interpolation to the next.
In 1D the upwind slopes solve p_i^2/2 + V(x_i) = c, so P = mean p_i is the
trapezoid rule for J(c); on the plateau c is the largest nodal V.  A solve
left above its tolerance is refused with CellConvergenceError; there is no
second solver.  ``invariance_check`` runs the same scheme on H o phi, read
from one interpolation table in p, strictly convex, that the check builds
for all its P.  The table evaluates H o phi on a nested coarse x-grid, from
32 nodes or four times the x-band of V and of phi's generator, and
resamples it onto the solver grid by trigonometric interpolation
(``_GridSymbol.build_table``).

Each Newton step factors the Jacobian with SuperLU in a fixed geometric
nested-dissection order of the grid (George, SIAM J. Numer. Anal. 10, 1973):
the periodic seam last, the open box before it bisected recursively.  On
48^2 to 128^2 grids this cuts the L+U fill of SuperLU's COLAMD order by 5-40%.
Rows pivot only when the diagonal falls below 0.01 of its column's largest
entry.  The grid symbol holds the Jacobian's canonical CSC structure (the
permutation of the stencil's entries into column order, the row indices and
the column pointers), so a step only permutes its values: the matrix that a
COO assembly converted to CSC would give, as no two entries share a place.

The scheme constants are fixed: start discount delta = 0.1; Jacobian shift
1e-3 (smaller ones stall H o phi table solves on the plateau); Newton
tolerance 1e-11 and cell residual 1e-6 in sup-norm, each raised to 100 times
the rounding floor eps ((1 + max|u|) sum_i max|H_p_i| / h_i + |c|); at most
900 Newton steps per solve; interpolation tables padded by 2 in p with 256
nodes, resampled in x once a nested estimate is within 1e-10.  Table
certificates hold to 1e-6.  The fixed tolerances that consume these results
live with their checks: ``theorem2_check`` (spectra 1e-8 (1+|E|), Hbar
5e-3) and ``egorov_scaling`` (exact at 1e-8).
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
from .spectra import _momentum_integral, _panels, _roots, _physical_memory, write_csv
from .symbols import PhaseSpaceFunction, mechanical_symbol

_MIN_GRID = 32

# scheme constants of the ergodic upwind solve (module docstring)
_START_DELTA = 0.1      # discount of the one solve that starts the coarsest level
_SHIFT = 1e-3           # added to the Newton Jacobian's diagonal, not to the residual
_TOL = 1e-6             # sup-norm of the cell residual, or 100x its rounding floor
_NEWTON_TOL = 1e-11
_TABLE_P_PAD = 2.0      # momentum padding of interpolation tables
_TABLE_P_RES = 256
_TABLE_TOL = 1e-10      # nested estimate that ends a table's x-doubling
_CERT_TOL = 1e-6


class CellConvergenceError(RuntimeError):
    """Cell problem refused: its Newton Jacobian is singular, or the
    residual missed its finite tolerance (``residual`` holds the miss)."""

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
class CellSolution:
    P: np.ndarray
    value: float
    residual: float       # sup |H_G(x, P + Du) - Hbar|, H_G the upwind flux
    level_values: tuple   # c on each nested level, coarse to fine; the last is value
    iterations: int       # Newton steps, each one sparse LU factorization

    def diagnostics(self) -> dict:
        """P, Newton steps and level values, as the CLI manifests hold them."""
        return {"P": self.P.tolist(), "iterations": self.iterations,
                "level_values": list(self.level_values)}


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
        # the Jacobian's entries (diagonal, then +/- neighbours per axis) at
        # rows and columns in elimination-order numbering, as canonical CSC:
        # perm takes the entries into column-major order, rows ascending in
        # each column (no two entries share a place); each column holds
        # 2 dim + 1 of them
        nbrs = [self.rank[nb[i]] for i in range(self.dim) for nb in (self.ip, self.im)]
        rows = np.tile(self.rank, 2 * self.dim + 1)
        self.perm = np.lexsort((rows, np.concatenate([self.rank] + nbrs)))
        self.indices = rows[self.perm].astype(np.intc)
        self.indptr = np.arange(0, self.perm.size + 1, 2 * self.dim + 1, dtype=np.intc)
        self.mechanical = H.potential is not None
        self.vgrid = H.potential.evaluate(self.xpts).reshape(-1) if self.mechanical else None
        self.pstar = 0.0
        self.p_range = None
        self.half = None

    def halved(self) -> "_GridSymbol":
        """The same symbol on every other node of each axis (these axes equal
        ``_cell_axes`` of the halved grid bit for bit).  A table is sliced,
        columns and minimisers, not built again.  The halved symbol belongs
        to this instance, like its table: the solves of several P on one
        instance build each coarser level, its stencil and its elimination
        order once."""
        if self.half is None:
            half = _GridSymbol(self.H, [a[::2] for a in self.axes], self.band)
            if not self.mechanical:
                half.p_range, half.knots = self.p_range, self.knots
                half.coef, half.dcoef = self.coef[..., ::2], self.dcoef[..., ::2]
                half.pstar = self.pstar[::2]
            self.half = half
        return self.half

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
        self.half = None    # it sliced the previous table

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
            return pargs
        return self._table(self.dcoef, pargs)[:, None]

    def backward(self, a, b):
        """Per axis, whether a >= p* carries a larger H than b <= p*."""
        if self.mechanical:
            return a >= -b
        return (self.value(a) >= self.value(b))[:, None]


def _upwind(sym: _GridSymbol, P, u):
    """Godunov arguments q, shape (cells, dim), and where q is backward: per
    axis the larger-H one of max(P_i + D-u, p*), min(P_i + D+u, p*)."""
    du = [(u - u[sym.im[i]], u[sym.ip[i]] - u) for i in range(sym.dim)]
    a = np.maximum(np.stack([d for d, _ in du], axis=-1) / sym.hs + P, sym.pstar)
    b = np.minimum(np.stack([d for _, d in du], axis=-1) / sym.hs + P, sym.pstar)
    back = sym.backward(a, b)
    return np.where(back, a, b), back


def _jacobian(sym: _GridSymbol, delta: float, slope, back):
    """d/du of delta u + H_G(x, P + Du) as CSC, from the slopes dH/dp_i at
    the Godunov arguments and where they are backward, rows and columns in
    the grid's elimination order: an M-matrix whose row sums are delta."""
    w = slope / sym.hs
    wa = np.where(back, w, 0.0)     # >= 0: H rises with the backward difference
    wb = w - wa                     # <= 0: H falls with the forward difference
    data = [delta + np.sum(wa - wb, axis=1)]
    for i in range(sym.dim):
        data += [wb[:, i], -wa[:, i]]
    return sparse.csc_matrix((np.concatenate(data)[sym.perm], sym.indices, sym.indptr),
                             shape=(sym.size, sym.size))


def _newton(sym: _GridSymbol, P, delta: float, u, c=None):
    """Newton steps, at most 900, until the sup-norm residual is within
    _NEWTON_TOL or 100 times its rounding floor.  Without c, on the
    discounted problem F = delta u + H_G(x, P + Du) = 0: u <- u - J^{-1} F.
    With c, on the ergodic problem H_G(x, P + Du) = c, mean u = 0, where
    delta only shifts J's diagonal: x = J^{-1} F and y = J^{-1} 1 from one
    LU, dc = (mean u - mean x) / mean y, u <- u - x - dc y and c <- c - dc.
    Each LU factors J in elimination order through ``splu``; a Jacobian that
    SuperLU finds singular raises CellConvergenceError with the residual norm.
    The rounding floor is eps (1 + max|u|) (delta + sum_i max|H_p_i| / h_i)
    for the discounted residual, whose mean is O(1/delta), and
    eps ((1 + max|u|) sum_i max|H_p_i| / h_i + |c|) for the ergodic one.
    Residual, floor and Jacobian share one upwind pass and one slope per
    iterate.  Returns the iterate (u, or (u, c)), its residual norm and
    floor, and the steps taken, each one LU.  A NaN residual ends the loop
    at once and is returned for the caller to refuse."""
    steps = 0
    while True:
        q, back = _upwind(sym, P, u)
        slope = sym.slope(q)
        F = delta * u + sym.value(q) if c is None else sym.value(q) - c
        nrm = float(np.max(np.abs(F)))
        hp = np.max(np.abs(slope), axis=0)
        scale, slopes = 1.0 + float(np.max(np.abs(u))), float(np.sum(hp / sym.hs))
        eps = np.finfo(float).eps
        floor = eps * scale * (delta + slopes) if c is None else eps * (scale * slopes + abs(c))
        if steps == 900 or not nrm > max(_NEWTON_TOL, 100.0 * floor):
            return (u if c is None else (u, c)), nrm, floor, steps
        try:
            lu = splu(_jacobian(sym, delta, slope, back), permc_spec="NATURAL",
                      diag_pivot_thresh=0.01)
        except RuntimeError as exc:     # "Factor is exactly singular"
            raise CellConvergenceError(f"Newton Jacobian on the grid of shape "
                                       f"{sym.shape}: {exc}", nrm) from exc
        rhs = F if c is None else np.stack([F, np.ones_like(F)], axis=1)
        step = lu.solve(rhs[sym.order])[sym.rank]
        del lu      # before the next factorization: two live LUs raise the peak RSS
        if c is None:
            u = u - step
        else:
            x, y = step.T
            dc = (float(np.mean(u)) - float(np.mean(x))) / float(np.mean(y))
            u, c = u - x - dc * y, c - dc
        steps += 1


def _prolong(u):
    """Periodic linear interpolation of the grid function u onto the grid
    with twice its nodes per axis, flattened."""
    for ax in range(u.ndim):
        mid = 0.5 * (u + np.roll(u, -1, axis=ax))
        u = np.stack([u, mid], axis=ax + 1).reshape(u.shape[:ax] + (-1,) + u.shape[ax + 1:])
    return u.reshape(-1)


def _ergodic(sym: _GridSymbol, P):
    """The ergodic solve on the grid of ``sym`` from its nested start: the
    halved grid's ``_ergodic``, prolonged, or where the grid halves no
    further the _START_DELTA discounted solve from u = 0, its mean moved into
    c = -delta mean u.  Returns u, the c of each level (coarse to fine), this
    grid's residual norm and rounding floor, and every level's Newton steps."""
    if all(m % 2 == 0 and m // 2 >= _MIN_GRID for m in sym.shape):
        half = sym.halved()
        u, levels, _, _, steps = _ergodic(half, P)
        u, c = _prolong(u.reshape(half.shape)), levels[-1]
    else:
        u, _, _, steps = _newton(sym, P, _START_DELTA, np.zeros(sym.size))
        mean = float(np.mean(u))
        u, c, levels = u - mean, -_START_DELTA * mean, ()
    (u, c), res, floor, n = _newton(sym, P, _SHIFT, u, c)
    return u, levels + (c,), res, floor, steps + n


def _cell_axes(dim: int, grid) -> list:
    """Uniform torus grid axes, ``grid`` points per axis (or one per axis).
    A grid whose ``_GridSymbol`` arrays exceed physical memory is refused
    before anything is allocated: per cell 3 dim + 3 words of 8 bytes, the
    CSC permutation's 2 dim + 1 more, and 2 dim + 2 four-byte row indices and
    column pointers, so 48 dim + 40 bytes; plus one column pointer and the
    axes."""
    shape = (int(grid),) * dim if np.isscalar(grid) else tuple(int(g) for g in grid)
    if min(shape) < _MIN_GRID:
        raise ValueError(f"grid below {_MIN_GRID} per axis is rejected")
    nbytes = (48 * len(shape) + 40) * math.prod(shape) + 4 + 8 * sum(shape)
    physical = _physical_memory()
    if nbytes > physical:
        raise ValueError(f"a cell grid of shape {shape} needs {nbytes} bytes, more than "
                         f"the {physical} bytes of physical memory")
    return [np.arange(m) * (TWO_PI / m) for m in shape]


def cell_problem_solve(H: PhaseSpaceFunction, P, grid: int) -> CellSolution:
    """Solve the mechanical cell problem for one P on a uniform torus grid.

    Returns Hbar(P) = c of the ergodic solve together with the sup-norm
    residual of the discrete cell equation at its mean-zero corrector.
    Raises CellConvergenceError if a Newton Jacobian is singular or the
    finest solve misses the residual tolerance within its Newton steps.  A
    symbol without a potential is refused (``invariance_check`` solves
    H o phi on its own table).
    """
    if H.potential is None:
        raise ValueError("cell_problem_solve takes a mechanical symbol; "
                         "H o phi goes through invariance_check")
    return _solve_on(_GridSymbol(H, _cell_axes(H.dim, grid)), P)


def _solve_on(sym: _GridSymbol, P, p_range=None) -> CellSolution:
    """One P on the grid of ``sym``: the ergodic solve from the nested start.
    A numeric symbol goes through the instance's interpolation table over
    ``p_range``."""
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if P.shape != (sym.dim,):
        raise ValueError("P does not match the symbol dimension")
    if not np.all(np.isfinite(P)):
        raise ValueError(f"P = {P.tolist()} is not finite")
    if not sym.mechanical:
        sym.build_table(*p_range, _TABLE_P_RES)
    _, levels, res, floor, steps = _ergodic(sym, P)
    tol = max(_TOL, 100.0 * floor)
    # a NaN residual fails too, and so does an overflowed rounding floor
    if not res <= tol < math.inf:
        raise CellConvergenceError(f"cell residual {res:.3e} not within the finite "
                                   f"tolerance {tol:.3e} on the grid of shape {sym.shape}", res)
    return CellSolution(P=P.copy(), value=float(levels[-1]), residual=res,
                        level_values=levels, iterations=steps)


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


def _directions(dim: int) -> list:
    """Grid-line steps v in {-1, 0, 1}^dim, one of each pair +/-v (the one
    whose first nonzero component is positive)."""
    return [v for v in itertools.product((-1, 0, 1), repeat=dim)
            if any(v) and next(c for c in v if c) > 0]


def compute_certificates(axes, values, v_max: float) -> TableCertificates:
    values = np.asarray(values, dtype=float)
    dim = len(axes)
    # midpoint convexity along every grid line (axes and diagonals)
    convex_defect = -math.inf
    every = tuple(range(dim))
    for d in _directions(dim):
        lo, hi = np.roll(values, d, axis=every), np.roll(values, [-s for s in d], axis=every)
        # drop wrapped rows: only interior triples count
        inner = tuple(slice(1, -1) if s else slice(None) for s in d)
        mid = (values - 0.5 * (lo + hi))[inner]
        if mid.size:
            convex_defect = max(convex_defect, float(np.max(mid)))
    even_defect = float(np.max(np.abs(values - np.flip(values))))
    upper = 0.5 * np.sum(_grid_points(axes) ** 2, axis=1) + v_max
    flat = values.reshape(-1)
    bound_defect = max(float(np.max(v_max - flat)), float(np.max(flat - upper)), 0.0)
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
    holds each solve's ``CellSolution.diagnostics()``, in solve order.  All
    the solves share one ``_GridSymbol``, so each grid level is built once.
    """
    H = mechanical_symbol(pot)
    axis = _p_axis(p_max, dp)
    n = pot.dim
    sym = _GridSymbol(H, _cell_axes(n, grid))
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
        sol = _solve_on(sym, P)
        mirror = tuple(axis.size - 1 - i for i in idx)
        values[idx] = values[mirror] = sol.value
        residuals[idx] = residuals[mirror] = sol.residual
        diagnostics.append(sol.diagnostics())
    certs = compute_certificates((axis,) * n, values, vmax)
    return EffectiveTable(dim=n, axes=(axis,) * n, values=values, method="cell-problem",
                          residuals=residuals, certificates=certs, v_max=vmax,
                          diagnostics=tuple(diagnostics))


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
