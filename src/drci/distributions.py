"""Weighted empirical CDFs and the distances built on them.

Everything downstream represents outcome distributions as step CDFs with
point masses on observed outcome values.  This module provides the carrier
type (:class:`WeightedEcdf`), the Kolmogorov-Smirnov distance, the
location-shift KS minimization over a symmetric shift grid, the
jump-difference (quasi)metric dual to weight-box constraints, and the
composed CDF used by the change-in-changes target.

The shift grid, its tie order (:func:`_pick`) and the shifted KS bands are
built here only, row-wise, so that one sample is a block of one row: the
grid by :func:`_grid_shifts` and :func:`_shift_rank`, the double-grid bands
by :func:`_grid_bands` and the exact ones, at any shifts, by
:func:`_exact_bands`.  Both band builders take a block of samples, one per
row, and refuse points that overflow.  The solvers in
:mod:`drci.dro_solvers` bound the weights with these bands, and
:func:`min_shift_ks` reads its distances off them for one sample.

Conventions
-----------
CDFs are right-continuous: ``F(y)`` includes the mass at ``y``.  The
generalized inverse is ``inf { y : F(y) >= p }``.  The shift ``c`` enters as
``KS(F(y), G(y + c))``; a result of ``c*`` therefore means G's atoms sit
``c*`` above F's.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

__all__ = [
    "WeightedEcdf",
    "ShiftGrid",
    "Dataset",
    "ecdf",
    "ks",
    "min_shift_ks",
    "d0",
    "cic_target_cdf",
    "shift_grid",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class WeightedEcdf:
    """Step CDF with positive masses on strictly increasing atoms.

    ``atoms`` are sorted and distinct (duplicates are merged by the
    :func:`ecdf` constructor), ``weights`` are positive and sum to one.
    ``cum`` caches the cumulative weights for O(log n) evaluation.
    """

    atoms: np.ndarray
    weights: np.ndarray
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("WeightedEcdf needs at least one atom")
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have equal length")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise ValueError("atoms and weights must be finite")
        if np.any(np.diff(atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        cum = np.minimum(np.cumsum(weights), 1.0)  # guard cumsum drift
        cum[-1] = 1.0
        object.__setattr__(self, "cum", cum)

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    def cdf(self, y) -> np.ndarray | float:
        """Right-continuous CDF evaluated at scalar or array ``y``."""
        idx = np.searchsorted(self.atoms, y, side="right")
        padded = np.concatenate(([0.0], self.cum))
        out = padded[idx]
        return float(out) if np.isscalar(y) else out

    def quantile(self, p) -> np.ndarray | float:
        """Generalized inverse ``inf { y : F(y) >= p }``."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(p_arr < 0) or np.any(p_arr > 1):
            raise ValueError("quantile level must be in [0, 1]")
        # cum is nondecreasing; find first index with cum >= p.
        idx = np.searchsorted(self.cum, p_arr - _WEIGHT_TOL, side="left")
        idx = np.minimum(idx, self.n_atoms - 1)
        out = self.atoms[idx]
        return float(out[0]) if np.isscalar(p) else out

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def jumps_at(self, points: np.ndarray) -> np.ndarray:
        """Point mass at each of ``points`` (0 where no atom sits)."""
        points = np.asarray(points, dtype=float)
        idx = np.searchsorted(self.atoms, points, side="left")
        idx_c = np.minimum(idx, self.n_atoms - 1)
        hit = self.atoms[idx_c] == points
        return np.where(hit, self.weights[idx_c], 0.0)


@dataclass(frozen=True)
class ShiftGrid:
    """Symmetric grid of candidate location shifts.

    ``shifts[j] = c0 + j * epsilon`` for ``j = 0..2m`` with
    ``c0 = -(max - min)`` of the generating values and
    ``epsilon = (max - min) / m``; ``anchor`` keeps the generating minimum so
    the double-grid KS evaluation points ``anchor + k * epsilon`` can be
    reconstructed.  A degenerate range collapses to the single shift 0.
    """

    c0: float
    epsilon: float
    m: int
    anchor: float
    shifts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))

    @property
    def degenerate(self) -> bool:
        return self.shifts.size == 1

    @cached_property
    def rank(self) -> np.ndarray:
        """The one tie order between shifts: each shift's place in the order
        smallest ``|c|`` first, then the smaller ``c``.  Every selection among
        equally good shifts takes the one of lowest rank (:func:`_pick`)."""
        return _shift_rank(self.shifts)


def _grid_shifts(span, m: int) -> np.ndarray:
    """The 2m+1 shifts ``-span + j * (span / m)`` of the grid over values of
    range ``span`` (a scalar, or one per row), along a new last axis; the
    center is exactly 0, and a zero span gives all zeros."""
    span = np.asarray(span, dtype=float)[..., None]
    shifts = -span + (span / m) * np.arange(2 * m + 1)
    shifts[..., m] = 0.0  # guard against accumulated rounding at the center
    return shifts


def _shift_rank(shifts: np.ndarray) -> np.ndarray:
    """Each shift's place in the tie order of its row (:attr:`ShiftGrid.rank`),
    along the last axis of ``shifts``."""
    return np.argsort(np.lexsort((shifts, np.abs(shifts))), axis=-1)  # the inverse order


def _pick(values: np.ndarray, group: np.ndarray, rank: np.ndarray, maximize: bool,
          tol: float) -> np.ndarray:
    """The index of the best entry of each group, in group order: entries
    within ``tol`` of the group's largest (``maximize``) or smallest value
    tie, and the one of lowest ``rank`` (distinct within a group) wins.
    ``group`` labels the entries, nondecreasing."""
    new = _run_starts(group)
    first, at = new.nonzero()[0], new.cumsum() - 1
    best = (np.maximum if maximize else np.minimum).reduceat(values, first)
    tied = np.abs(values - best[at]) <= tol
    low = np.minimum.reduceat(np.where(tied, rank, rank.max()), first)
    return (tied & (rank == low[at])).nonzero()[0]


def shift_grid(values, m: int) -> ShiftGrid:
    """Build the shift grid spanning ``[-(max-min), +(max-min)]``.

    All-equal ``values`` yield the degenerate single-shift grid {0}; a range
    that overflows is refused.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("shift_grid needs at least two values")
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError("m must be a positive integer")
    lo, hi = float(values.min()), float(values.max())
    span = float(_finite(np.float64(hi - lo)))
    if span == 0.0:
        return ShiftGrid(c0=0.0, epsilon=0.0, m=m, anchor=lo, shifts=np.zeros(1))
    return ShiftGrid(c0=-span, epsilon=span / m, m=m, anchor=lo,
                     shifts=_grid_shifts(span, m))


def ecdf(values, weights=None) -> WeightedEcdf:
    """Weighted ECDF of ``values``; duplicates merged, weights normalized.

    The values are sorted once.  An atom's mass is its units' weights added
    one by one in value order (stable, so in input order on a tie), over the
    pairwise sum of all the weights; unweighted, that is
    :func:`_count_masses` of the atom counts.  A zero atom is always +0.0
    (the values enter as ``values + 0.0``), whichever signs of zero the
    sample holds.

    Raises on empty or non-finite input, negative weights, or zero total
    weight.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("ecdf needs a nonempty 1-d value array")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    values = values + 0.0  # -0.0 + 0.0 is +0.0; every other value is kept
    if weights is None:
        v = np.sort(values)
        starts = np.flatnonzero(_run_starts(v))
        masses = _count_masses(np.diff(starts, append=v.size), v.size)
        return WeightedEcdf(atoms=v[starts], weights=masses)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape:
        raise ValueError("values and weights must have equal length")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    order = np.argsort(values, kind="stable")
    v = values[order]
    new = _run_starts(v)
    merged = np.zeros(np.count_nonzero(new))
    np.add.at(merged, np.cumsum(new) - 1, weights[order])
    merged /= total
    keep = merged > 0
    if not keep.any():
        raise ValueError("total weight must be positive")
    return WeightedEcdf(atoms=v[new][keep], weights=merged[keep])


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted ``v`` starts a run of equal values."""
    new = np.ones(v.size, dtype=bool)
    new[1:] = v[1:] != v[:-1]
    return new


def _count_masses(counts: np.ndarray, n) -> np.ndarray:
    """:func:`ecdf`'s masses of atoms holding ``counts`` (..., K) of ``n``
    (...) units of weight 1/n each, 0 where a count is 0: 1/n added once per
    unit (a cumulative sum, as :func:`numpy.add.at` adds), over the pairwise
    sum of the n weights."""
    n = np.asarray(n)
    added = np.zeros(n.shape + (int(n.max()) + 1,))  # added[..., c]: c units' weight
    np.cumsum(np.full(n.shape + (int(n.max()),), (1.0 / n)[..., None]), axis=-1,
              out=added[..., 1:])
    total = np.array([np.full(k, 1.0 / k).sum() for k in n.ravel().tolist()])
    return np.take_along_axis(added, counts, axis=-1) / total.reshape(n.shape + (1,))


def ks(f: WeightedEcdf, g: WeightedEcdf) -> float:
    """Kolmogorov-Smirnov distance ``max_y |F(y) - G(y)|``.

    The supremum of a difference of step functions is attained on the union
    of their atoms, so only those points are evaluated.
    """
    pts = np.union1d(f.atoms, g.atoms)
    return float(np.max(np.abs(f.cdf(pts) - g.cdf(pts))))


@dataclass(frozen=True)
class _Bands:
    """The KS band of every shift at its breakpoint columns.

    The band bounds the cumulative weight only at ``cols`` (ascending, always
    including the pinned columns 0 and K); the atoms between two consecutive
    breakpoints form one bucket.  ``top``/``bottom`` (S, L) hold the largest
    and smallest treated-CDF value the band compares with each breakpoint
    (``-inf``/``inf`` where it compares none), so the band at ``delta`` is
    ``[top - delta, bottom + delta]``.
    """

    cols: np.ndarray
    top: np.ndarray
    bottom: np.ndarray

    def at(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        # rounding is monotone, so max(x) - delta == max(x - delta) exactly
        return self.top - delta, self.bottom + delta


def _grid_bands(anchor: np.ndarray, span: np.ndarray, m: int, count,
                cdf) -> list[tuple[np.ndarray, _Bands]]:
    """The double-grid bands of R samples at once, grouped by width.

    Row i's grid has resolution ``m``, minimum ``anchor[i]`` and range
    ``span[i] > 0``; ``count(points)`` gives the number of its control atoms
    up to each of its points (R, P), and ``cdf(points)`` its treated CDF
    there.  Shift j compares point ``anchor + k * eps`` with the treated CDF
    at ``anchor - span + (j + k) * eps``, which rises with k, so a column's
    band runs from the CDF at its first point to that at its last.  The last
    point rounds to at least the largest value, so it hits column K.
    Returns ``(members, bands)`` per width: the rows ``members``, their
    ``bands.cols`` (M, L) and their 2m+1 shifts' bands, row after row.
    """
    eps = (span / m)[:, None]
    n_points = 2 * m + 1
    # the counts at the points, after a first virtual point at column 0, so
    # that column 0 is a run of equal counts like every other column
    idx = np.zeros((anchor.size, n_points + 1), dtype=np.intp)
    idx[:, 1:] = count(anchor[:, None] + np.arange(n_points) * eps)
    # the last line point is the greatest point of the bands
    line = cdf(_finite((anchor - span)[:, None] + np.arange(4 * m + 1) * eps))
    new = np.ones(idx.shape, dtype=bool)
    new[:, 1:] = idx[:, 1:] != idx[:, :-1]  # a column's first point
    ends = np.ones(idx.shape, dtype=bool)
    ends[:, :-1] = new[:, 1:]  # and its last
    row, k_first = np.nonzero(new)
    col = idx[row, k_first]
    # the first and last real point of each column; last is -1 (the
    # virtual point) where no point hits column 0
    first, last = np.maximum(k_first - 1, 0), np.nonzero(ends)[1] - 1
    width = np.bincount(row, minlength=anchor.size)
    start = np.cumsum(width) - width

    # windows[i, k] = line[i, k:k + 2m + 1], the CDF values at point k for every shift
    windows = np.lib.stride_tricks.sliding_window_view(line, n_points, axis=1)
    groups = []
    for size in np.unique(width):
        members = np.flatnonzero(width == size)
        entry = start[members, None] + np.arange(size)
        top = windows[members[:, None], last[entry]]  # (M, L, S)
        bottom = windows[members[:, None], first[entry]]
        free = last[entry] < 0
        top[free], bottom[free] = -np.inf, np.inf
        groups.append((members, _Bands(col[entry], top.transpose(0, 2, 1).reshape(-1, size),
                                       bottom.transpose(0, 2, 1).reshape(-1, size))))
    return groups


_BLOCK = 1 << 16  # array elements per block of shifts in _exact_bands


def _exact_bands(atoms: np.ndarray, k: np.ndarray, shifts: np.ndarray, t_atoms: np.ndarray,
                 count, cdf) -> list[tuple[np.ndarray, _Bands]]:
    """The exact-KS bands of R samples at any shifts, grouped by width.

    Row i has the ascending distinct control atoms ``atoms[i, :k[i]]``, the
    shifts ``shifts[i]`` (S) and the ascending treated atoms
    ``t_atoms[i]``, each padded on the right with its last entry; ``count``
    and ``cdf`` are as in :func:`_grid_bands`.  Shift c compares the control
    CDF at each control atom and at each treated atom less c with the
    treated CDF at that point plus c, which rises with the point.  So column
    k >= 1, the points from atom k - 1 up to atom k, runs from the CDF at
    atom k - 1 plus c to the largest value at its treated points (if it has
    any), and column 0 holds only the treated points below the first atom.
    The shifts go in blocks of about ``_BLOCK`` elements, so that the
    temporaries stay small beside the bands.  Returns ``(members, bands)``
    per width, as :func:`_grid_bands` does, every column a breakpoint.
    """
    n_rows, n_shifts = shifts.shape
    width = atoms.shape[1] + 1
    bands = np.empty((2, n_rows, n_shifts, width))
    top, bottom = bands
    step = max(1, _BLOCK // (n_rows * max(width, t_atoms.shape[1])))
    for j in range(0, n_shifts, step):
        c = shifts[:, j:j + step, None]
        block = slice(j, j + c.shape[1])
        bottom[:, block, 1:] = top[:, block, 1:] = _rowwise(cdf, _finite(atoms[:, None, :] + c))
        top[:, block, 0], bottom[:, block, 0] = -np.inf, np.inf
        points = _finite(t_atoms[:, None, :] - c)
        cell = (np.arange(n_rows)[:, None] * n_shifts + np.arange(block.start, block.stop)) * width
        at = (cell[..., None] + _rowwise(count, points)).ravel()  # flat (row, shift, column)
        high = _rowwise(cdf, _finite(points + c)).ravel()
        np.maximum.at(top.reshape(-1), at, high)
        np.minimum.at(bottom.reshape(-1), at, high)
    groups = []
    for size in np.unique(k) + 1:
        members = np.flatnonzero(k + 1 == size)
        rows = slice(None) if members.size == n_rows else members  # a view where it can
        groups.append((members, _Bands(np.tile(np.arange(size), (members.size, 1)),
                                       *bands[:, rows, :, :size].reshape(2, -1, size))))
    return groups


def _rowwise(f, points: np.ndarray) -> np.ndarray:
    """``f`` (a band builder's ``count`` or ``cdf``) at ``points`` (R, ...)."""
    return f(points.reshape(points.shape[0], -1)).reshape(points.shape)


def _finite(points: np.ndarray) -> np.ndarray:
    """``points``, which must all be finite: they overflow only when the
    outcomes span nearly the whole float range."""
    if not np.isfinite(points).all():
        raise ValueError("outcome range too large: the shift grid or KS band points overflow")
    return points


def min_shift_ks(
    f: WeightedEcdf,
    g: WeightedEcdf,
    grid: ShiftGrid,
    mode: str = "exact_atoms",
) -> tuple[float, float]:
    """Minimize ``KS(F(y), G(y + c))`` over the grid's shifts.

    ``exact_atoms`` evaluates the exact KS per shift (atom unions);
    ``grid`` evaluates the double-grid approximation with F at
    ``anchor + k*eps`` and G at ``anchor + c0 + (j+k)*eps``.  Ties go to
    the shift of lowest :attr:`ShiftGrid.rank`.
    The distances come from the solvers' KS bands: with F's cumulative ``C``
    at the breakpoints, the larger of ``top - C`` and ``C - bottom``.

    Returns ``(distance, shift)``.
    """
    if mode not in ("grid", "exact_atoms"):
        raise ValueError(f"unknown mode {mode!r}")
    count = partial(np.searchsorted, f.atoms, side="right")
    ((_, bands),) = (
        _grid_bands(np.array([grid.anchor]), np.array([-grid.c0]), grid.m, count, g.cdf)
        if mode == "grid" and not grid.degenerate else
        _exact_bands(f.atoms[None], np.array([f.n_atoms]), grid.shifts[None], g.atoms[None],
                     count, g.cdf))
    cum = np.concatenate(([0.0], f.cum))[bands.cols[0]]
    dists = np.maximum(bands.top - cum, cum - bands.bottom).max(axis=1)
    (best,) = _pick(dists, np.zeros(dists.size, dtype=np.intp), grid.rank,
                    maximize=False, tol=0.0)
    return float(dists[best]), float(grid.shifts[best])


def d0(f: WeightedEcdf, g: WeightedEcdf, regime: str = "gamma_ge_2") -> float:
    """Jump-difference distance over the union of jump points.

    ``gamma_ge_2``: ``max_y |jump_F(y) - jump_G(y)|`` (a metric).
    ``gamma_lt_2``: ``max_y max(jump_F(y) - jump_G(y), 0)`` (a quasimetric;
    order of arguments matters).
    """
    if regime not in ("gamma_ge_2", "gamma_lt_2"):
        raise ValueError(f"unknown regime {regime!r}")
    pts = np.union1d(f.atoms, g.atoms)
    diff = f.jumps_at(pts) - g.jumps_at(pts)
    if regime == "gamma_ge_2":
        return float(np.max(np.abs(diff)))
    return float(max(np.max(diff), 0.0))


def cic_target_cdf(
    f_b1: WeightedEcdf, f_b0: WeightedEcdf, f_00: WeightedEcdf
) -> WeightedEcdf:
    """Composed CDF ``y -> F_b1(F_b0^{-1}(F_00(y)))`` on ``F_00``'s atoms.

    The composition is nondecreasing, so successive differences give the
    atom masses.  When the top level falls short of 1 (support mismatch
    between the baseline samples) the masses are renormalized; on panels
    where both baseline CDFs carry the same attainable levels the
    composition is exact.  ``F_00``'s atoms are sorted and distinct already,
    so the result is built from them directly, with no sort: the atoms of
    zero mass are dropped and the masses divided by their sum, which is
    what :func:`ecdf` of the atoms with these weights gives, bit for bit.
    """
    levels = f_b1.cdf(f_b0.quantile(f_00.cum))
    masses = np.maximum(np.diff(levels, prepend=0.0), 0.0)
    total = masses.sum()
    if total <= 0:
        raise ValueError("degenerate composition: no mass below F_b0's support")
    masses /= total
    keep = masses > 0
    return WeightedEcdf(atoms=f_00.atoms[keep], weights=masses[keep])


@dataclass(frozen=True)
class Dataset:
    """Per-unit sample: outcome, treatment, optional baseline outcome,
    optional binary instrument, optional covariates.

    Arrays share length ``n``; covariates are an ``(n, J)`` matrix.  Both
    arms must be nonempty, and when an instrument is present the four
    ``(t, z)`` strata proportions sum to one by construction.
    """

    y: np.ndarray
    t: np.ndarray
    y_b: np.ndarray | None = None
    z: np.ndarray | None = None
    x: np.ndarray | None = None

    def __post_init__(self):
        # own read-only copies of y and t: the cached arm views are read off them
        y = np.array(self.y, dtype=float)
        t = np.asarray(self.t)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("Dataset needs at least two units")
        if t.shape != y.shape:
            raise ValueError("y and t must have equal length")
        if not np.all(np.isin(t, (0, 1))):
            raise ValueError("treatment must be binary 0/1")
        t = t.astype(np.int8)
        if t.sum() == 0 or t.sum() == t.size:
            raise ValueError("both treatment arms must be nonempty")
        if not np.all(np.isfinite(y)):
            raise ValueError("outcomes must be finite")
        object.__setattr__(self, "y", _read_only(y))
        object.__setattr__(self, "t", _read_only(t))
        for name in ("y_b", "z", "x"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.asarray(val, dtype=float if name != "z" else None)
            if name == "x":
                if arr.ndim != 2 or arr.shape[0] != y.size:
                    raise ValueError("x must be an (n, J) matrix")
                arr = arr.astype(float)
                if not np.all(np.isfinite(arr)):
                    raise ValueError("covariates must be finite")
            else:
                if arr.shape != y.shape:
                    raise ValueError(f"{name} must have length n")
                if name == "z":
                    if not np.all(np.isin(arr, (0, 1))):
                        raise ValueError("instrument must be binary 0/1")
                    arr = arr.astype(np.int8)
                elif not np.all(np.isfinite(arr)):
                    raise ValueError("baseline outcomes must be finite")
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def n1(self) -> int:
        return int(self.t.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @cached_property
    def treated_y(self) -> np.ndarray:
        return _read_only(self.y[self.t == 1])

    @cached_property
    def control_y(self) -> np.ndarray:
        return _read_only(self.y[self.t == 0])

    @cached_property
    def control_indices(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.t == 0))

    @property
    def covariate_dim(self) -> int:
        return 0 if self.x is None else self.x.shape[1]

    def stratum_indices(self, t: int, z: int) -> np.ndarray:
        if self.z is None:
            raise ValueError("dataset carries no instrument")
        return np.flatnonzero((self.t == t) & (self.z == z))

    def stratum_counts(self) -> dict[tuple[int, int], int]:
        return {
            (t, z): self.stratum_indices(t, z).size
            for t in (0, 1)
            for z in (0, 1)
        }

    def stratum_proportions(self) -> dict[tuple[int, int], float]:
        return {k: v / self.n for k, v in self.stratum_counts().items()}

    def swap_arms(self) -> "Dataset":
        """Relabel treatment (1 - t); used by the ATC-by-symmetry route."""
        return Dataset(y=self.y, t=1 - self.t, y_b=self.y_b, z=self.z, x=self.x)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
