"""Robust ATT/ATC bounds under the three sensitivity models.

The marginal model optimizes a weighted control mean over a box around
uniform weights and has a closed-form greedy solution.  The total-variation
model caps the TV distance between the weights and uniform; its optimum
moves the whole TV budget onto one extreme unit, also in closed form.  The
distributional model constrains the weighted control CDF to match the
treated CDF in shape up to a location shift within KS distance ``delta``; it
is solved exactly by enumerating the shift grid (exactly one shift is
active) and optimizing the weighted mean per shift.  Of the shifts whose
values tie, the one of lowest :attr:`~drci.distributions.ShiftGrid.rank`
(smallest ``|c|``, then the smaller ``c``) is reported, on every route.

Per shift, the constraints reduce to interval bounds on the cumulative
weight at each control atom plus per-atom capacities.  The feasible set of
cumulative vectors is a lattice, so the componentwise least (greatest)
element exists and maximizes (minimizes) the weighted mean.  The KS band
binds the cumulative weight only at a few breakpoint columns: in grid mode
the columns of the 2m+1 evaluation points, which are the same for every
shift, plus the pinned first and last column (L <= 2m+3 in all); in exact
mode every column.  The bands live in :mod:`drci.distributions`, whose
``min_shift_ks`` reads the same ones.  The prefix/suffix scans that find
both elements run on the (S, L) breakpoint bands, vectorized across all S
shifts, and give exactly the values a scan over all K atoms gives there.
Between two breakpoints the least element fills the bucket's mass greedily
from its top atom and the greatest from its bottom atom, so both weighted
means follow in closed form from prefix sums of the capacities and
capacity-weighted outcomes.  Only the chosen shift's allocation is expanded
to the K atoms.  A grid-mode solve thus costs O(K log K + m L) time and
memory, not O(m K).

A solve is split into a plan and an evaluation.  The plan
(:class:`_BlockPlan`, built by :func:`_block_plan`) depends on neither
``gamma`` nor ``delta``: per sample, one per row, it holds the distinct
control atoms with their counts, the shift grid with its tie order, and the
KS bands, from the row-wise grid, tie-order and band builders of
:mod:`drci.distributions`.  A single sample is a block of one row.  An
evaluation caps the atoms at one or more ``gamma``
(:meth:`_BlockPlan.capped`) and runs one breakpoint scan
(:func:`_shift_solve`) at one ``delta``, each band row under its own
sample's capacities; :func:`_scan` then picks, per (sample, gamma,
direction), the best feasible shift by :func:`~drci.distributions._pick`,
within an optional mean window per sample.  Every distributional route here
and in :mod:`drci.extensions` takes this path: a single bound is the scan of
a block of one row, followed by :meth:`_ShiftSolve.weights_for` at the
picked row only; a (gamma, delta) sweep scans one plan per cell in both
directions; the Monte Carlo bias table scans a block of replicates for the
lower bound's value; ``minimal_achievable_ks``, the IV arms and the balance
route read the scan of every shift of their rows.

Runs with covariate-balance terms fall back to the bounded-variable simplex,
one LP per shift with band rows at the breakpoints; the rest of the LP is
built once per bound (:func:`_balance_lp`).  The balance-free kernel
on the same bands screens out the shifts with no feasible weights and bounds
each shift's LP value, so only the shifts that can still win are solved.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .distributions import (Dataset, _Bands, _count_masses, _exact_bands, _finite,
                            _grid_bands, _grid_shifts, _pick, _shift_rank)
from .lp_core import LpProblem, solve_lp

__all__ = [
    "SensitivityConfig",
    "BoundResult",
    "BalanceTerms",
    "marginal_att_bound",
    "tv_att_bound",
    "distributional_att_bound",
    "atc_bound",
    "balance_terms",
    "conditional_se",
    "minimal_achievable_ks",
]

_TOL = 1e-9
_TIE_TOL = 1e-12
_LP_ROW_TOL = 1e-8  # row residual lp_core certifies a returned point against


@dataclass(frozen=True)
class SensitivityConfig:
    """Knobs shared by the sensitivity models.

    ``gamma`` bounds the weight box, ``delta`` the shifted-KS distance,
    ``epsilon`` the mean-difference slack of the DiD/CIC/IV couplings
    (``inf`` disables it), ``lambda_tv`` the TV radius, ``m`` the shift-grid
    resolution, ``balance_lambda``/``balance_epsilon`` the soft/hard
    covariate-balance forms.
    """

    gamma: float = 1.0
    delta: float = 1.0
    epsilon: float = math.inf
    lambda_tv: float = 0.0
    m: int = 50
    balance_lambda: float = 0.0
    balance_epsilon: float | None = None
    direction: str = "lower"
    ks_mode: str = "grid"

    def __post_init__(self):
        # written as `not a <= x ...` so that NaN fails them too
        if not 1 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 1")
        if not 0 <= self.delta <= 1:
            raise ValueError("delta must be in [0, 1]")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if not 0 <= self.lambda_tv <= 1:
            raise ValueError("lambda_tv must be in [0, 1]")
        if not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0 <= self.balance_lambda < math.inf:
            raise ValueError("balance_lambda must be finite and nonnegative")
        if self.balance_epsilon is not None and not self.balance_epsilon >= 0:
            raise ValueError("balance_epsilon must be nonnegative")
        if self.direction not in ("lower", "upper"):
            raise ValueError("direction must be 'lower' or 'upper'")
        if self.ks_mode not in ("grid", "exact_atoms"):
            raise ValueError("ks_mode must be 'grid' or 'exact_atoms'")

    @property
    def wants_balance(self) -> bool:
        return self.balance_lambda > 0 or self.balance_epsilon is not None


def _refuse_balance(config: SensitivityConfig, where: str) -> None:
    """Raise if ``config`` sets a balance knob, which ``where`` would ignore:
    only the distributional ATT/ATC, DiD and CIC bounds balance covariates."""
    knobs = [name for name, on in (("balance_lambda", config.balance_lambda > 0),
                                   ("balance_epsilon", config.balance_epsilon is not None))
             if on]
    if knobs:
        raise ValueError(f"{' and '.join(knobs)} is not supported by {where}; covariate "
                         "balance needs the distributional att, atc, did or cic bound")


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A one-sided robust bound with its certificate.

    ``estimate = treated_mean - counterfactual_mean`` whenever the status is
    optimal.  The weights of the reweighted arm (the controls; the treated
    for ATC) come as two read-only arrays: ``weight_index``, the original
    unit indices in strictly ascending order, and ``weight_values``, their
    weights, which sum to one (both empty when infeasible).  ``weights`` is
    the same as a read-only ``{index: weight}`` mapping, built on first
    access.
    """

    estimate: float
    direction: str
    weight_index: np.ndarray
    weight_values: np.ndarray
    active_shift: float | None
    se: float
    status: str
    treated_mean: float
    counterfactual_mean: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        index = np.asarray(self.weight_index, dtype=np.int64).view()
        values = np.asarray(self.weight_values, dtype=float).view()
        if index.ndim != 1 or index.shape != values.shape:
            raise ValueError("weight_index and weight_values must be 1-D of equal length")
        if np.any(index[1:] <= index[:-1]):
            raise ValueError("weight_index must be strictly ascending")
        # read-only views: the caller's arrays stay writable
        index.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "weight_index", index)
        object.__setattr__(self, "weight_values", values)

    @cached_property
    def weights(self) -> MappingProxyType:
        """Read-only ``{unit index: weight}`` view of the two arrays."""
        return MappingProxyType(
            dict(zip(self.weight_index.tolist(), self.weight_values.tolist()))
        )

    def __eq__(self, other):
        # the generated __eq__ compares fields as tuple items (identity, then
        # ==), which raises on arrays of more than one element
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a is b or a == b
                   for a, b in pairs)


_NO_WEIGHTS = np.empty(0)


def _infeasible(direction: str, treated_mean: float, warnings=()) -> BoundResult:
    return BoundResult(
        estimate=math.nan,
        direction=direction,
        weight_index=_NO_WEIGHTS,
        weight_values=_NO_WEIGHTS,
        active_shift=None,
        se=math.nan,
        status="infeasible",
        treated_mean=treated_mean,
        counterfactual_mean=math.nan,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# solve plans: a block of samples, one per row


@dataclass(frozen=True)
class _SortedRows:
    """Rows (B, W) of ascending values, searched row by row, exactly.

    A search in one row reads that row's values as they are.  For more,
    NumPy orders complex numbers by their real part, then their imaginary
    part.  So with each value's row as the real part and the value itself as
    the imaginary part, the flattened rows ascend, and one
    :func:`numpy.searchsorted` searches every row at once, comparing the
    values themselves (a float offset per row would round them).
    """

    values: np.ndarray

    @cached_property
    def keys(self) -> np.ndarray:
        return _row_keys(np.arange(self.values.shape[0])[:, None], self.values).ravel()

    def searchsorted(self, x: np.ndarray, rows: np.ndarray | None,
                     side: str = "left") -> np.ndarray:
        """The flat position ``r * W + np.searchsorted(values[r], v, side)``
        of each ``v`` of ``x`` with its row ``r`` of ``rows`` (broadcast
        against ``x``; None for row 0)."""
        if rows is None or rows.size == 1:
            r = 0 if rows is None else int(rows.flat[0])
            return np.searchsorted(self.values[r], x, side) + r * self.values.shape[1]
        return np.searchsorted(self.keys, _row_keys(rows, x), side)


def _row_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The complex keys ``rows + 1j * values``, built without arithmetic."""
    keys = np.empty(np.broadcast_shapes(rows.shape, values.shape), dtype=complex)
    keys.real, keys.imag = rows, values
    return keys


@dataclass(frozen=True)
class _BlockCaps:
    """The control atoms of a block of B samples capped at each of
    ``gammas``: row ``j * B + i`` is sample i at ``gammas[j]``.

    Column ``c`` of a row stands for the cumulative weight on the ``c``
    lowest atoms; ``cum_caps`` and ``cum_moments`` hold the capacity
    (``gamma / n0`` per unit) of those atoms and its outcome-weighted sum.
    Outcomes enter the moments relative to the row's lowest atom, so their
    rounding scales with the outcome range, not with the outcome level.  A
    row has ``width`` = K + 1 columns, K the most atoms of a sample; a
    sample with fewer is padded with zero capacity (and its last atom), so
    its cumulative rows stay level there.  The rows are kept flat, so column
    ``c`` of row ``r`` sits at ``r * width + c`` of ``atoms``, ``cum_caps``
    and ``cum_moments``.
    """

    gammas: np.ndarray
    width: int
    atoms: np.ndarray
    cum_caps: np.ndarray
    cum_moments: np.ndarray
    sorted_caps: _SortedRows


@dataclass(frozen=True)
class _BandGroup:
    """The KS bands of the samples of a block whose bands share a width L
    and one band builder call.

    ``bands.cols`` (M, L) holds one row of breakpoint columns per sample
    ``samples[i]``, and row r of ``bands.top``/``bands.bottom`` is shift
    ``shift[r]`` of sample ``samples[member[r]]``; the rows come sample by
    sample, in the order of ``samples``.
    """

    samples: np.ndarray
    member: np.ndarray
    shift: np.ndarray
    bands: _Bands


@dataclass(frozen=True)
class _BlockPlan:
    """The part of a distributional solve that depends on neither ``gamma``
    nor ``delta``, for a block of samples, one per row; a single sample is a
    block of one row.

    Row i is sample i: its K distinct control outcomes ``atoms[i, :K]``
    (then the last repeated) with their ``counts`` (then 0), each control
    unit's atom ``inverse[i, :n0[i]]`` (as :func:`numpy.unique` gives them),
    its S grid shifts ``shifts[i, :S]`` (S = ``n_shifts[i]``: 1 for a
    degenerate grid, else 2m+1) with their :attr:`ShiftGrid.rank`
    ``rank[i, :S]``, and its treated mean.  ``groups`` holds the KS bands of
    every shift at their breakpoint columns, by band builder call and width.
    """

    atoms: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    n0: np.ndarray
    treated_mean: np.ndarray
    shifts: np.ndarray
    rank: np.ndarray
    n_shifts: np.ndarray
    groups: tuple[_BandGroup, ...]

    def capped(self, gammas) -> _BlockCaps:
        """The atoms with capacity gamma / n0 per unit at each of ``gammas``."""
        gammas = np.asarray(gammas, dtype=float)
        k = self.counts.shape[1]
        # caps from gamma itself: rescaling a gamma = 1 cumsum rounds differently
        caps = self.counts * (gammas[:, None] / self.n0)[..., None]
        atoms = np.tile(np.concatenate([self.atoms, self.atoms[:, -1:]], axis=1),
                        (gammas.size, 1))
        cum_caps = np.zeros((caps.size // k, k + 1))
        cum_moments = np.zeros_like(cum_caps)
        np.cumsum(caps.reshape(-1, k), axis=1, out=cum_caps[:, 1:])
        np.cumsum((caps * (self.atoms - self.atoms[:, :1])).reshape(-1, k), axis=1,
                  out=cum_moments[:, 1:])
        return _BlockCaps(gammas, k + 1, atoms.ravel(), cum_caps.ravel(),
                          cum_moments.ravel(), _SortedRows(cum_caps))

    def unit_weights(self, i: int, masses: np.ndarray) -> np.ndarray:
        """Sample i's per-atom ``masses`` split equally among the atom's units."""
        return (masses / self.counts[i, :masses.size])[self.inverse[i, :self.n0[i]]]


def _row_atoms(arrays, inverse: bool = False):
    """:func:`numpy.unique` of each of the nonempty finite ``arrays``, as
    rows: the atoms and their counts, padded on the right (as in
    :class:`_BlockPlan`), the number of atoms per row and, with ``inverse``,
    each value's atom in its row (B, N), padded on the right.  The arrays
    are sorted as the rows of one array padded with inf."""
    sizes = np.array([a.size for a in arrays])
    n_rows, width = sizes.size, max(a.size for a in arrays)
    v = _pad_rows(np.concatenate(arrays), sizes, np.inf)
    if inverse:
        order = np.argsort(v, axis=1) + np.arange(0, v.size, width)[:, None]  # flat
        v = v.ravel()[order]
    else:
        v.sort(axis=1)
    new = np.ones(v.shape, dtype=bool)
    np.not_equal(v[:, 1:], v[:, :-1], out=new[:, 1:])
    short = np.flatnonzero(sizes < width)
    new[short, sizes[short]] = False  # the padding starts no atom
    starts = np.flatnonzero(new)  # flat, row after row
    k = new.sum(axis=1)
    ends = np.concatenate((starts[1:], [v.size]))
    if short.size:  # each row's last atom ends at its size
        ends[np.cumsum(k) - 1] = np.arange(0, v.size, width) + sizes
    atoms, counts = _pad_rows(v.ravel()[starts], k), _pad_rows(ends - starts, k, 0)
    if not inverse:
        return atoms, counts, k
    inverse = np.empty(v.shape, dtype=np.intp)
    inverse.ravel()[order] = np.cumsum(new, axis=1) - 1
    return atoms, counts, k, inverse


def _pad_rows(flat: np.ndarray, k: np.ndarray, fill=None) -> np.ndarray:
    """The runs of ``flat``, ``k[i]`` entries for row i, as the rows of one
    array padded on the right with ``fill``, or with each run's last entry."""
    if k.size == 1:
        return flat[None]
    fill = flat[np.cumsum(k) - 1, None] if fill is None else fill
    rows = np.full((k.size, k.max()), fill, dtype=flat.dtype)
    rows[np.arange(k.max()) < k[:, None]] = flat
    return rows


def _block_plan(rows, m: int, ks_mode: str) -> _BlockPlan:
    """The solve plan of every row ``(control outcomes, treated outcomes,
    lo, hi)`` of ``rows``: the controls (nonempty) against the ECDF of the
    treated outcomes (nonempty), on the shift grid of resolution ``m`` over
    values from ``lo`` to ``hi`` (the row's least and greatest, which
    :func:`~drci.distributions.shift_grid` takes of its values).  Row-wise
    sorts give the distinct atoms of both arms, the treated ECDF masses come
    from :func:`~drci.distributions.ecdf`'s own rule
    (:func:`~drci.distributions._count_masses`), and each row's shift grid
    and tie order come from the row-wise helpers of
    :func:`~drci.distributions.shift_grid`.

    The band builders count the atoms and read the treated CDF with one
    :meth:`_SortedRows.searchsorted` per arm.  In grid mode the bands of all
    non-degenerate rows come from one :func:`~drci.distributions._grid_bands`
    call; the exact-KS rows (2m+1 shifts) and the degenerate rows (the one
    shift 0) come from one :func:`~drci.distributions._exact_bands` call
    each.  A row whose grid or band points overflow is refused.
    """
    controls, treated, lo, hi = zip(*rows)
    n_rows = len(controls)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    with np.errstate(over="ignore"):  # a range that overflows is refused
        span = _finite(hi - lo)
    shifts = _grid_shifts(span, m)  # an all-zero row where span == 0
    n_shifts = np.where(span == 0, 1, shifts.shape[1])

    atoms, counts, k0, inverse = _row_atoms(controls, inverse=True)
    t_atoms, t_counts, k1 = _row_atoms(treated)
    masses = _count_masses(t_counts, np.array([t.size for t in treated]))  # ecdf's masses
    t_cdf = np.zeros((n_rows, masses.shape[1] + 1))  # [0, WeightedEcdf.cum]
    t_cdf[:, 1:] = np.minimum(np.cumsum(masses, axis=1), 1.0)
    t_cdf[np.arange(n_rows), k1] = 1.0

    c_keys, t_keys = _SortedRows(atoms), _SortedRows(t_atoms)
    groups = []

    def add(rows, n, build, *args):  # the band groups of a builder on rows of n shifts
        g = rows[:, None]

        def upto(keys, x):  # each point's number of row values up to it
            return keys.searchsorted(x, g, side="right") - keys.values.shape[1] * g

        # searches past a row's last atom also count its padding
        for members, bands in build(*args, lambda x: np.minimum(upto(c_keys, x), k0[g]),
                                    lambda x: t_cdf[g, np.minimum(upto(t_keys, x), k1[g])]):
            groups.append(_BandGroup(rows[members], np.repeat(np.arange(members.size), n),
                                     np.tile(np.arange(n), members.size), bands))

    on_grid = (span > 0) if ks_mode == "grid" else np.zeros(n_rows, dtype=bool)
    grid_rows = np.flatnonzero(on_grid)
    if grid_rows.size:
        add(grid_rows, shifts.shape[1], _grid_bands, lo[grid_rows], span[grid_rows], m)
    for n in np.unique(n_shifts[~on_grid]):  # 2m+1 on exact-KS rows, 1 on degenerate ones
        rows = np.flatnonzero(~on_grid & (n_shifts == n))
        add(rows, n, _exact_bands, atoms[rows], k0[rows], shifts[rows, :n], t_atoms[rows])
    return _BlockPlan(
        atoms=atoms, counts=counts, inverse=inverse,
        n0=np.array([c.size for c in controls]),
        treated_mean=np.array([t.mean() for t in treated]),
        shifts=shifts, rank=_shift_rank(shifts), n_shifts=n_shifts, groups=tuple(groups))


def _att_plan(data: Dataset, m: int, ks_mode: str) -> _BlockPlan:
    """The one-row plan of the ATT models: the controls against the treated
    ECDF on the grid of resolution ``m`` over all outcomes."""
    return _block_plan([(data.control_y, data.treated_y, data.y.min(), data.y.max())],
                       m, ks_mode)


# ---------------------------------------------------------------------------
# per-shift subproblem: extreme weighted means under cumulative bands


def _breakpoint_extremes(lo: np.ndarray, hi: np.ndarray, p: np.ndarray):
    """Least and greatest feasible cumulative weights at the breakpoints.

    ``lo``/``hi`` (S, L) bound the cumulative weight at the breakpoint
    columns; the first is pinned to 0, the last to the total mass 1.  ``p``
    (L,), or (S, L) with one row per shift, is the capacity below each
    breakpoint.  Returns
    ``(feasible, c_least, c_great)`` with the cumulatives (S, L-1) at the
    breakpoints after the first.  A column between breakpoints has band
    ``[0, 1]`` and never wins the scans' max/min, so these are exactly the
    values the scans over all K+1 columns give at the breakpoints.
    """
    feasible = _pinned_ok(lo, hi)
    lo_c = np.clip(lo, 0.0, 1.0)
    hi_c = np.clip(hi, 0.0, 1.0)
    lo_c[:, 0] = 0.0
    hi_c[:, 0] = 0.0
    lo_c[:, -1] = 1.0
    hi_c[:, -1] = 1.0

    # least element: backward propagation of lower bounds through capacities
    g = lo_c - p
    m_suffix = np.flip(np.maximum.accumulate(np.flip(g, axis=1), axis=1), axis=1)
    r = p + m_suffix
    feasible &= r[:, 0] <= _TOL
    c_least = np.maximum.accumulate(r[:, 1:], axis=1)
    feasible &= np.all(c_least <= hi_c[:, 1:] + _TOL, axis=1)

    # greatest element: forward propagation of upper bounds
    hh = np.flip(np.minimum.accumulate(np.flip(hi_c, axis=1), axis=1), axis=1)
    d = hh - p
    d[:, 0] = 0.0  # cumulative starts at zero
    c_great = p[..., 1:] + np.minimum.accumulate(d, axis=1)[:, 1:]
    feasible &= np.all(c_great >= lo_c[:, 1:] - _TOL, axis=1)

    c_least[:, -1] = 1.0
    c_great[:, -1] = 1.0
    return feasible, c_least, c_great


def _pinned_ok(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows of the bands ``lo``/``hi`` (S, L) that admit the pinned
    cumulatives: 0 at the first column and 1 at the last."""
    return ((lo[:, 0] <= _TOL) & (hi[:, 0] >= -_TOL)
            & (lo[:, -1] <= 1 + _TOL) & (hi[:, -1] >= 1 - _TOL))


def _screen(lo: np.ndarray, hi: np.ndarray, gamma: float) -> np.ndarray:
    """Rows of the bands ``lo``/``hi`` (S, L) at one delta that may be
    feasible at some gamma up to ``gamma``.

    The pinned columns are tested by :func:`_pinned_ok`.  At an interior
    column a feasible row's least element lies between the clipped lower
    band less the scan's rounding (about ``2 eps (1 + gamma)``, the
    capacities reaching gamma) and the clipped upper band plus ``_TOL``.  So
    a row whose clipped lower band exceeds the upper by more than ``_TOL``
    plus twice that rounding is infeasible at every such gamma.
    """
    margin = _TOL + 4 * np.finfo(float).eps * (1 + gamma)
    gap = np.clip(lo[:, 1:-1], 0.0, 1.0) - np.clip(hi[:, 1:-1], 0.0, 1.0)
    return _pinned_ok(lo, hi) & np.all(gap <= margin, axis=1)


def _bucket_means(caps: _BlockCaps, cell: np.ndarray | None, cols: np.ndarray,
                  cum: np.ndarray, from_top: bool) -> np.ndarray:
    """Weighted mean per row of the allocation with cumulative weight
    ``cum`` (N, L-1) at its breakpoint columns after the first, filling each
    bucket's mass greedily from its top atom (the least element) or its
    bottom atom (the greatest).  Row r reads caps row ``cell[r]`` at the
    flat positions ``cols[r]`` (or ``cols[0]``), as in :class:`_ShiftSolve`.

    Full atoms add a prefix-sum difference; one partial atom per bucket
    takes the rest, which also absorbs the rounding overshoot of the scans.
    """
    p, q, atoms = caps.cum_caps, caps.cum_moments, caps.atoms
    search = partial(caps.sorted_caps.searchsorted, rows=cell)
    low = atoms[cols[:, :1]]
    start, end = cols[:, :-1], cols[:, 1:]
    need = np.diff(cum, prepend=0.0, axis=1)
    if from_top:
        p_end = p[end]
        cut = np.clip(search(p_end - need), start, end)
        full_mass, full_moment = p_end - p[cut], q[end] - q[cut]
        edge = np.maximum(cut - 1, start)
    else:
        p_start = p[start]
        cut = np.clip(search(p_start + need, side="right") - 1, start, end)
        full_mass, full_moment = p[cut] - p_start, q[cut] - q[start]
        edge = np.minimum(cut, end - 1)
    rest = (need - full_mass) * (atoms[edge] - low)
    return (low + (full_moment + rest).sum(axis=1, keepdims=True))[:, 0]


def _bucket_cumulative(cols: np.ndarray, c: np.ndarray, p: np.ndarray,
                       from_top: bool) -> np.ndarray:
    """Cumulative weight (K,) at columns 1..K of one row's bucket fill."""
    bucket = np.repeat(np.arange(1, cols.size), np.diff(cols))
    c_cols = np.concatenate(([0.0], c))
    prev, nxt = c_cols[bucket - 1], c_cols[bucket]
    if from_top:
        return np.maximum(prev, nxt - (p[cols[bucket]] - p[1:]))
    return np.minimum(prev + (p[1:] - p[cols[bucket - 1]]), nxt)


def _masses(cum: np.ndarray) -> np.ndarray:
    return np.maximum(np.diff(cum, prepend=0.0), 0.0)


@dataclass(frozen=True)
class _ShiftSolve:
    """Feasibility and attainable weighted-mean ranges of N band rows, row r
    under the capacities of caps row ``cell[r]`` (``cell`` is (N, 1), or
    (1, 1) when every row shares it, or None when every row reads caps row
    0).

    ``cols`` (N, L), or (1, L) when every row shares it, holds each row's
    breakpoint columns as flat positions in ``caps``.  The extreme
    allocations are kept as their cumulative weights at the breakpoints
    after the first; ``caps.cum_caps`` expands one to all atoms.  A
    weighted-mean range end is computed only for the rows a caller asks for
    (:meth:`extreme`), so a caller pays for the rows and the direction it
    reads; :meth:`weights_for` computes both ends at its one row only.
    """

    caps: _BlockCaps
    cell: np.ndarray | None
    cols: np.ndarray
    feasible: np.ndarray
    c_least: np.ndarray
    c_great: np.ndarray

    def extreme(self, from_top: bool, rows=slice(None)) -> np.ndarray:
        """The greatest (``from_top``) or least weighted mean of each of
        ``rows`` (an index array or a slice; all rows by default), by one
        row-wise reduction whatever the rows."""
        cum = self.c_least if from_top else self.c_great
        cell, cols = (a if a is None or a.shape[0] == 1 else a[rows]
                      for a in (self.cell, self.cols))
        return _bucket_means(self.caps, cell, cols, cum[rows], from_top)

    def extreme_masses(self, r: int, from_top: bool) -> np.ndarray:
        """Per-atom masses of row r's least element filled from the top
        (``from_top``) or its greatest filled from the bottom."""
        cols = self.cols[r if self.cols.shape[0] > 1 else 0]
        cum = self.c_least if from_top else self.c_great
        p = self.caps.cum_caps[cols[0]:cols[-1] + 1]
        return _masses(_bucket_cumulative(cols - cols[0], cum[r], p, from_top))

    def weights_for(self, r: int, value: float) -> np.ndarray:
        """Per-atom masses attaining ``value`` at row r: the two extreme
        allocations' masses blended (any intermediate mean is attainable)."""
        masses = self.extreme_masses(r, True)
        one = slice(r, r + 1)
        f_max, f_min = self.extreme(True, one)[0], self.extreme(False, one)[0]
        if not f_max - f_min <= _TIE_TOL:  # an overflowed (NaN) range blends too
            lam = np.clip((value - f_min) / (f_max - f_min), 0.0, 1.0)
            masses = lam * masses + (1.0 - lam) * self.extreme_masses(r, False)
        return masses


def _shift_solve(caps: _BlockCaps, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 cell: np.ndarray | None = None) -> _ShiftSolve:
    """Solve the per-shift weighted-mean extremes of every row of the bands
    ``lo``/``hi`` (N, L): row r holds the cumulative weight at its
    breakpoint columns ``cols[r]`` (or ``cols[0]``, shared) in ``[lo[r],
    hi[r]]``, under the capacities of caps row ``cell[r]`` (``cell`` (N, 1)
    or (1, 1), shared), or of caps row 0 (``cell`` None)."""
    if cell is None or caps.cum_caps.size == caps.width:  # all rows read caps row 0
        cell = None
    else:
        cols = cols + caps.width * cell
    return _ShiftSolve(caps, cell, cols, *_breakpoint_extremes(lo, hi, caps.cum_caps[cols]))


def _sample_solve(plan: _BlockPlan, caps: _BlockCaps, delta: float, i: int) -> _ShiftSolve:
    """The :func:`_shift_solve` of sample i of ``plan`` at the one gamma of
    ``caps`` and at ``delta``: row j is shift j."""
    (group,) = [g for g in plan.groups if i in g.samples]
    rows = group.member == np.flatnonzero(group.samples == i)[0]
    lo, hi = group.bands.at(delta)
    return _shift_solve(caps, group.bands.cols[group.samples == i], lo[rows], hi[rows],
                        np.array([[i]]))


def _scan(plan: _BlockPlan, caps: _BlockCaps, delta: float, directions, windows=None):
    """Yield the best feasible shift of every sample of ``plan`` at every
    gamma of ``caps`` and at ``delta``, in each of ``directions`` ("lower"
    maximizes the weighted control mean, "upper" minimizes it).

    Yields ``(solve, j, sample, shift, picks)`` per band group and gamma
    ``caps.gammas[j]``: the :class:`_ShiftSolve` of the group's rows, each
    row's sample and shift (the index into the sample's grid), and per
    direction the picked rows of ``solve`` and their values, one per sample
    that has a feasible shift.

    With ``windows = (wlo, whi)``, sample i's weighted mean must reach
    ``[wlo[i], whi[i]]``: a shift counts only if its attainable range meets
    the window, and its value is clipped to it.  Of the values that tie
    within ``_TIE_TOL``, the shift of lowest :attr:`ShiftGrid.rank` wins
    (:func:`~drci.distributions._pick`).

    Per band group, :func:`_screen` drops the shifts infeasible at every
    gamma; at each gamma, the rest go into one :func:`_shift_solve`, each
    row with its own sample's capacities.  Each direction reads the weighted
    means of the feasible rows only, and picks one row per sample.
    """
    n_samples = plan.n0.size
    for group in plan.groups:
        lo, hi = group.bands.at(delta)
        band = np.flatnonzero(_screen(lo, hi, caps.gammas.max()))
        lo, hi = lo[band], hi[band]
        member = group.member[band]
        sample, shift = group.samples[member], group.shift[band]
        # a group of one sample keeps its one row of columns, which all rows share
        cols = group.bands.cols if group.samples.size == 1 else group.bands.cols[member]
        rank = plan.rank[sample, shift]
        for j in range(caps.gammas.size):
            solve = _shift_solve(caps, cols, lo, hi, (j * n_samples + sample)[:, None])
            feasible = np.flatnonzero(solve.feasible)
            picks = []
            for direction in directions:
                maximize = direction == "lower"
                ok, values = feasible, solve.extreme(maximize, feasible)
                if windows is not None:
                    wlo, whi = (w[sample[ok]] for w in windows)
                    other = solve.extreme(not maximize, ok)
                    obj_max, obj_min = (values, other) if maximize else (other, values)
                    inside = (obj_max >= wlo - _TOL) & (obj_min <= whi + _TOL)
                    values = np.minimum(values, whi) if maximize else np.maximum(values, wlo)
                    ok, values = ok[inside], values[inside]
                # one group per sample: its rows are consecutive
                pick = _pick(values, member[ok], rank[ok], maximize, _TIE_TOL) if ok.size else ok
                picks.append((ok[pick], values[pick]))
            yield solve, j, sample, shift, picks


def _select_shift(values: np.ndarray, ok: np.ndarray, rank: np.ndarray,
                  maximize: bool, tol: float = _TIE_TOL) -> int | None:
    """Index of the best ``ok`` entry by :func:`~drci.distributions._pick`,
    ``rank`` being :attr:`ShiftGrid.rank` for a shift and ``rank[j1] * S +
    rank[j2]`` for a pair of shifts."""
    cand = np.flatnonzero(ok)
    if not cand.size:
        return None
    (pick,) = _pick(values[cand], np.zeros(cand.size, dtype=np.intp), rank[cand],
                    maximize, tol)
    return int(cand[pick])

# ---------------------------------------------------------------------------
# marginal sensitivity model


def marginal_att_bound(data: Dataset, gamma: float, direction: str = "lower") -> BoundResult:
    """Sharp ATT bound with control weights in ``[1/(gamma n0), gamma/n0]``.

    The weighted-mean extremum over the box-constrained simplex is a
    fractional-knapsack: saturate extreme weights in outcome order, leaving
    at most one fractional weight.
    """
    SensitivityConfig(gamma=gamma, direction=direction)  # validates the knobs
    y0 = data.control_y
    n0 = y0.size
    lo, hi = 1.0 / (gamma * n0), gamma / n0
    w = np.full(n0, lo)
    budget = 1.0 - n0 * lo
    # maximize for the lower ATT bound, minimize for the upper
    order = np.lexsort((np.arange(n0), -y0 if direction == "lower" else y0))
    room = hi - lo
    if room > 0 and budget > 0:
        take = np.minimum(room, np.maximum(0.0, budget - room * np.arange(n0)))
        w[order] += take
    w /= w.sum()  # absorb roundoff; exact to float precision already
    counterfactual = float(w @ y0)
    treated_mean = float(data.treated_y.mean())
    return _optimal_result(data, direction, w, counterfactual, treated_mean, None)


def _optimal_result(data, direction, control_weights, counterfactual,
                    treated_mean, active_shift, warnings=()) -> BoundResult:
    if not math.isfinite(treated_mean - counterfactual):  # either mean, or the estimate
        raise ValueError("outcome scale too large: a mean or the estimate overflows")
    se = (
        conditional_se(data, control_weights)
        if data.n1 >= 2
        else math.nan
    )
    return BoundResult(
        estimate=treated_mean - counterfactual,
        direction=direction,
        weight_index=data.control_indices,
        weight_values=control_weights,
        active_shift=active_shift,
        se=se,
        status="optimal",
        treated_mean=treated_mean,
        counterfactual_mean=counterfactual,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# total-variation model


def tv_att_bound(data: Dataset, lambda_tv: float, direction: str = "lower") -> BoundResult:
    """ATT bound over control weights within TV distance ``lambda_tv`` of
    uniform, in closed form.

    The weighted mean is linear in the mass moved, so the optimum moves the
    whole budget ``min(lambda_tv, 1 - 1/n0)`` onto one unit with an extreme
    outcome (the highest for the lower bound, the lowest for the upper) and
    takes it from the other units, each down to zero, starting from the
    opposite extreme.  Ties in outcome go to the lowest unit index, so the
    weights are deterministic.
    """
    SensitivityConfig(lambda_tv=lambda_tv, direction=direction)  # validates the knobs
    y0 = data.control_y
    n0 = y0.size
    u = 1.0 / n0
    # donors first to last; the best unit (lowest index among ties) receives
    key = y0 if direction == "lower" else -y0
    order = np.lexsort((np.arange(n0), key))
    receiver = order[np.searchsorted(key[order], key[order[-1]])]
    donors = order[order != receiver]
    moved = min(lambda_tv, 1.0 - u)
    take = np.minimum(u, np.maximum(0.0, moved - u * np.arange(n0 - 1)))
    w = np.full(n0, u)
    w[donors] -= take
    w[receiver] += take.sum()
    treated_mean = float(data.treated_y.mean())
    return _optimal_result(data, direction, w, float(w @ y0), treated_mean, None)


# ---------------------------------------------------------------------------
# distributional sensitivity model


def distributional_att_bound(data: Dataset, config: SensitivityConfig) -> BoundResult:
    """Sharp ATT bound under the shape-up-to-shift ambiguity set.

    Enumerates the 2m+1 grid shifts (the feasibility binaries admit exactly
    one active shift), optimizes the weighted control mean per shift, and
    returns the best feasible shift.  Infeasibility (no shift admits weights
    within KS distance ``delta``) is a valid return, not an error.
    """
    return _distributional_core(data, config, mean_window=None)


def _distributional_core(data: Dataset, config: SensitivityConfig,
                         mean_window: tuple[float, float] | None,
                         plan: _BlockPlan | None = None) -> BoundResult:
    """The bound of the ATT models, with the weighted control mean held in
    ``mean_window`` if given; ``plan`` is the sample's :func:`_att_plan`, if
    the caller has built it."""
    if plan is None:
        plan = _att_plan(data, config.m, config.ks_mode)
    if config.wants_balance:
        return _distributional_lp_route(data, config, mean_window, plan)
    windows = None if mean_window is None else tuple(np.array([w]) for w in mean_window)
    (bound,) = _att_bounds(data, plan, plan.capped([config.gamma]), config.delta,
                           (config.direction,), windows)
    return bound


def _att_bounds(data: Dataset, plan: _BlockPlan, caps: _BlockCaps, delta: float,
                directions, windows) -> list[BoundResult]:
    """The bound in each of ``directions`` from one :func:`_scan` of the
    one-row ``plan`` at the one gamma of ``caps``: the best feasible shift,
    its weights expanded to the control units, and their SE."""
    treated_mean = float(plan.treated_mean[0])
    ((solve, _, _, shift, picks),) = _scan(plan, caps, delta, directions, windows)

    def bound(direction, rows, values):
        if not rows.size:
            return _infeasible(direction, treated_mean)
        r, value = int(rows[0]), float(values[0])
        return _optimal_result(data, direction, plan.unit_weights(0, solve.weights_for(r, value)),
                               value, treated_mean, float(plan.shifts[0, shift[r]]))
    return [bound(direction, *pick) for direction, pick in zip(directions, picks)]


def _distributional_sweep(data: Dataset, config: SensitivityConfig, gammas,
                          deltas):
    """Yield ``(lower, upper)``, each the :func:`distributional_att_bound`
    result bit for bit, for every (gamma, delta) in row-major order, with
    the other knobs from the balance-free ``config``.  One plan serves the
    whole grid: one capped atom set per gamma, one scan of both directions
    per cell."""
    plan = _att_plan(data, config.m, config.ks_mode)
    for gamma in gammas:
        caps = plan.capped([gamma])
        for delta in deltas:
            yield tuple(_att_bounds(data, plan, caps, delta, ("lower", "upper"), None))


def _distributional_lower_block(draws, gammas, delta: float, m: int,
                                ks_mode: str) -> np.ndarray:
    """``distributional_att_bound(...).estimate`` of the lower bound of each
    sample ``(y, t)`` of ``draws`` (rows, both arms nonempty) at each of
    ``gammas`` (columns), bit for bit (NaN where infeasible), with no
    weights, SE or :class:`BoundResult`: one :func:`_block_plan` for the
    block, capped at every gamma at once, and one :func:`_scan`."""
    plan = _block_plan([(y[t == 0], y[t == 1], y.min(), y.max()) for y, t in draws],
                       m, ks_mode)
    out = np.full((plan.n0.size, len(gammas)), np.nan)
    for _, j, sample, _, ((picked, values),) in _scan(
            plan, plan.capped([float(g) for g in gammas]), delta, ("lower",)):
        out[sample[picked], j] = plan.treated_mean[sample[picked]] - values
    return out


def _distributional_lp_route(data: Dataset, config: SensitivityConfig,
                             mean_window: tuple[float, float] | None,
                             plan: _BlockPlan) -> BoundResult:
    """Shift enumeration with per-shift LPs; needed once covariate-balance
    terms couple the objective across atoms.

    The balance terms only add rows or a nonnegative penalty, so the
    balance-free kernel on the same bands screens and bounds the LPs.  The
    bands are widened by the LP's row tolerance first, so that the kernel
    relaxes every point the LP can certify: a shift the kernel finds
    infeasible, or whose weighted-mean range misses the DiD/CIC mean window,
    has no LP solution, and its extreme weighted mean bounds the shift's LP
    value.  Shifts are solved best bound first until no bound left can
    reach the incumbent, and ``_select_shift`` picks among the solved ones
    by the kernel route's rule (the best value, then the lowest
    :attr:`ShiftGrid.rank`), so the result is the one a solve of every
    shift gives.  Values within ``_TIE_TOL`` times ``1 + max|y0|`` tie: the
    LP values carry roundoff of the outcome scale, and which of two tied
    shifts a pivot path favours must not decide the pick.  Each LP starts
    from its shift's extreme weights in one kernel solve of the unwidened
    bands (:meth:`_ShiftSolve.extreme_masses`).  The penalty and the cap
    are two forms of one balance term, so a config setting both is refused.
    """
    if config.balance_lambda > 0 and config.balance_epsilon is not None:
        raise ValueError("balance_lambda and balance_epsilon exclude each other: "
                         "set the penalty or the cap, not both")
    y0 = data.control_y
    treated_mean = float(plan.treated_mean[0])
    caps = plan.capped([config.gamma])
    (group,) = plan.groups

    lp = _balance_lp(data, config, balance_terms(data, config.balance_lambda),
                     group.bands.cols[0], plan.inverse[0], mean_window)
    maximize = config.direction == "lower"
    lo, hi = group.bands.at(config.delta)
    cols = group.bands.cols
    screen = _shift_solve(caps, cols, lo - _LP_ROW_TOL, hi + _LP_ROW_TOL)
    feasible, obj_min, obj_max = screen.feasible, screen.extreme(False), screen.extreme(True)
    # the LP has no row for column 0; both pinned columns keep the kernel's tolerance
    feasible &= _pinned_ok(lo, hi)
    scale = 1.0 + float(np.abs(y0).max())
    slack = 1e-9 * scale
    if mean_window is not None:
        # the LP certifies its window and total-mass rows to the row tolerance
        wlo, whi = mean_window
        reach = _LP_ROW_TOL * scale + slack
        feasible &= (obj_max >= wlo - reach) & (obj_min <= whi + reach)
    # bounds on each shift's LP value, oriented so that smaller is better
    bound = -obj_max if maximize else obj_min
    rank = plan.rank[0, :plan.n_shifts[0]]
    cand = np.flatnonzero(feasible)
    cand = cand[np.lexsort((rank[cand], bound[cand]))]

    start = _shift_solve(caps, cols, lo, hi)
    values = np.full(rank.size, np.nan)  # penalized LP value per solved shift
    solved = {}  # shift index -> control weights
    best = math.inf  # best oriented value so far
    for j in cand:
        if bound[j] > best + slack:
            break
        sol = _solve_balance_lp(lp, lo[j], hi[j],
                                plan.unit_weights(0, start.extreme_masses(j, maximize)))
        if sol is None:
            continue
        values[j], solved[j] = sol
        best = min(best, -values[j] if maximize else values[j])
    pick = _select_shift(values, ~np.isnan(values), rank, maximize,
                         tol=_TIE_TOL * scale)
    if pick is None:
        return _infeasible(config.direction, treated_mean)
    w = solved[pick]
    return _optimal_result(data, config.direction, w, float(w @ y0), treated_mean,
                           float(plan.shifts[0, pick]))


@dataclass(frozen=True)
class _BalanceLp:
    """What no shift changes in the balance route's LPs over [control weights,
    balance slacks]: ``band_rows``, per breakpoint after the first the indicator
    row of the units below it and its negation, and ``shared``, the LP without
    band rows (two rows per covariate, then the cap and mean-window rows)."""

    band_rows: np.ndarray
    shared: LpProblem


def _balance_lp(data, config, bal, cols, inverse, mean_window) -> _BalanceLp:
    """The shift-free parts of the balance route's LPs, for the control
    units of atoms ``inverse`` and the breakpoint columns ``cols``."""
    y0 = data.control_y
    n0, n_aux = y0.size, bal.n_covariates
    maximize = config.direction == "lower"

    c = np.concatenate([y0, np.zeros(n_aux)])
    if bal.lam > 0:
        # penalty always degrades the optimum
        c[n0:] = -bal.lam if maximize else bal.lam
    below = (inverse < cols[1:, None]).astype(float)
    band_rows = np.zeros((below.shape[0], 2, c.size))
    band_rows[:, 0, :n0], band_rows[:, 1, :n0] = below, -below

    # per covariate j: x_j @ w - s_j <= mean_j, then -x_j @ w - s_j <= -mean_j
    x, means = bal.control_x.T, bal.treated_means
    cov = np.zeros((n_aux, 2, c.size))
    cov[:, 0, :n0], cov[:, 1, :n0] = x, -x
    cov[np.arange(n_aux), :, n0 + np.arange(n_aux)] = -1.0
    # (weights part, slacks part, bound) of the cap and window rows, if finite
    cap = math.inf if config.balance_epsilon is None else config.balance_epsilon
    wlo, whi = (-math.inf, math.inf) if mean_window is None else mean_window
    rows = [row for row in ((np.zeros(n0), 1.0, cap), (y0, 0.0, whi), (-y0, 0.0, -wlo))
            if math.isfinite(row[2])]
    # slack never needs to exceed the worst attainable imbalance; a finite
    # cap keeps the LP well scaled
    s_caps = np.maximum(np.abs(means - x.min(axis=1)), np.abs(means - x.max(axis=1))) + 1.0
    shared = LpProblem(
        c=c,
        sense="max" if maximize else "min",
        a_ub=np.concatenate([cov.reshape(2 * n_aux, c.size)] + [
            np.concatenate([w, np.full(n_aux, s)])[None] for w, s, _ in rows]),
        b_ub=np.concatenate([np.stack([means, -means], axis=1).ravel(),
                             [b for *_, b in rows]]),
        a_eq=np.concatenate([np.ones(n0), np.zeros(n_aux)])[None, :],
        b_eq=[1.0],
        lower=np.zeros(c.size),
        upper=np.concatenate([np.full(n0, min(config.gamma / n0, 1.0)), s_caps]),
    )
    return _BalanceLp(band_rows, shared)


def _solve_balance_lp(lp: _BalanceLp, lo_row: np.ndarray, hi_row: np.ndarray,
                      w0: np.ndarray):
    """The LP of the shift with band ``lo_row``/``hi_row`` (L,), started at
    the control weights ``w0`` (the kernel's extreme allocation of the
    shift), slacks 0."""
    n0, shared = w0.size, lp.shared
    active = np.stack([hi_row[1:] < 1, lo_row[1:] > 0], axis=1)
    x0 = np.zeros(shared.n_vars)
    x0[:n0] = w0
    sol = solve_lp(replace(
        shared, a_ub=np.concatenate([lp.band_rows[active], shared.a_ub]),
        b_ub=np.concatenate([np.stack([hi_row[1:], -lo_row[1:]], axis=1)[active],
                             shared.b_ub]),
        x0=x0))
    if sol.status != "optimal":
        return None
    return float(sol.objective_value), sol.x[:n0]


# ---------------------------------------------------------------------------
# ATC by symmetry


def atc_bound(data: Dataset, model: str, config: SensitivityConfig) -> BoundResult:
    """ATC bound: run the ATT machinery on label-swapped data and negate.

    Estimate convention: counterfactual treated mean (reweighted treated
    sample) minus the control mean.
    """
    flipped = "upper" if config.direction == "lower" else "lower"
    inner = _att_bound(data.swap_arms(), model, replace(config, direction=flipped))
    if inner.status != "optimal":
        return _infeasible(config.direction, math.nan, inner.warnings)
    return replace(inner, estimate=-inner.estimate, direction=config.direction,
                   treated_mean=inner.counterfactual_mean,
                   counterfactual_mean=inner.treated_mean)


def _att_bound(data: Dataset, model: str, config: SensitivityConfig) -> BoundResult:
    """The ATT bound of ``model`` (marginal, tv or distributional)."""
    if model in ("marginal", "tv"):
        _refuse_balance(config, f"the {model} model")
    if model == "marginal":
        return marginal_att_bound(data, config.gamma, config.direction)
    if model == "tv":
        return tv_att_bound(data, config.lambda_tv, config.direction)
    if model == "distributional":
        return distributional_att_bound(data, config)
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# covariate balance terms


@dataclass(frozen=True)
class BalanceTerms:
    """First-moment balance augmentation for the weight LP.

    Adds one slack ``s_j >= |mean_treated(X_j) - sum_i w_i X_ij|`` per
    covariate via two inequality rows; in Lagrangian form the objective
    gains ``lam * sum_j s_j``, in hard form ``sum_j s_j <= epsilon``.
    """

    treated_means: np.ndarray
    control_x: np.ndarray
    lam: float

    @property
    def n_covariates(self) -> int:
        return self.treated_means.size


def balance_terms(data: Dataset, lam: float) -> BalanceTerms:
    if not 0 <= lam < math.inf:
        raise ValueError("balance penalty must be finite and nonnegative")
    if data.x is None or data.covariate_dim == 0:
        raise ValueError("dataset carries no covariates")
    treated = data.x[data.t == 1]
    controls = data.x[data.t == 0]
    return BalanceTerms(
        treated_means=treated.mean(axis=0),
        control_x=controls,
        lam=float(lam),
    )


# ---------------------------------------------------------------------------
# fixed-weight standard error


def conditional_se(data: Dataset, weights) -> float:
    """Standard error treating the weights as fixed:
    ``sqrt(s1^2 / n1 + sum_i w_i^2 (Y_i - mu_w)^2)`` with ``s1^2`` the
    unbiased treated-outcome variance and ``mu_w`` the weighted control mean.

    ``weights`` is a vector over the control units in index order, or a
    mapping from control unit index to weight (absent units weigh zero).
    """
    if data.n1 < 2:
        raise ValueError("treated variance needs at least two treated units")
    if isinstance(weights, Mapping):
        w = _dense_control_weights(data, weights)
    else:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(
                f"weights must be a 1-D vector over the control units, got shape {w.shape}"
            )
        if w.size != data.n0:
            raise ValueError("weights must cover every control unit")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w < -1e-8) or abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must be nonnegative and sum to 1")
    y0 = data.control_y
    mu_w = float(w @ y0)
    s1_sq = float(np.var(data.treated_y, ddof=1))
    return math.sqrt(s1_sq / data.n1 + float(w**2 @ (y0 - mu_w) ** 2))


def _dense_control_weights(data: Dataset, weights: Mapping) -> np.ndarray:
    """The ``{unit index: weight}`` mapping as a vector over the controls."""
    try:
        keys = np.fromiter(map(operator.index, weights), np.int64, len(weights))
    except TypeError:
        raise ValueError("weight keys must be integer unit indices") from None
    controls = data.control_indices
    pos = np.minimum(np.searchsorted(controls, keys), controls.size - 1)
    stray = keys[controls[pos] != keys]
    if stray.size:
        raise ValueError(
            f"weights name units outside the control arm: {stray[:10].tolist()}"
        )
    w = np.zeros(data.n0)
    w[pos] = np.fromiter(weights.values(), float, len(weights))
    return w


# ---------------------------------------------------------------------------
# diagnostics


def minimal_achievable_ks(
    data: Dataset,
    gamma: float,
    m: int = 50,
    ks_mode: str = "grid",
    tol: float = 1e-9,
) -> float:
    """Smallest ``delta`` for which the distributional model is feasible.

    Bisects on the feasibility of the shift enumeration; the model at
    ``delta`` is feasible iff ``delta >=`` this threshold (up to ``tol``).
    The breakpoint bands do not depend on ``delta``, so they are built once
    and each step reruns only the breakpoint scans.
    """
    SensitivityConfig(gamma=gamma, m=m, ks_mode=ks_mode)  # validates the knobs
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    plan = _att_plan(data, m, ks_mode)
    caps = plan.capped([gamma])
    (group,) = plan.groups

    def feasible(delta: float) -> bool:
        return bool(_shift_solve(caps, group.bands.cols, *group.bands.at(delta)).feasible.any())

    lo_d, hi_d = 0.0, 1.0
    if feasible(lo_d):
        return 0.0
    while hi_d - lo_d > tol:
        mid = 0.5 * (lo_d + hi_d)
        if mid in (lo_d, hi_d):  # no float left between the two ends
            break
        if feasible(mid):
            hi_d = mid
        else:
            lo_d = mid
    return hi_d
