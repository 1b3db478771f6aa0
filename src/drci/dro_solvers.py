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
(:class:`_SolvePlan`, built by :func:`_control_bands`) depends on neither
``gamma`` nor ``delta``: it holds the shift grid, the distinct control atoms
with their counts, and the KS bands.  An evaluation caps the atoms at one
``gamma`` (:meth:`_SolvePlan.capped`) and runs one :func:`_shift_solve` at
one ``delta``, which serves both directions.  Every distributional route
here and in :mod:`drci.extensions` takes this path; a (gamma, delta) sweep
evaluates one plan per cell.  The Monte Carlo bias table builds the plans of
a block of replicates as padded rows (:func:`_block_plan`) from the same
row-wise grid, tie-order and band builders of :mod:`drci.distributions`,
caps them with the same :func:`_cumulative_caps`, stacks the block's scans
(:func:`_distributional_lower_block`) and picks by the same
:func:`~drci.distributions._pick`, for the lower bound's value only.

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

from .distributions import (Dataset, ShiftGrid, WeightedEcdf, _bands, _Bands, _count_masses,
                            _grid_bands, _grid_shifts, _pick, _shift_rank, ecdf, shift_grid)
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
# control-atom bookkeeping


@dataclass(frozen=True)
class _ControlAtoms:
    """Distinct control outcome values with per-atom capacities.

    Column ``j`` (0..K) stands for the cumulative weight on the ``j`` lowest
    atoms; ``cum_caps[j]`` and ``cum_moments[j]`` are the capacity of those
    atoms and its outcome-weighted sum.  Outcomes enter the moments relative
    to the lowest atom, so their rounding scales with the outcome range, not
    with the outcome level.
    """

    atoms: np.ndarray        # (K,) ascending
    counts: np.ndarray       # units per atom
    inverse: np.ndarray      # atom index per control unit
    cum_caps: np.ndarray     # (K+1,) [0, cumsum(caps)], caps = count * gamma / n0
    cum_moments: np.ndarray  # (K+1,) [0, cumsum(caps * (atoms - atoms[0]))]

    def unit_weights(self, masses: np.ndarray) -> np.ndarray:
        """Split per-atom masses equally among the atom's units."""
        return (masses / self.counts)[self.inverse]


@dataclass(frozen=True)
class _SolvePlan:
    """The part of a distributional solve that depends on neither ``gamma``
    nor ``delta``: the shift grid, the distinct control atoms (``atoms``,
    ``counts``, ``inverse`` as :func:`numpy.unique` returns them) and the KS
    bands of every shift at their breakpoint columns."""

    grid: ShiftGrid
    atoms: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    bands: _Bands

    def capped(self, gamma: float) -> _ControlAtoms:
        """The atoms with capacity ``gamma`` / n0 per unit."""
        # caps from gamma itself: rescaling a gamma = 1 cumsum rounds differently
        return _ControlAtoms(self.atoms, self.counts, self.inverse, *_cumulative_caps(
            self.atoms, self.counts * (gamma / self.inverse.size)))


def _cumulative_caps(atoms: np.ndarray, caps: np.ndarray):
    """``cum_caps`` and ``cum_moments`` of :class:`_ControlAtoms` for the
    ``atoms`` with capacities ``caps``, along the last axis."""
    cum_caps = np.zeros(caps.shape[:-1] + (caps.shape[-1] + 1,))
    cum_moments = np.zeros_like(cum_caps)
    np.cumsum(caps, axis=-1, out=cum_caps[..., 1:])
    np.cumsum(caps * (atoms - atoms[..., :1]), axis=-1, out=cum_moments[..., 1:])
    return cum_caps, cum_moments


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


def _bucket_means(ctrl, cols: np.ndarray, cum: np.ndarray, from_top: bool,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Weighted mean per row of the allocation with cumulative weight
    ``cum`` (S, L-1) at ``cols[1:]``, filling each bucket's mass greedily
    from its top atom (the least element) or its bottom atom (the greatest).

    Full atoms add a prefix-sum difference; one partial atom per bucket
    takes the rest, which also absorbs the rounding overshoot of the scans.
    ``ctrl`` is one sample's :class:`_ControlAtoms`, whose ``cols`` (L,) all
    rows share; or, with ``rows``, a block's :class:`_BlockCaps`, and row i
    of ``cols`` (S, L) and ``cum`` takes its capacities from its row
    ``rows[i]``.
    """
    p, q, atoms = ctrl.cum_caps, ctrl.cum_moments, ctrl.atoms
    if rows is None:
        at, search = operator.getitem, partial(np.searchsorted, p)
    else:
        def at(a, idx):
            return a[rows[:, None], idx]
        search = partial(ctrl.sorted_caps.searchsorted, rows=rows[:, None])
    low = at(atoms, 0)
    start, end = cols[..., :-1], cols[..., 1:]
    need = np.diff(cum, prepend=0.0, axis=1)
    if from_top:
        p_end = at(p, end)
        cut = np.clip(search(p_end - need), start, end)
        full_mass, full_moment = p_end - at(p, cut), at(q, end) - at(q, cut)
        edge = np.maximum(cut - 1, start)
    else:
        p_start = at(p, start)
        cut = np.clip(search(p_start + need, side="right") - 1, start, end)
        full_mass, full_moment = at(p, cut) - p_start, at(q, cut) - at(q, start)
        edge = np.minimum(cut, end - 1)
    rest = (need - full_mass) * (at(atoms, edge) - low)
    return (low + (full_moment + rest).sum(axis=1, keepdims=True))[..., 0]


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
    """Feasibility and attainable weighted-mean ranges for every shift.

    The extreme allocations are kept as their cumulative weights at the
    breakpoint columns ``cols[1:]``; ``ctrl.cum_caps`` expands one to all
    atoms.  Each weighted-mean range end is computed over all shifts on
    first access, so a caller that needs one direction pays for one;
    :meth:`weights_for` computes both ends at its one shift only.
    """

    ctrl: _ControlAtoms
    cols: np.ndarray
    feasible: np.ndarray
    c_least: np.ndarray
    c_great: np.ndarray

    @cached_property
    def obj_min(self) -> np.ndarray:
        return _bucket_means(self.ctrl, self.cols, self.c_great, from_top=False)

    @cached_property
    def obj_max(self) -> np.ndarray:
        return _bucket_means(self.ctrl, self.cols, self.c_least, from_top=True)

    def _extreme(self, idx: int, from_top: bool) -> float:
        """``obj_max[idx]`` (``from_top``) or ``obj_min[idx]``, by the same
        row reduction, without computing the other shifts' values."""
        cum = self.c_least if from_top else self.c_great
        return _bucket_means(self.ctrl, self.cols, cum[idx:idx + 1], from_top)[0]

    def _extreme_masses(self, idx: int, from_top: bool) -> np.ndarray:
        """Per-atom masses of shift ``idx``'s least element filled from the
        top (``from_top``) or its greatest filled from the bottom."""
        cum = self.c_least if from_top else self.c_great
        return _masses(_bucket_cumulative(self.cols, cum[idx], self.ctrl.cum_caps, from_top))

    def extreme_weights(self, idx: int, from_top: bool) -> np.ndarray:
        """Control unit weights of one extreme allocation of shift ``idx``
        (see :meth:`_extreme_masses`)."""
        return self.ctrl.unit_weights(self._extreme_masses(idx, from_top))

    def weights_for(self, idx: int, value: float) -> np.ndarray:
        """Control unit weights attaining ``value`` at shift ``idx``: the
        two extreme allocations' masses blended (any intermediate mean is
        attainable), then split among the units once."""
        masses = self._extreme_masses(idx, True)
        f_max, f_min = self._extreme(idx, True), self._extreme(idx, False)
        if not f_max - f_min <= _TIE_TOL:  # an overflowed (NaN) range blends too
            lam = np.clip((value - f_min) / (f_max - f_min), 0.0, 1.0)
            masses = lam * masses + (1.0 - lam) * self._extreme_masses(idx, False)
        return self.ctrl.unit_weights(masses)


def _control_bands(control_y: np.ndarray, target: WeightedEcdf, grid: ShiftGrid,
                   ks_mode: str) -> _SolvePlan:
    """The solve plan of ``control_y`` against the ``target`` CDF: the
    distinct control atoms and the KS bands of every grid shift."""
    atoms, inverse, counts = np.unique(control_y, return_inverse=True,
                                       return_counts=True)
    return _SolvePlan(grid=grid, atoms=atoms, counts=counts, inverse=inverse,
                      bands=_bands(atoms, target, grid, ks_mode))


def _distributional_plan(data: Dataset, m: int, ks_mode: str) -> _SolvePlan:
    """The solve plan of the ATT models: the controls against the treated
    ECDF on the grid of resolution ``m`` over all outcomes."""
    return _control_bands(data.control_y, ecdf(data.treated_y),
                          shift_grid(data.y, m), ks_mode)


def _shift_solve(ctrl: _ControlAtoms, bands: _Bands, lo: np.ndarray,
                 hi: np.ndarray) -> _ShiftSolve:
    """Solve the per-shift weighted-mean extremes for every shift, with the
    cumulative weight at ``bands.cols`` held in ``[lo, hi]`` (S, L)."""
    return _ShiftSolve(ctrl, bands.cols,
                       *_breakpoint_extremes(lo, hi, ctrl.cum_caps[bands.cols]))


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
                         mean_window: tuple[float, float] | None) -> BoundResult:
    treated_mean = float(data.treated_y.mean())
    if config.wants_balance:
        return _distributional_lp_route(data, config, mean_window, treated_mean)

    plan = _distributional_plan(data, config.m, config.ks_mode)
    solve = _shift_solve(plan.capped(config.gamma), plan.bands,
                         *plan.bands.at(config.delta))
    return _bound_from_solve(data, plan.grid, solve, config.direction,
                             mean_window, treated_mean)


def _bound_from_solve(data: Dataset, grid: ShiftGrid, solve: _ShiftSolve,
                      direction: str, mean_window: tuple[float, float] | None,
                      treated_mean: float) -> BoundResult:
    """The bound in ``direction`` from one shift solve: the best feasible
    shift, its weights expanded to the control units, and their SE."""
    maximize = direction == "lower"
    ok = solve.feasible
    values = solve.obj_max if maximize else solve.obj_min
    if mean_window is not None:
        wlo, whi = mean_window
        ok = ok & (solve.obj_max >= wlo - _TOL) & (solve.obj_min <= whi + _TOL)
        values = np.minimum(values, whi) if maximize else np.maximum(values, wlo)

    pick = _select_shift(values, ok, grid.rank, maximize)
    if pick is None:
        return _infeasible(direction, treated_mean)
    value = float(values[pick])
    return _optimal_result(data, direction, solve.weights_for(pick, value), value,
                           treated_mean, float(grid.shifts[pick]))


def _distributional_sweep(data: Dataset, config: SensitivityConfig, gammas,
                          deltas):
    """Yield ``(lower, upper)``, each the :func:`distributional_att_bound`
    result bit for bit, for every (gamma, delta) in row-major order, with
    the other knobs from the balance-free ``config``.  One plan serves the
    whole grid: one capped atom set per gamma, one shift solve per cell."""
    plan = _distributional_plan(data, config.m, config.ks_mode)
    treated_mean = float(data.treated_y.mean())
    for gamma in gammas:
        ctrl = plan.capped(gamma)
        for delta in deltas:
            solve = _shift_solve(ctrl, plan.bands, *plan.bands.at(delta))
            yield tuple(_bound_from_solve(data, plan.grid, solve, direction,
                                          None, treated_mean)
                        for direction in ("lower", "upper"))


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


@dataclass(frozen=True)
class _SortedRows:
    """Rows (B, W) of ascending values, searched row by row, exactly.

    NumPy orders complex numbers by their real part, then their imaginary
    part.  So with each value's row as the real part and the value itself as
    the imaginary part, the flattened rows ascend, and one
    :func:`numpy.searchsorted` searches every row at once, comparing the
    values themselves (a float offset per row would round them).
    """

    width: int
    keys: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "_SortedRows":
        return cls(values.shape[1], _row_keys(np.arange(values.shape[0])[:, None],
                                              values).ravel())

    def searchsorted(self, x: np.ndarray, rows: np.ndarray,
                     side: str = "left") -> np.ndarray:
        """``np.searchsorted(values[r], v, side)`` for each ``v`` of ``x``
        with its row ``r`` of ``rows`` (broadcast against ``x``)."""
        return np.searchsorted(self.keys, _row_keys(rows, x), side) - self.width * rows


def _row_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The complex keys ``rows + 1j * values``, built without arithmetic."""
    keys = np.empty(np.broadcast_shapes(rows.shape, values.shape), dtype=complex)
    keys.real, keys.imag = rows, values
    return keys


@dataclass(frozen=True)
class _BlockCaps:
    """:meth:`_SolvePlan.capped` of every sample of a block: row i holds
    sample i's ``atoms``, ``cum_caps`` and ``cum_moments``, padded on the
    right with zero capacity, so the cumulative rows stay level there."""

    atoms: np.ndarray
    cum_caps: np.ndarray
    cum_moments: np.ndarray
    sorted_caps: _SortedRows


@dataclass(frozen=True)
class _BandGroup:
    """The KS bands of the samples of a block whose bands share a width L.

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
    """The :class:`_SolvePlan` of every sample of a block, as padded rows.

    Row i is sample i: its K distinct control outcomes ``atoms[i, :K]``
    (then the last repeated) with their ``counts`` (then 0), its S grid
    shifts ``shifts[i, :S]`` (S = ``n_shifts[i]``: 1 for a degenerate grid,
    else 2m+1) and their :attr:`ShiftGrid.rank` ``rank[i, :S]``.
    ``inverse`` holds the atom of every control unit, the samples' units in
    turn, and ``groups`` the bands, by width.
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

    def capped(self, gammas: np.ndarray) -> _BlockCaps:
        """The atoms with capacity gamma / n0 per unit at each of ``gammas``:
        row ``j * B + i`` is sample i at ``gammas[j]``."""
        caps = (self.counts * (gammas[:, None] / self.n0)[..., None]).reshape(
            -1, self.counts.shape[1])
        atoms = np.tile(self.atoms, (gammas.size, 1))
        cum_caps, cum_moments = _cumulative_caps(atoms, caps)
        return _BlockCaps(atoms, cum_caps, cum_moments, _SortedRows.of(cum_caps))


def _row_atoms(values: np.ndarray, row: np.ndarray, n_rows: int):
    """:func:`numpy.unique` of each row's ``values`` (``row`` ascending):
    the atoms and counts as rows padded on the right as in
    :class:`_BlockPlan`, the inverse (each value's atom in its row) and the
    number of atoms per row."""
    order = np.lexsort((values, row))
    v, r = values[order], row[order]
    new = np.ones(v.size, dtype=bool)
    new[1:] = (v[1:] != v[:-1]) | (r[1:] != r[:-1])
    starts = np.flatnonzero(new)
    atom_row = r[starts]
    k = np.bincount(atom_row, minlength=n_rows)
    first = np.cumsum(k) - k  # each row's first atom
    pos = np.arange(starts.size) - first[atom_row]
    atoms = np.repeat(v[starts[first + k - 1]][:, None], k.max(), axis=1)
    counts = np.zeros(atoms.shape, dtype=np.intp)
    atoms[atom_row, pos] = v[starts]
    counts[atom_row, pos] = np.diff(starts, append=v.size)
    inverse = np.empty(v.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1 - first[r]
    return atoms, counts, inverse, k


def _block_plan(draws, m: int, ks_mode: str) -> _BlockPlan:
    """The :func:`_distributional_plan` of every sample ``(y, t)`` of
    ``draws`` (both arms nonempty), value for value, built for the block at
    once: row-wise sorts give the distinct atoms of both arms, the treated
    ECDF masses come from :func:`~drci.distributions.ecdf`'s own rule
    (:func:`~drci.distributions._count_masses`), and
    each row's shift grid and tie order come from the row-wise helpers of
    :func:`~drci.distributions.shift_grid`.

    In grid mode the bands of all non-degenerate rows come from one
    :func:`~drci.distributions._grid_bands` call, which counts the atoms and
    reads the treated CDF with one :meth:`_SortedRows.searchsorted` per arm.
    Exact-KS and degenerate rows run :func:`~drci.distributions._bands` row
    by row, on the sample's own :func:`~drci.distributions.ecdf` and
    :func:`~drci.distributions.shift_grid`.
    """
    ys = [np.asarray(y, dtype=float) for y, _ in draws]
    arms = [np.asarray(t) == 1 for _, t in draws]
    n_rows = len(ys)
    y, treated = np.concatenate(ys), np.concatenate(arms)
    sizes = np.array([v.size for v in ys])
    unit_row = np.repeat(np.arange(n_rows), sizes)
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(y, starts)
    span = np.maximum.reduceat(y, starts) - lo
    shifts = _grid_shifts(span, m)  # an all-zero row where span == 0
    n_shifts = np.where(span == 0, 1, shifts.shape[1])

    atoms, counts, inverse, k0 = _row_atoms(y[~treated], unit_row[~treated], n_rows)
    t_atoms, t_counts, _, k1 = _row_atoms(y[treated], unit_row[treated], n_rows)
    n1 = np.bincount(unit_row[treated], minlength=n_rows)
    masses = _count_masses(t_counts, n1)  # ecdf's masses, row by row
    t_cdf = np.zeros((n_rows, masses.shape[1] + 1))  # [0, WeightedEcdf.cum]
    t_cdf[:, 1:] = np.minimum(np.cumsum(masses, axis=1), 1.0)
    t_cdf[np.arange(n_rows), k1] = 1.0

    parts: dict[int, list] = {}  # width -> [(samples, bands)]
    on_grid = (span > 0) if ks_mode == "grid" else np.zeros(n_rows, dtype=bool)
    rows = np.flatnonzero(on_grid)
    if rows.size:
        g, at = rows[:, None], np.arange(rows.size)[:, None]
        c_keys, t_keys = _SortedRows.of(atoms[rows]), _SortedRows.of(t_atoms[rows])
        # searches past a row's last atom also count its padding
        for members, bands in _grid_bands(
                lo[rows], span[rows], m,
                lambda x: np.minimum(c_keys.searchsorted(x, at, side="right"), k0[g]),
                lambda x: t_cdf[g, np.minimum(t_keys.searchsorted(x, at, side="right"),
                                              k1[g])]):
            parts.setdefault(bands.cols.shape[1], []).append((rows[members], bands))
    for i in np.flatnonzero(~on_grid):
        bands = _bands(atoms[i, :k0[i]], ecdf(ys[i][arms[i]]), shift_grid(ys[i], m), ks_mode)
        parts.setdefault(k0[i] + 1, []).append(
            (np.array([i]), replace(bands, cols=bands.cols[None])))

    groups = []
    for same in parts.values():
        samples = np.concatenate([s for s, _ in same])
        size = n_shifts[samples]
        groups.append(_BandGroup(
            samples, np.repeat(np.arange(samples.size), size),
            np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size),
            same[0][1] if len(same) == 1 else
            _Bands(*(np.concatenate([getattr(b, name) for _, b in same])
                     for name in ("cols", "top", "bottom")))))
    return _BlockPlan(
        atoms=atoms, counts=counts, inverse=inverse, n0=sizes - n1,
        treated_mean=np.array([v[t].mean() for v, t in zip(ys, arms)]),
        shifts=shifts, rank=_shift_rank(shifts), n_shifts=n_shifts, groups=tuple(groups))


def _distributional_lower_block(draws, gammas, delta: float, m: int,
                                ks_mode: str) -> np.ndarray:
    """``distributional_att_bound(...).estimate`` of the lower bound of each
    sample ``(y, t)`` of ``draws`` (rows, both arms nonempty) at each of
    ``gammas`` (columns), bit for bit (NaN where infeasible), with no
    weights, SE or :class:`BoundResult`.

    One :func:`_block_plan` serves the block, capped at every gamma at once.
    Per band width, :func:`_screen` drops the shifts infeasible at every
    gamma, and the rest are stacked into one row-wise
    :func:`_breakpoint_extremes` call per gamma, each row with its own
    sample's capacities, then one :func:`_bucket_means` call and one
    :func:`~drci.distributions._pick` for all of them.
    """
    gammas = np.array([float(g) for g in gammas])
    plan = _block_plan(draws, m, ks_mode)
    out = np.full((plan.n0.size, gammas.size), np.nan)
    caps = plan.capped(gammas)
    for group in plan.groups:
        lo, hi = group.bands.at(delta)
        rows = np.flatnonzero(_screen(lo, hi, gammas.max()))
        if rows.size:
            _lower_block_scan(plan, group, rows, lo[rows], hi[rows], caps, out)
    return out


def _lower_block_scan(plan: _BlockPlan, group: _BandGroup, rows: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray, caps: _BlockCaps,
                      out: np.ndarray) -> None:
    """Fill ``out[sample, gamma]`` from the bands ``lo``/``hi`` of the
    ``rows`` of one width group: one scan per gamma, then the bucket means
    of the rows feasible at any gamma in one call."""
    member = group.member[rows]
    sample = group.samples[member]
    cols = group.bands.cols[member]
    ranks = plan.rank[sample, group.shift[rows]]
    scans = []  # per gamma: the feasible rows, their caps rows, c_least
    for j in range(out.shape[1]):
        at_gamma = j * out.shape[0] + sample
        feasible, c_least = _breakpoint_extremes(
            lo, hi, caps.cum_caps[at_gamma[:, None], cols])[:2]
        f = np.flatnonzero(feasible)
        scans.append((np.full(f.size, j), f, at_gamma[f], c_least[f]))
    j, r, at, c_least = (np.concatenate(a) for a in zip(*scans))
    if not r.size:
        return
    values = _bucket_means(caps, cols[r], c_least, from_top=True, rows=at)
    # _select_shift's pick, one group per sample and gamma
    pick = _pick(values, j * group.samples.size + member[r], ranks[r], True, _TIE_TOL)
    won = sample[r[pick]]
    out[won, j[pick]] = plan.treated_mean[won] - values[pick]


def _distributional_lp_route(data: Dataset, config: SensitivityConfig,
                             mean_window: tuple[float, float] | None,
                             treated_mean: float) -> BoundResult:
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
    bands (:meth:`_ShiftSolve.extreme_weights`).  The penalty and the cap
    are two forms of one balance term, so a config setting both is refused.
    """
    if config.balance_lambda > 0 and config.balance_epsilon is not None:
        raise ValueError("balance_lambda and balance_epsilon exclude each other: "
                         "set the penalty or the cap, not both")
    y0 = data.control_y
    plan = _distributional_plan(data, config.m, config.ks_mode)
    ctrl, bands = plan.capped(config.gamma), plan.bands

    lp = _balance_lp(data, config, balance_terms(data, config.balance_lambda),
                     bands.cols, ctrl, mean_window)
    maximize = config.direction == "lower"
    lo, hi = bands.at(config.delta)
    screen = _shift_solve(ctrl, bands, lo - _LP_ROW_TOL, hi + _LP_ROW_TOL)
    feasible, obj_min, obj_max = screen.feasible, screen.obj_min, screen.obj_max
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
    rank = plan.grid.rank
    cand = np.flatnonzero(feasible)
    cand = cand[np.lexsort((rank[cand], bound[cand]))]

    start = _shift_solve(ctrl, bands, lo, hi)
    values = np.full(rank.size, np.nan)  # penalized LP value per solved shift
    solved = {}  # shift index -> control weights
    best = math.inf  # best oriented value so far
    for j in cand:
        if bound[j] > best + slack:
            break
        sol = _solve_balance_lp(lp, lo[j], hi[j], start.extreme_weights(j, maximize))
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
                           float(plan.grid.shifts[pick]))


@dataclass(frozen=True)
class _BalanceLp:
    """What no shift changes in the balance route's LPs over [control weights,
    balance slacks]: ``band_rows``, per breakpoint after the first the indicator
    row of the units below it and its negation, and ``shared``, the LP without
    band rows (two rows per covariate, then the cap and mean-window rows)."""

    band_rows: np.ndarray
    shared: LpProblem


def _balance_lp(data, config, bal, cols, ctrl, mean_window) -> _BalanceLp:
    """The shift-free parts of the balance route's LPs."""
    y0 = data.control_y
    n0, n_aux = y0.size, bal.n_covariates
    maximize = config.direction == "lower"

    c = np.concatenate([y0, np.zeros(n_aux)])
    if bal.lam > 0:
        # penalty always degrades the optimum
        c[n0:] = -bal.lam if maximize else bal.lam
    below = (ctrl.inverse < cols[1:, None]).astype(float)
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
    plan = _distributional_plan(data, m, ks_mode)
    ctrl = plan.capped(gamma)

    def feasible(delta: float) -> bool:
        return bool(_shift_solve(ctrl, plan.bands, *plan.bands.at(delta)).feasible.any())

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
