"""Difference-in-differences, changes-in-changes, and instrumental-variable
variants of the distributional sensitivity model.

DiD and CIC augment the shift enumeration with a mean-difference constraint
tying the counterfactual mean to an identifiable target: the parallel-trends
combination ``mu_b1 + mu_00 - mu_b0`` for DiD, the mean of the composed CDF
``F_b1(F_b0^{-1}(F_00))`` for CIC.  Relaxing the slack to infinity recovers
the plain distributional bound; zero slack pins the counterfactual mean.

The IV variant bounds the ATT decomposition over the four (treatment,
encouragement) strata.  For each encouragement arm the counterfactual is a
reweighting of that arm's controls, shape-matched to the arm's observed
treated distribution; a relaxed exclusion restriction couples it to the
opposite arm's reweighting through a mean-difference slack.  Shifts for the
two KS constraints are enumerated independently; of the shift pairs whose
values tie, the one of lowest ``rank[j1] * S + rank[j2]`` wins, with
:attr:`~drci.distributions.ShiftGrid.rank` the single-shift tie order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Dataset, WeightedEcdf, _count_masses, cic_target_cdf, ecdf
from .dro_solvers import (
    _TOL,
    BoundResult,
    SensitivityConfig,
    _att_plan,
    _block_plan,
    _distributional_core,
    _infeasible,
    _optimal_result,
    _refuse_balance,
    _sample_solve,
    _select_shift,
)

__all__ = [
    "DidTargets",
    "IvStrata",
    "did_att_bound",
    "cic_att_bound",
    "iv_att_bound",
]


@dataclass(frozen=True)
class DidTargets:
    """The identifiable means entering the parallel-trends target."""

    mu_b1: float
    mu_00: float
    mu_b0: float

    @property
    def target_mean(self) -> float:
        return self.mu_b1 + self.mu_00 - self.mu_b0

    @classmethod
    def from_dataset(cls, data: Dataset) -> "DidTargets":
        if data.y_b is None:
            raise ValueError("difference-in-differences needs baseline outcomes")
        treated = data.t == 1
        return cls(
            mu_b1=float(data.y_b[treated].mean()),
            mu_00=float(data.y[~treated].mean()),
            mu_b0=float(data.y_b[~treated].mean()),
        )


def _mean_window(target: float, epsilon: float):
    if math.isinf(epsilon):
        return None
    return (target - epsilon, target + epsilon)


def did_att_bound(data: Dataset, config: SensitivityConfig) -> BoundResult:
    """Distributional ATT bound with the counterfactual mean held within
    ``epsilon`` of the parallel-trends target; ``epsilon = 0`` recovers the
    classical DiD point estimate."""
    target = DidTargets.from_dataset(data).target_mean
    return _distributional_core(data, config, _mean_window(target, config.epsilon))


def cic_att_bound(data: Dataset, config: SensitivityConfig) -> BoundResult:
    """As :func:`did_att_bound` but the target mean comes from the
    changes-in-changes composed CDF.  ``F_00`` is the :func:`ecdf` of the
    controls, built from the solve plan's distinct control atoms and counts
    by ``ecdf``'s own rule, so the controls are sorted once."""
    if data.y_b is None:
        raise ValueError("changes-in-changes needs baseline outcomes")
    treated = data.t == 1
    f_b1 = ecdf(data.y_b[treated])
    f_b0 = ecdf(data.y_b[~treated])
    plan = _att_plan(data, config.m, config.ks_mode)
    # + 0.0: ecdf's atoms, whose zero is always +0.0
    f_00 = WeightedEcdf(plan.atoms[0] + 0.0, _count_masses(plan.counts[0], data.n0))
    target = cic_target_cdf(f_b1, f_b0, f_00).mean()
    return _distributional_core(data, config, _mean_window(target, config.epsilon), plan)


# ---------------------------------------------------------------------------
# instrumental variables


@dataclass(frozen=True)
class IvStrata:
    """Outcomes, counts, and proportions of the four (t, z) strata, plus the
    observed treated ECDF per encouragement arm.  Monotonicity (no defiers)
    is assumed, not checked."""

    outcomes: dict[tuple[int, int], np.ndarray]
    indices: dict[tuple[int, int], np.ndarray]
    counts: dict[tuple[int, int], int]
    proportions: dict[tuple[int, int], float]
    treated_ecdf: dict[int, WeightedEcdf]

    @classmethod
    def from_dataset(cls, data: Dataset) -> "IvStrata":
        outcomes, indices, counts, proportions = _strata(data)
        return cls(outcomes, indices, counts, proportions,
                   {z: ecdf(outcomes[(1, z)]) for z in (0, 1)})


def _strata(data: Dataset):
    """The outcomes, unit indices, counts and proportions of the four
    (t, z) strata of :class:`IvStrata`, without the treated ECDFs."""
    if data.z is None:
        raise ValueError("instrumental-variables analysis needs an instrument")
    outcomes, indices, counts = {}, {}, {}
    for t in (0, 1):
        for z in (0, 1):
            idx = data.stratum_indices(t, z)
            if idx.size == 0:
                raise ValueError(f"empty stratum (t={t}, z={z})")
            outcomes[(t, z)] = data.y[idx]
            indices[(t, z)] = idx
            counts[(t, z)] = int(idx.size)
    return outcomes, indices, counts, {k: v / data.n for k, v in counts.items()}


def iv_att_bound(data: Dataset, config: SensitivityConfig) -> BoundResult:
    """ATT bound under encouragement: per arm ``z``, reweight that arm's
    controls toward the arm's treated shape, coupled to the opposite arm's
    reweighting by a mean-difference slack ``epsilon`` (the relaxed
    exclusion restriction).  Shift pairs are enumerated exhaustively.  The
    estimate is ``treated_mean - counterfactual_mean``, the counterfactual
    being the arms' extreme means weighted by their treated shares."""
    _refuse_balance(config, "iv")
    # the plan rows hold the treated outcomes, so no treated ECDF is built
    outcomes, indices, counts, proportions = _strata(data)
    warnings = tuple(
        f"stratum (t={t}, z={z}) has fewer than 2 units; bounds may be overly conservative"
        for (t, z), cnt in sorted(counts.items())
        if cnt < 2
    )
    p1 = proportions[(1, 0)] + proportions[(1, 1)]
    treated_mean = float(data.treated_y.mean())
    maximize = config.direction == "lower"
    # rows 2z and 2z + 1: the controls of arm z and of arm 1 - z against the
    # treated of arm z, all on the grid over every outcome
    lo, hi = data.y.min(), data.y.max()
    plan = _block_plan([(outcomes[(0, arm)], outcomes[(1, z)], lo, hi)
                        for z in (0, 1) for arm in (z, 1 - z)], config.m, config.ks_mode)
    caps = plan.capped([config.gamma])
    solves = [_sample_solve(plan, caps, config.delta, i) for i in range(4)]

    counterfactual = 0.0
    arm_index, arm_values = [], []
    for z in (0, 1):
        share = proportions[(1, z)] / p1
        solved = _solve_iv_arm(plan, solves, z, config.epsilon, maximize)
        if solved is None:
            return _infeasible(config.direction, treated_mean, warnings)
        mu_star, unit_w = solved
        counterfactual += share * mu_star
        arm_index.append(indices[(0, z)])
        arm_values.append(share * unit_w)

    # the two arms' controls are all the controls, so the weights sorted by
    # unit index are the vector over the control units in index order
    order = np.argsort(np.concatenate(arm_index), kind="stable")
    return _optimal_result(data, config.direction, np.concatenate(arm_values)[order],
                           counterfactual, treated_mean, None, warnings)


def _solve_iv_arm(plan, solves, z: int, eps: float, maximize: bool):
    """Extreme counterfactual mean for arm ``z``, from the solves of plan
    rows ``2z`` (arm z's controls) and ``2z + 1`` (the other arm's); returns
    (mean, weights over the (0, z) stratum) or None when no shift pair is
    feasible."""
    main, other = solves[2 * z], solves[2 * z + 1]

    # attainable-interval coupling: the pair is feasible iff the main
    # interval meets the other interval inflated by eps
    low = np.maximum(main.extreme(False)[:, None], other.extreme(False)[None, :] - eps)
    high = np.minimum(main.extreme(True)[:, None], other.extreme(True)[None, :] + eps)
    ok = main.feasible[:, None] & other.feasible[None, :] & (low <= high + _TOL)
    values = (high if maximize else low).ravel()
    # the pair (j1, j2) ranks by j1's shift rank, then by j2's
    rank = plan.rank[0, :plan.n_shifts[0]]
    n_sh = rank.size
    pair_rank = (rank[:, None] * n_sh + rank).ravel()
    pick = _select_shift(values, ok.ravel(), pair_rank, maximize)
    if pick is None:
        return None
    mu_star = float(values[pick])
    masses = main.weights_for(pick // n_sh, mu_star)
    return mu_star, plan.unit_weights(2 * z, masses)
