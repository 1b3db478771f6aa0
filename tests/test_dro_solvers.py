import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import drci.dro_solvers as ds
from drci.distributions import Dataset, cic_target_cdf, ecdf, shift_grid
from drci.dro_solvers import (
    SensitivityConfig,
    atc_bound,
    balance_terms,
    conditional_se,
    distributional_att_bound,
    marginal_att_bound,
    minimal_achievable_ks,
    tv_att_bound,
)
from drci.extensions import DidTargets, cic_att_bound, did_att_bound, iv_att_bound
from drci.lp_core import LpProblem, solve_lp

from oracles import (
    box_simplex_extreme,
    brute_distributional,
    brute_iv,
    highs_solve,
    raw_shift_rows,
    vertex_solve,
)

FIVE_UNITS = Dataset(y=[0, 1, 2, 2, 3], t=[0, 0, 0, 1, 1])


def _random_dataset(rng, n0_max=8, n1_max=8):
    n0 = int(rng.integers(2, n0_max + 1))
    n1 = int(rng.integers(2, n1_max + 1))
    y = np.concatenate([rng.normal(0, 1, n0), rng.normal(0.7, 1.3, n1)])
    t = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return Dataset(y=y, t=t)


class TestMarginal:
    def test_gamma_one_is_difference_in_means(self):
        r = marginal_att_bound(FIVE_UNITS, 1.0, "lower")
        assert r.estimate == pytest.approx(1.5)
        assert r.counterfactual_mean == pytest.approx(1.0)

    def test_gamma_two_lower(self):
        r = marginal_att_bound(FIVE_UNITS, 2.0, "lower")
        assert r.counterfactual_mean == pytest.approx(1.5)
        assert r.estimate == pytest.approx(1.0)
        w = [r.weights[i] for i in (0, 1, 2)]
        assert w == pytest.approx([1 / 6, 1 / 6, 2 / 3])

    def test_gamma_two_upper(self):
        r = marginal_att_bound(FIVE_UNITS, 2.0, "upper")
        assert r.counterfactual_mean == pytest.approx(0.5)
        assert r.estimate == pytest.approx(2.0)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            marginal_att_bound(FIVE_UNITS, 0.9, "lower")

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            marginal_att_bound(FIVE_UNITS, gamma, "lower")

    def test_result_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            data = _random_dataset(rng)
            r = marginal_att_bound(data, float(rng.uniform(1, 5)), "lower")
            w = np.array(list(r.weights.values()))
            assert w.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(w >= 0)
            assert r.estimate == pytest.approx(
                r.treated_mean - r.counterfactual_mean, abs=1e-12
            )

    def test_greedy_matches_enumeration_and_simplex(self):
        rng = np.random.default_rng(22)
        for _ in range(550):
            data = _random_dataset(rng)
            gamma = float(rng.uniform(1, 5))
            for direction, maximize in (("lower", True), ("upper", False)):
                r = marginal_att_bound(data, gamma, direction)
                y0 = data.control_y
                n0 = y0.size
                oracle = box_simplex_extreme(
                    y0, 1 / (gamma * n0), gamma / n0, maximize=maximize
                )
                assert r.counterfactual_mean == pytest.approx(oracle, abs=1e-9)
                lp = solve_lp(LpProblem(
                    c=y0, sense="max" if maximize else "min",
                    a_eq=np.ones((1, n0)), b_eq=[1.0],
                    lower=np.full(n0, 1 / (gamma * n0)),
                    upper=np.full(n0, gamma / n0),
                ))
                assert r.counterfactual_mean == pytest.approx(
                    lp.objective_value, abs=1e-9
                )


class TestTv:
    def test_zero_radius(self):
        r = tv_att_bound(FIVE_UNITS, 0.0, "lower")
        assert r.estimate == pytest.approx(1.5, abs=1e-9)

    def test_vacuous_radius_hits_control_max(self):
        r = tv_att_bound(FIVE_UNITS, 1.0, "lower")
        assert r.counterfactual_mean == pytest.approx(2.0, abs=1e-9)
        assert r.estimate == pytest.approx(0.5, abs=1e-9)

    def test_third_radius_against_lp_oracle(self):
        # optimal play moves 1/3 of mass from the lowest atom to the top one
        r = tv_att_bound(FIVE_UNITS, 1 / 3, "lower")
        status, val, _ = vertex_solve(**_tv_lp(np.array([0.0, 1.0, 2.0]), 1 / 3),
                                      sense="max")
        assert status == "optimal"
        assert val == pytest.approx(5 / 3, abs=1e-9)
        assert r.counterfactual_mean == pytest.approx(val, abs=1e-9)
        assert r.estimate == pytest.approx(2.5 - 5 / 3, abs=1e-9)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            tv_att_bound(FIVE_UNITS, 1.2, "lower")

    @staticmethod
    def _radii(rng, n0):
        return (0.0, float(rng.uniform()), 1.0 - 1.0 / n0, 1.0)

    def test_closed_form_matches_lp_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            n0, n1 = int(rng.integers(1, 25)), int(rng.integers(1, 6))
            # few distinct values: many tied outcomes, also at the extremes
            y = rng.integers(-3, 4, n0 + n1) * float(rng.choice([1e-3, 1.0, 1e4]))
            data = Dataset(y=y, t=rng.permutation(np.r_[np.zeros(n0), np.ones(n1)]))
            y0 = data.control_y
            for lam in self._radii(rng, n0):
                for direction, sense in (("lower", "max"), ("upper", "min")):
                    r = tv_att_bound(data, lam, direction)
                    status, val, _ = highs_solve(**_tv_lp(y0, lam), sense=sense)
                    assert status == "optimal"
                    scale = 1.0 + np.abs(y0).max()
                    assert r.counterfactual_mean == pytest.approx(val, abs=1e-9 * scale)
                    w = _assert_in_tv_ball(r.weights, data.control_indices, lam)
                    assert r.counterfactual_mean == pytest.approx(w @ y0, abs=1e-12 * scale)
                    assert r.estimate == r.treated_mean - r.counterfactual_mean

    def test_atc_matches_lp_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n0, n1 = int(rng.integers(1, 6)), int(rng.integers(1, 20))
            y = np.round(rng.normal(size=n0 + n1), 1)
            data = Dataset(y=y, t=rng.permutation(np.r_[np.zeros(n0), np.ones(n1)]))
            y1 = data.treated_y
            for lam in self._radii(rng, n1):
                # ATC lower: least reweighted treated mean minus control mean
                for direction, sense in (("lower", "min"), ("upper", "max")):
                    cfg = SensitivityConfig(lambda_tv=lam, direction=direction)
                    r = atc_bound(data, "tv", cfg)
                    status, val, _ = highs_solve(**_tv_lp(y1, lam), sense=sense)
                    assert status == "optimal"
                    assert r.estimate == pytest.approx(
                        val - data.control_y.mean(), abs=1e-9 * (1 + np.abs(y).max()))
                    treated_idx = np.flatnonzero(data.t == 1)
                    _assert_in_tv_ball(r.weights, treated_idx, lam)


def _tv_lp(y0, lam):
    """The TV bound as an LP over [weights, |weight - 1/n0|]."""
    n0 = y0.size
    eye = np.eye(n0)
    return dict(
        c=np.concatenate([y0, np.zeros(n0)]),
        a_ub=np.vstack([
            np.hstack([eye, -eye]),
            np.hstack([-eye, -eye]),
            np.concatenate([np.zeros(n0), np.full(n0, 0.5)])[None, :],
        ]),
        b_ub=np.concatenate([np.full(n0, 1 / n0), np.full(n0, -1 / n0), [lam]]),
        a_eq=np.concatenate([np.ones(n0), np.zeros(n0)])[None, :],
        b_eq=[1.0],
        lower=np.zeros(2 * n0), upper=np.ones(2 * n0),
    )


def _assert_in_tv_ball(weights, units, lam):
    assert sorted(weights) == sorted(int(i) for i in units)
    w = np.array([weights[int(i)] for i in units])
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * np.abs(w - 1 / w.size).sum() <= lam + 1e-12
    return w


class TestDistributional:
    def test_vacuous_ks_point_mass(self):
        cfg = SensitivityConfig(gamma=3.0, delta=1.0, m=4)
        r = distributional_att_bound(FIVE_UNITS, cfg)
        assert r.estimate == pytest.approx(0.5, abs=1e-9)
        assert r.counterfactual_mean == pytest.approx(2.0, abs=1e-9)

    def test_gamma_one_forces_uniform(self):
        cfg = SensitivityConfig(gamma=1.0, delta=1.0, m=4)
        r = distributional_att_bound(FIVE_UNITS, cfg)
        assert r.estimate == pytest.approx(1.5, abs=1e-9)

    def test_infeasible_is_a_valid_return(self):
        data = Dataset(y=[0.0, 1.0, 0.0, 0.4, 1.0], t=[0, 0, 1, 1, 1])
        cfg = SensitivityConfig(gamma=5.0, delta=0.05, m=5, ks_mode="exact_atoms")
        r = distributional_att_bound(data, cfg)
        assert r.status == "infeasible"
        assert math.isnan(r.estimate)
        assert r.weights == {}

    @pytest.mark.parametrize("mode", ["grid", "exact_atoms"])
    def test_matches_bruteforce_enumeration(self, mode):
        rng = np.random.default_rng(23)
        for _ in range(40):
            data = _random_dataset(rng, n0_max=5, n1_max=5)
            gamma = float(rng.uniform(1, 4))
            delta = float(rng.uniform(0.05, 0.9))
            m = int(rng.integers(1, 4))
            for direction in ("lower", "upper"):
                cfg = SensitivityConfig(gamma=gamma, delta=delta, m=m,
                                        direction=direction, ks_mode=mode)
                r = distributional_att_bound(data, cfg)
                status, est, _ = brute_distributional(
                    data.control_y, data.treated_y, gamma, delta, m,
                    mode=mode, direction=direction, backend="vertex",
                )
                assert r.status == status
                if status == "optimal":
                    assert r.estimate == pytest.approx(est, abs=1e-8)

    def test_weights_feasible_at_reported_shift(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            data = _random_dataset(rng)
            cfg = SensitivityConfig(
                gamma=float(rng.uniform(1, 4)),
                delta=float(rng.uniform(0.2, 1.0)),
                m=int(rng.integers(2, 6)),
                ks_mode="exact_atoms",
            )
            r = distributional_att_bound(data, cfg)
            if r.status != "optimal":
                continue
            w = np.array([r.weights[int(i)] for i in data.control_indices])
            assert w.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(w >= -1e-12)
            assert np.all(w <= cfg.gamma / data.n0 + 1e-9)
            # reported weighted CDF honours the KS band at the active shift
            from drci.distributions import ecdf
            fw = ecdf(data.control_y, np.maximum(w, 0))
            f1 = ecdf(data.treated_y)
            pts = np.union1d(fw.atoms, f1.atoms - r.active_shift)
            gap = np.abs(fw.cdf(pts) - f1.cdf(pts + r.active_shift)).max()
            assert gap <= cfg.delta + 1e-7

    def test_tie_breaks_toward_small_shift(self):
        # symmetric data make +/- shifts equally good; the center must win
        data = Dataset(y=[-1.0, 1.0, -1.0, 1.0], t=[0, 0, 1, 1])
        cfg = SensitivityConfig(gamma=1.0, delta=1.0, m=3)
        r = distributional_att_bound(data, cfg)
        assert r.active_shift == 0.0


_KERNEL_SHAPES = ("spread", "narrow", "ties", "earnings")


def _kernel_outcomes(rng, shape, n0, n1):
    """Control and treated outcomes that stress the bucket kernel.

    ``spread``: many control atoms per bucket.  ``narrow``: controls packed
    between a few evaluation points, so several evaluation points share a
    band column and most gaps between them hold no atom.  ``ties``: few
    distinct values shared by both arms.  ``earnings``: zero-inflated,
    rounded lognormal outcomes of order 1e4.
    """
    if shape == "spread":
        return rng.normal(0, 1, n0), rng.normal(0.5, 1.3, n1)
    if shape == "narrow":
        return rng.normal(0, 0.05, n0), rng.normal(0, 2, n1)
    if shape == "ties":
        return (rng.integers(0, 4, n0).astype(float),
                rng.integers(0, 6, n1).astype(float))
    return tuple(
        np.where(rng.random(n) < 0.3, 0.0, np.round(rng.lognormal(mu, 1, n)))
        for n, mu in ((n0, 9.0), (n1, 9.2))
    )


def _kernel_dataset(rng, shape, n0, n1):
    y = np.concatenate(_kernel_outcomes(rng, shape, n0, n1))
    y_b = y + rng.normal(0, 0.2 * y.std(), y.size)  # baselines for DiD/CIC
    return Dataset(y=y, t=np.r_[np.zeros(n0, int), np.ones(n1, int)], y_b=y_b)


def _assert_optimal_weights(data, r, cfg):
    """Caps, simplex, reported mean and KS band at the active shift, the
    band rows taken from the oracle's unconsolidated constraint builder."""
    w = np.array([r.weights[int(i)] for i in data.control_indices])
    y0 = data.control_y
    scale = max(1.0, np.abs(data.y).max())
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w >= -1e-12) and np.all(w <= cfg.gamma / data.n0 + 1e-12)
    assert w @ y0 == pytest.approx(r.counterfactual_mean, abs=1e-9 * scale)
    grid = shift_grid(data.y, cfg.m)
    j = int(np.flatnonzero(grid.shifts == r.active_shift)[0])
    ts = np.sort(data.treated_y)
    tc = np.arange(ts.size + 1) / ts.size
    mode = "exact_atoms" if grid.degenerate else cfg.ks_mode
    a, b = raw_shift_rows(y0, ts, tc, grid.anchor, grid.c0, grid.epsilon, cfg.m,
                          j, cfg.delta, mode, r.active_shift)
    assert np.all(a @ w <= b + 1e-8)


class TestOverflowingOutcomes:
    """Outcomes whose range overflows, whose KS band points overflow
    (though the range does not) or whose means overflow are refused in both
    KS modes and both directions; a sample at the 1e300 scale with a modest
    range still solves."""

    SAMPLES = {
        "range": Dataset(y=[-1e308, 0.0, 1.0, 1e308, 2.0, -3.0], t=[0, 1, 0, 1, 0, 1]),
        "points": Dataset(y=[0.0, 1e308, 1.0, 5e307, 2.0, 3.0], t=[0, 1, 0, 1, 0, 1]),
        "mean": Dataset(y=[7e307, 8e307, 1e308, 9e307, 7.5e307, 9.5e307], t=[0, 1, 0, 1, 0, 1]),
    }

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    @pytest.mark.parametrize("sample", ["range", "points", "mean"])
    def test_refused(self, sample, ks_mode, direction):
        cfg = SensitivityConfig(gamma=2.0, delta=0.5, m=3, direction=direction,
                                ks_mode=ks_mode)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                distributional_att_bound(self.SAMPLES[sample], cfg)
            if sample == "mean":
                with pytest.raises(ValueError, match="overflow"):
                    marginal_att_bound(self.SAMPLES[sample], 2.0, direction)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_large_scale_with_a_modest_range_solves(self, ks_mode, direction):
        rng = np.random.default_rng(8)
        data = _random_dataset(rng)
        big = Dataset(y=1e300 * (10.0 + data.y), t=data.t)
        cfg = SensitivityConfig(gamma=2.0, delta=0.5, m=5, direction=direction,
                                ks_mode=ks_mode)
        with np.errstate(over="ignore", invalid="ignore"):  # the SE squares the outcomes
            r = distributional_att_bound(big, cfg)
        assert r.status == "optimal"
        assert math.isfinite(r.estimate) and math.isfinite(r.active_shift)


class TestBucketKernel:
    """The breakpoint kernel against the independent brute-force oracles."""

    @pytest.mark.parametrize("mode", ["grid", "exact_atoms"])
    def test_distributional_matches_oracle(self, mode):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(60 if mode == "grid" else 61)
        infeasible = 0
        for trial in range(16):
            data = _kernel_dataset(rng, _KERNEL_SHAPES[trial % 4],
                                   int(rng.integers(12, 30)), int(rng.integers(3, 12)))
            gamma = float(rng.uniform(1, 4))
            delta = float(rng.uniform(0.05, 0.6))
            m = int(rng.integers(1, 4))
            scale = max(1.0, np.abs(data.y).max())
            for direction in ("lower", "upper"):
                cfg = SensitivityConfig(gamma=gamma, delta=delta, m=m,
                                        direction=direction, ks_mode=mode)
                r = distributional_att_bound(data, cfg)
                status, est, _ = brute_distributional(
                    data.control_y, data.treated_y, gamma, delta, m,
                    mode=mode, direction=direction, backend="highs",
                )
                assert r.status == status
                if status == "infeasible":
                    infeasible += 1
                    continue
                assert r.estimate == pytest.approx(est, abs=1e-7 * scale)
                _assert_optimal_weights(data, r, cfg)
        assert 0 < infeasible < 32  # both verdicts exercised

    def test_mean_windows_match_oracle(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(62)
        for trial in range(16):
            data = _kernel_dataset(rng, _KERNEL_SHAPES[trial % 4],
                                   int(rng.integers(10, 24)), int(rng.integers(3, 10)))
            y0 = data.control_y
            if trial % 2 == 0:
                bound, target = did_att_bound, DidTargets.from_dataset(data).target_mean
            else:
                treated = data.t == 1
                bound, target = cic_att_bound, cic_target_cdf(
                    ecdf(data.y_b[treated]), ecdf(data.y_b[~treated]), ecdf(y0)
                ).mean()
            scale = max(1.0, np.abs(data.y).max())
            eps = float(rng.uniform(0.02, 0.3)) * scale
            window = (np.vstack([y0, -y0]), np.array([target + eps, eps - target]))
            gamma, delta = float(rng.uniform(1.5, 4)), float(rng.uniform(0.2, 0.8))
            for direction in ("lower", "upper"):
                cfg = SensitivityConfig(gamma=gamma, delta=delta, epsilon=eps, m=2,
                                        direction=direction)
                r = bound(data, cfg)
                status, est, _ = brute_distributional(
                    y0, data.treated_y, gamma, delta, 2, direction=direction,
                    backend="highs", extra_ub=window,
                )
                assert r.status == status
                if status == "optimal":
                    assert r.estimate == pytest.approx(est, abs=1e-7 * scale)
                    _assert_optimal_weights(data, r, cfg)

    def test_iv_matches_oracle(self):
        rng = np.random.default_rng(63)
        for trial in range(8):
            shape = ("narrow", "ties")[trial % 2]
            strata_y = {}
            for t in (0, 1):  # treated strata sit one unit higher
                y_z0, y_z1 = _kernel_outcomes(rng, shape, 2, 2)
                strata_y[(t, 0)], strata_y[(t, 1)] = y_z0 + t, y_z1 + t
            keys = list(strata_y)
            data = Dataset(
                y=np.concatenate([strata_y[k] for k in keys]),
                t=np.repeat([k[0] for k in keys], 2),
                z=np.repeat([k[1] for k in keys], 2),
            )
            gamma, delta = float(rng.uniform(1, 2)), float(rng.uniform(0.3, 1.0))
            eps = float(rng.uniform(0.1, 2.0))
            for direction in ("lower", "upper"):
                cfg = SensitivityConfig(gamma=gamma, delta=delta, epsilon=eps,
                                        m=2, direction=direction)
                r = iv_att_bound(data, cfg)
                status, est = brute_iv(strata_y, gamma, delta, eps, 2,
                                       direction=direction)
                assert r.status == status
                if status == "optimal":
                    assert r.estimate == pytest.approx(est, abs=1e-8)

    def test_grid_memory_independent_of_shift_count(self):
        # a dense (2m+1) x (K+1) float array alone would take 190 MB here
        rng = np.random.default_rng(64)
        n0, n1 = 60_000, 20_000
        data = Dataset(
            y=np.concatenate([rng.normal(0, 1, n0), rng.normal(0.3, 1.2, n1)]),
            t=np.r_[np.zeros(n0, int), np.ones(n1, int)],
        )
        cfg = SensitivityConfig(gamma=2.0, delta=0.05, m=200)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            r = distributional_att_bound(data, cfg)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.status == "optimal"
        assert peak < 64 * 2**20
        assert elapsed < 1.0


class TestOneRowExtreme:
    """``_ShiftSolve.weights_for`` reads both weighted-mean range ends at the
    picked shift only: the same row reduction, so the same value as the
    full grid's entry."""

    @pytest.mark.parametrize("m", [1, 20, 200])
    @pytest.mark.parametrize("shape", _KERNEL_SHAPES)
    def test_one_row_equals_full_grid(self, m, shape, monkeypatch):
        data = _kernel_dataset(np.random.default_rng(m), shape, 300, 200)
        plan = ds._att_plan(data, m, "grid")
        caps = plan.capped([2.0])
        (group,) = plan.groups
        bands = group.bands.at(0.5)

        def fresh():
            return ds._shift_solve(caps, group.bands.cols, *bands)

        full = fresh()
        rows = np.flatnonzero(full.feasible)
        assert rows.size
        sizes = _record_bucket_means(monkeypatch)
        for from_top in (True, False):
            solve = fresh()
            sizes.clear()
            one = np.array([solve.extreme(from_top, slice(j, j + 1))[0] for j in rows])
            assert sizes == [(from_top, 1)] * rows.size  # no full grid computed
            assert np.all(one == full.extreme(from_top)[rows])
            assert one.tobytes() == full.extreme(from_top)[rows].tobytes()

    @pytest.mark.parametrize("m", [1, 20, 200])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_att_bound_reads_one_grid(self, m, direction, monkeypatch):
        data = _kernel_dataset(np.random.default_rng(m), "spread", 300, 200)
        plan = ds._att_plan(data, m, "grid")
        caps = plan.capped([2.0])
        unread = direction == "upper"  # from_top of the grid a bound leaves unread
        sizes = _record_bucket_means(monkeypatch)
        results = []
        for both in (False, True):
            sizes.clear()
            # both: the scan reads both grids before the pick, as the sweep does
            directions = ("lower", "upper") if both else (direction,)
            bounds = ds._att_bounds(data, plan, caps, 0.1, directions, None)
            results.append(bounds[directions.index(direction)])
            # alone, a bound reads the other end once, at its picked row
            assert ([n for top, n in sizes if top == unread] == [1]) == (not both)
        one, full = results
        assert one.status == full.status == "optimal"
        assert one == full
        assert one.weight_values.tobytes() == full.weight_values.tobytes()


def _record_bucket_means(monkeypatch):
    """Record ``(from_top, rows)`` of every ``_bucket_means`` call."""
    sizes = []
    real = ds._bucket_means

    def recording(caps, cell, cols, cum, from_top):
        sizes.append((from_top, cum.shape[0]))
        return real(caps, cell, cols, cum, from_top)

    monkeypatch.setattr(ds, "_bucket_means", recording)
    return sizes


def _near_tol_bands(rng, gamma, rows=400, k=40, width=6):
    """Bands (rows, width) whose interior column ``j`` of each row has a
    clipped lower band above the upper by about ``_TOL``: within 8 ulps of it
    in half the rows, anywhere in [0, 2 margin] in the other half; some rows'
    upper band is clipped at 1; margin is the screen's at ``gamma``.  Also
    the capacities at ``gamma`` below the breakpoint columns."""
    counts = rng.integers(1, 4, k)
    cum = np.concatenate(([0.0], np.cumsum(counts * (gamma / counts.sum()))))
    cols = np.concatenate(
        ([0], np.sort(rng.choice(np.arange(1, k), width - 2, replace=False)), [k]))
    hi = np.sort(rng.uniform(0.05, 1.05, (rows, width)), axis=1)
    lo = hi - rng.uniform(0.0, 0.05, (rows, width))
    lo[:, 0], hi[:, 0], lo[:, -1], hi[:, -1] = 0.0, 0.0, 1.0, 1.0
    margin = ds._TOL + 4 * np.finfo(float).eps * (1 + gamma)
    r, j = np.arange(rows), rng.integers(1, width - 1, rows)
    top = np.minimum(hi[r, j], 1.0) + ds._TOL
    lo[r, j] = top + rng.integers(-8, 9, rows) * np.spacing(top)
    half = rows // 2
    lo[r[:half], j[:half]] = (np.minimum(hi[r[:half], j[:half]], 1.0)
                              + rng.uniform(0.0, 2 * margin, half))
    return lo, hi, cum[cols]


class TestMonteCarloScreen:
    @pytest.mark.parametrize("gamma", [1.0, 5.0, 1e8])
    def test_screen_keeps_every_feasible_row(self, gamma):
        rng = np.random.default_rng(66)
        rounded_in = 0
        for _ in range(20):
            lo, hi, p = _near_tol_bands(rng, gamma)
            feasible = ds._breakpoint_extremes(lo, hi, p)[0]
            keep = ds._screen(lo, hi, gamma)
            assert not np.any(feasible & ~keep)
            assert not keep.all()  # rows past the margin go
            gap = (np.clip(lo, 0, 1) - np.clip(hi, 0, 1))[:, 1:-1].max(axis=1)
            rounded_in += np.sum(feasible & (gap > ds._TOL))
        if gamma == 1e8:
            # the scan's rounding at this gamma admits rows a margin of
            # _TOL alone would drop
            assert rounded_in > 0

    def test_pinned_columns_are_the_scan_tests(self):
        lo = np.array([[0.0, 0.5, 1.0], [2e-9, 0.5, 1.0], [0.0, 0.5, 1 + 2e-9],
                       [0.0, 0.5, 1.0]])
        hi = np.array([[0.0, 0.6, 1.0], [0.0, 0.6, 1.0], [0.0, 0.6, 1.0],
                       [0.0, 0.6, 1 - 2e-9]])
        keep = ds._screen(lo, hi, 1.0)
        np.testing.assert_array_equal(keep, [True, False, False, False])
        feasible = ds._breakpoint_extremes(lo, hi, np.array([0.0, 1.0, 2.0]))[0]
        np.testing.assert_array_equal(feasible, keep)


class TestAtc:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(25)
        for model in ("marginal", "tv", "distributional"):
            for _ in range(10):
                data = _random_dataset(rng)
                cfg = SensitivityConfig(gamma=2.0, delta=0.8, lambda_tv=0.3, m=3)
                r = atc_bound(data, model, cfg)
                swapped = data.swap_arms()
                if model == "marginal":
                    inner = marginal_att_bound(swapped, cfg.gamma, "upper")
                elif model == "tv":
                    inner = tv_att_bound(swapped, cfg.lambda_tv, "upper")
                else:
                    from dataclasses import replace
                    inner = distributional_att_bound(
                        swapped, replace(cfg, direction="upper")
                    )
                assert r.estimate == pytest.approx(-inner.estimate, abs=1e-12)

    def test_gamma_one_marginal(self):
        r = atc_bound(FIVE_UNITS, "marginal", SensitivityConfig(gamma=1.0))
        assert r.estimate == pytest.approx(1.5, abs=1e-9)

    def test_small_instance_against_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            data = _random_dataset(rng, n0_max=5, n1_max=5)
            gamma = float(rng.uniform(1, 4))
            r = atc_bound(data, "marginal", SensitivityConfig(gamma=gamma))
            # ATC lower = counterfactual treated mean minimum minus control mean
            oracle = box_simplex_extreme(
                data.treated_y, 1 / (gamma * data.n1), gamma / data.n1,
                maximize=False,
            )
            assert r.estimate == pytest.approx(
                oracle - data.control_y.mean(), abs=1e-9
            )
            assert r.estimate == pytest.approx(
                r.treated_mean - r.counterfactual_mean, abs=1e-12
            )

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            atc_bound(FIVE_UNITS, "nearest", SensitivityConfig())


def _covariate_dataset():
    # controls carry covariate x1 = 0..3; treated mean of x1 is 2.5
    y = np.array([10.0, 0.0, 0.0, 0.0, 5.0, 5.0])
    t = np.array([0, 0, 0, 0, 1, 1])
    x = np.array([[0.0], [1.0], [2.0], [3.0], [2.0], [3.0]])
    return Dataset(y=y, t=t, x=x)


class TestBalance:
    def test_zero_penalty_unchanged(self):
        data = _covariate_dataset()
        plain = distributional_att_bound(
            data, SensitivityConfig(gamma=4.0, delta=1.0, m=2)
        )
        with_zero = distributional_att_bound(
            data, SensitivityConfig(gamma=4.0, delta=1.0, m=2, balance_lambda=0.0)
        )
        assert with_zero.estimate == pytest.approx(plain.estimate, abs=1e-12)

    def test_constant_covariate_slack_free(self):
        y = np.array([3.0, 1.0, 4.0, 2.0, 6.0])
        data = Dataset(y=y, t=[0, 0, 0, 1, 1], x=np.ones((5, 1)))
        plain = distributional_att_bound(
            data, SensitivityConfig(gamma=3.0, delta=1.0, m=2)
        )
        balanced = distributional_att_bound(
            data, SensitivityConfig(gamma=3.0, delta=1.0, m=2, balance_lambda=50.0)
        )
        assert balanced.estimate == pytest.approx(plain.estimate, abs=1e-8)

    def test_huge_penalty_is_lexicographic(self):
        data = _covariate_dataset()
        cfg = SensitivityConfig(gamma=4.0, delta=1.0, m=2, balance_lambda=1e6)
        r = distributional_att_bound(data, cfg)
        w = np.array([r.weights[i] for i in range(4)])
        imbalance = abs(2.5 - w @ np.array([0.0, 1.0, 2.0, 3.0]))
        # stage 1: perfect balance is achievable, so it must be (near) attained
        assert imbalance <= 1e-6
        # stage 2: among balanced weights the best weighted outcome is 10/6
        assert r.counterfactual_mean == pytest.approx(10 / 6, abs=1e-5)

    def test_hard_constraint_mode(self):
        data = _covariate_dataset()
        cfg = SensitivityConfig(gamma=4.0, delta=1.0, m=2, balance_epsilon=0.0)
        r = distributional_att_bound(data, cfg)
        w = np.array([r.weights[i] for i in range(4)])
        assert abs(2.5 - w @ np.array([0.0, 1.0, 2.0, 3.0])) <= 1e-7
        assert r.counterfactual_mean == pytest.approx(10 / 6, abs=1e-7)

    def test_vacuous_hard_constraint_equals_fast_path(self):
        # forces the LP route; must agree with the scan-based solver
        data = _covariate_dataset()
        rng = np.random.default_rng(27)
        for _ in range(10):
            gamma = float(rng.uniform(1, 4))
            delta = float(rng.uniform(0.3, 1.0))
            for direction in ("lower", "upper"):
                fast = distributional_att_bound(data, SensitivityConfig(
                    gamma=gamma, delta=delta, m=3, direction=direction))
                lp = distributional_att_bound(data, SensitivityConfig(
                    gamma=gamma, delta=delta, m=3, direction=direction,
                    balance_epsilon=math.inf))
                assert lp.status == fast.status
                if fast.status == "optimal":
                    assert lp.estimate == pytest.approx(fast.estimate, abs=1e-8)

    def test_balance_terms_validation(self):
        data = _covariate_dataset()
        with pytest.raises(ValueError):
            balance_terms(data, -1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                balance_terms(data, lam)
        with pytest.raises(ValueError):
            balance_terms(FIVE_UNITS, 1.0)

    @pytest.mark.parametrize("model", ["marginal", "tv"])
    @pytest.mark.parametrize("knobs,named", [
        ({"balance_lambda": 5.0}, "balance_lambda"),
        ({"balance_epsilon": 0.0}, "balance_epsilon"),
        ({"balance_lambda": 5.0, "balance_epsilon": 1.0},
         "balance_lambda and balance_epsilon"),
    ])
    def test_models_without_balance_refuse_the_knobs(self, model, knobs, named):
        # the knobs would otherwise be ignored, so the estimate would not move
        data = _covariate_dataset()
        cfg = SensitivityConfig(gamma=2.0, lambda_tv=0.3, **knobs)
        for solve in (ds._att_bound, atc_bound):
            with pytest.raises(ValueError, match=f"^{named} .* the {model} model"):
                solve(data, model, cfg)

    @pytest.mark.parametrize("route", ["att", "atc", "did", "cic"])
    def test_both_balance_forms_refused(self, route):
        # the cap would drop the penalty from the objective without a word
        data = _balance_sample(33, n=60, n1=25)
        solve = {"att": distributional_att_bound, "did": did_att_bound, "cic": cic_att_bound,
                 "atc": lambda d, c: atc_bound(d, "distributional", c)}[route]
        cfg = SensitivityConfig(gamma=2.0, delta=0.3, m=10, epsilon=0.5,
                                balance_lambda=50.0, balance_epsilon=0.2)
        with pytest.raises(ValueError, match="^balance_lambda and balance_epsilon exclude"):
            solve(data, cfg)
        for form in ({"balance_epsilon": None}, {"balance_lambda": 0.0}):
            assert solve(data, replace(cfg, **form)).status in ("optimal", "infeasible")


def _balance_sample(seed, n=200, n1=80):
    """Three covariates that confound treatment, and baseline outcomes."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, 3)), 6)
    t = np.zeros(n, dtype=int)
    t[np.argsort(-(0.5 * x[:, 0] + rng.gumbel(size=n)))[:n1]] = 1
    y = np.round(x @ np.array([1.0, 0.5, -0.5]) + 0.5 * t + rng.normal(size=n), 6)
    y_b = np.round(y - 0.5 * t + rng.normal(0.0, 0.5, n), 6)
    return Dataset(y=y, t=t, x=x, y_b=y_b)


def _every_shift_route(data, cfg, window):
    """The balance route without screen or pruning: one LP per shift whose
    pinned columns allow weights, best (value, |c|, c) key wins.  Returns
    the winner ``(w, shift)`` or None, and the LP verdict per solved shift."""
    grid = shift_grid(data.y, cfg.m)
    plan, caps, bands = _one_row_plan(data, cfg)
    lo, hi = bands.at(cfg.delta)
    lp = ds._balance_lp(data, cfg, balance_terms(data, cfg.balance_lambda), bands.cols[0],
                        plan.inverse[0], window)
    start = _start_weights(plan, caps, bands, lo, hi, cfg.direction)
    best, solved = None, {}
    for j, c in enumerate(grid.shifts):
        if lo[j, 0] > 1e-9 or hi[j, -1] < 1 - 1e-9 or lo[j, -1] > 1 + 1e-9:
            continue
        sol = ds._solve_balance_lp(lp, lo[j], hi[j], start[j])
        solved[j] = sol is not None
        if sol is None:
            continue
        penalized, w = sol
        key = (-penalized if cfg.direction == "lower" else penalized, abs(c), c)
        if best is None or key < best[0]:
            best = (key, w, float(c))
    return (None if best is None else best[1:]), solved


def _one_row_plan(data, cfg):
    """The sample's one-row plan, capped at ``cfg.gamma``, and its bands."""
    plan = ds._att_plan(data, cfg.m, cfg.ks_mode)
    (group,) = plan.groups
    return plan, plan.capped([cfg.gamma]), group.bands


def _start_weights(plan, caps, bands, lo, hi, direction):
    """Each shift's start for its LP: its extreme weights in one kernel solve."""
    start = ds._shift_solve(caps, bands.cols, lo, hi)
    return [plan.unit_weights(0, start.extreme_masses(j, direction == "lower"))
            for j in range(lo.shape[0])]


def _widened_screen(data, cfg, window):
    """Per shift: does the balance-free kernel find weights with the band
    widened by the LP's 1e-8 row tolerance, and (with a mean window) does
    their weighted-mean range reach the window within the LP's tolerance?
    Also the band rows per shift."""
    y0 = data.control_y
    _, caps, bands = _one_row_plan(data, cfg)
    lo, hi = bands.at(cfg.delta)
    wide, c_least, c_great = ds._breakpoint_extremes(
        lo - 1e-8, hi + 1e-8, caps.cum_caps[bands.cols[0]])
    if window is not None:
        reach = 1.1e-8 * (1.0 + np.abs(y0).max())
        top = ds._bucket_means(caps, None, bands.cols, c_least, from_top=True)
        bottom = ds._bucket_means(caps, None, bands.cols, c_great, from_top=False)
        wide &= (top >= window[0] - reach) & (bottom <= window[1] + reach)
    return wide, lo, hi


def _per_lp_problem(data, config, bal, cols, lo_row, hi_row, plan, caps, mean_window):
    """One shift's balance LP built whole, a row at a time: the band rows,
    two rows per covariate, the balance_epsilon row and the mean-window
    rows; the start from a one-row kernel scan of this shift."""
    y0 = data.control_y
    n0, n_aux = y0.size, bal.n_covariates
    maximize = config.direction == "lower"
    c = np.concatenate([y0, np.zeros(n_aux)])
    if bal.lam > 0 and config.balance_epsilon is None:
        c[n0:] = -bal.lam if maximize else bal.lam
    rows_a, rows_b = [], []
    for q, lo_q, hi_q in zip(cols[1:], lo_row[1:], hi_row[1:]):
        below = (plan.inverse[0] < q).astype(float)
        if hi_q < 1:
            rows_a.append(np.concatenate([below, np.zeros(n_aux)]))
            rows_b.append(hi_q)
        if lo_q > 0:
            rows_a.append(np.concatenate([-below, np.zeros(n_aux)]))
            rows_b.append(-lo_q)
    s_caps = np.zeros(n_aux)
    for j in range(n_aux):
        xj = bal.control_x[:, j]
        s = np.zeros(n_aux)
        s[j] = -1.0
        rows_a.append(np.concatenate([xj, s]))
        rows_b.append(bal.treated_means[j])
        rows_a.append(np.concatenate([-xj, s]))
        rows_b.append(-bal.treated_means[j])
        s_caps[j] = max(abs(bal.treated_means[j] - xj.min()),
                        abs(bal.treated_means[j] - xj.max())) + 1.0
    if config.balance_epsilon is not None and math.isfinite(config.balance_epsilon):
        rows_a.append(np.concatenate([np.zeros(n0), np.ones(n_aux)]))
        rows_b.append(config.balance_epsilon)
    if mean_window is not None:
        wlo, whi = mean_window
        if math.isfinite(whi):
            rows_a.append(np.concatenate([y0, np.zeros(n_aux)]))
            rows_b.append(whi)
        if math.isfinite(wlo):
            rows_a.append(np.concatenate([-y0, np.zeros(n_aux)]))
            rows_b.append(-wlo)
    _, c_least, c_great = ds._breakpoint_extremes(lo_row[None, :], hi_row[None, :],
                                                  caps.cum_caps[cols])
    cum = ds._bucket_cumulative(cols, c_least[0] if maximize else c_great[0],
                                caps.cum_caps, from_top=maximize)
    return LpProblem(
        c=c, sense="max" if maximize else "min", a_ub=np.vstack(rows_a),
        b_ub=np.asarray(rows_b), a_eq=np.concatenate([np.ones(n0), np.zeros(n_aux)])[None, :],
        b_eq=[1.0], lower=np.zeros(n0 + n_aux),
        upper=np.concatenate([np.full(n0, min(config.gamma / n0, 1.0)), s_caps]),
        x0=np.concatenate([plan.unit_weights(0, ds._masses(cum)), np.zeros(n_aux)]),
    )


class TestBalanceRouteWork:
    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        real = ds.solve_lp

        def counting(problem):
            calls.append(problem)
            return real(problem)

        monkeypatch.setattr(ds, "solve_lp", counting)
        return calls

    def test_tv_solves_no_lp(self, lp_calls):
        data = _balance_sample(30)
        for direction in ("lower", "upper"):
            tv_att_bound(data, 0.1, direction)
            atc_bound(data, "tv", SensitivityConfig(lambda_tv=0.1, direction=direction))
        assert lp_calls == []

    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_band_rows_match_the_per_breakpoint_loop(self, lp_calls, ks_mode):
        # per breakpoint: the indicator row where hi < 1, then its negation
        # where lo > 0, as rows, order, signs and right-hand sides
        data = _balance_sample(31)
        cfg = SensitivityConfig(gamma=2.0, delta=0.1, m=20, balance_lambda=0.5,
                                ks_mode=ks_mode)
        plan, caps, bands = _one_row_plan(data, cfg)
        cols = bands.cols[0]
        lo, hi = bands.at(cfg.delta)
        bal = balance_terms(data, cfg.balance_lambda)
        lp = ds._balance_lp(data, cfg, bal, cols, plan.inverse[0], None)
        start = _start_weights(plan, caps, bands, lo, hi, cfg.direction)
        trimmed = 0
        for j in range(lo.shape[0]):
            ds._solve_balance_lp(lp, lo[j], hi[j], start[j])
            rows_a, rows_b = [], []
            for q, lo_q, hi_q in zip(cols[1:], lo[j, 1:], hi[j, 1:]):
                row = (plan.inverse[0] < q).astype(float)
                if hi_q < 1:
                    rows_a.append(row)
                    rows_b.append(hi_q)
                if lo_q > 0:
                    rows_a.append(-row)
                    rows_b.append(-lo_q)
            k = len(rows_b)
            trimmed += k < 2 * (cols.size - 1)
            problem = lp_calls[-1]
            assert np.array_equal(problem.a_ub[:k, :data.n0], np.reshape(rows_a, (k, data.n0)))
            assert not problem.a_ub[:k, data.n0:].any()
            assert problem.b_ub[:k].tolist() == rows_b
            assert problem.a_ub.shape[0] == k + 2 * bal.n_covariates
        assert trimmed  # some shift skips a trivial band side

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("form,did,ks_mode", [
        ({"balance_lambda": 0.5}, False, "grid"),
        ({"balance_epsilon": 0.2}, False, "grid"),
        ({"balance_epsilon": math.inf}, False, "grid"),
        ({"balance_epsilon": 0.2}, True, "grid"),
        ({"balance_lambda": 0.5}, True, "exact_atoms"),
    ])
    def test_lps_match_the_per_lp_builder(self, lp_calls, form, did, ks_mode, direction):
        # the shift-free parts built once per route and the start from one
        # scan of all shifts give every LP exactly as a whole build per LP
        data = _balance_sample(31)
        cfg = SensitivityConfig(gamma=2.0, delta=0.1, m=20, direction=direction,
                                epsilon=0.05 if did else math.inf, ks_mode=ks_mode, **form)
        window = None
        if did:
            target = DidTargets.from_dataset(data).target_mean
            window = (target - cfg.epsilon, target + cfg.epsilon)
        r = did_att_bound(data, cfg) if did else distributional_att_bound(data, cfg)
        assert r.status == "optimal" and lp_calls
        plan, caps, bands = _one_row_plan(data, cfg)
        cols = bands.cols[0]
        lo, hi = bands.at(cfg.delta)
        bal = balance_terms(data, cfg.balance_lambda)
        want = [_per_lp_problem(data, cfg, bal, cols, lo[j], hi[j], plan, caps, window)
                for j in range(lo.shape[0])]
        names = ("c", "sense", "a_ub", "b_ub", "a_eq", "b_eq", "lower", "upper", "x0")
        for got in lp_calls:
            assert any(all(np.array_equal(getattr(got, f), getattr(w, f)) for f in names)
                       for w in want)

    @pytest.mark.parametrize("form,direction,did,ks_mode", [
        ({"balance_lambda": 0.5}, "lower", False, "grid"),
        ({"balance_lambda": 0.5}, "upper", False, "grid"),
        ({"balance_epsilon": 0.2}, "lower", False, "grid"),
        ({"balance_epsilon": 0.2}, "upper", False, "grid"),
        ({"balance_lambda": 0.5}, "lower", True, "grid"),
        ({"balance_epsilon": 0.2}, "upper", True, "grid"),
        ({"balance_lambda": 0.5}, "upper", False, "exact_atoms"),
    ])
    def test_pruned_route_matches_every_shift_solve(self, lp_calls, monkeypatch,
                                                    form, direction, did, ks_mode):
        data = _balance_sample(31)
        cfg = SensitivityConfig(gamma=2.0, delta=0.1, m=20, direction=direction,
                                epsilon=0.05 if did else math.inf, ks_mode=ks_mode,
                                **form)
        window = None
        if did:
            target = DidTargets.from_dataset(data).target_mean
            window = (target - cfg.epsilon, target + cfg.epsilon)
        built = []
        real_build = ds._solve_balance_lp

        def recording(lp, lo_row, hi_row, start):
            built.append((lo_row.copy(), hi_row.copy()))
            return real_build(lp, lo_row, hi_row, start)

        monkeypatch.setattr(ds, "_solve_balance_lp", recording)
        r = did_att_bound(data, cfg) if did else distributional_att_bound(data, cfg)
        n_route = len(lp_calls)
        monkeypatch.setattr(ds, "_solve_balance_lp", real_build)
        best, solved = _every_shift_route(data, cfg, window)

        # no LP for a shift the widened screen rejects; each such LP is
        # infeasible indeed
        wide, lo, hi = _widened_screen(data, cfg, window)
        assert n_route == len(built) < len(solved)
        if did:
            # the mean window rules out the shifts whose LPs it makes infeasible
            assert n_route < 4
        for lo_row, hi_row in built:
            rows = np.flatnonzero((lo == lo_row).all(axis=1) & (hi == hi_row).all(axis=1))
            assert rows.size and wide[rows].all()
        assert not any(ok for j, ok in solved.items() if not wide[j])

        if best is None:
            assert r.status == "infeasible"
            return
        w, shift = best
        raw = float(w @ data.control_y)
        assert r.status == "optimal"
        assert r.active_shift == shift
        assert r.counterfactual_mean == raw
        assert r.estimate == float(data.treated_y.mean()) - raw
        assert r.weights == {int(i): float(wi) for i, wi in zip(data.control_indices, w)}

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("smaller_shift_ahead", [True, False])
    def test_roundoff_tie_goes_to_smaller_shift(self, monkeypatch, direction,
                                                smaller_shift_ahead):
        # two shifts whose LP values differ by roundoff only: the pick must not
        # depend on which of them the pivot path happens to favour
        data = _balance_sample(32)
        cfg = SensitivityConfig(gamma=2.0, delta=0.1, m=20, direction=direction,
                                balance_lambda=0.5)
        wide, lo, hi = _widened_screen(data, cfg, None)
        shifts = shift_grid(data.y, cfg.m).shifts

        def rows_of(lo_row, hi_row):
            return np.flatnonzero((lo == lo_row).all(axis=1) & (hi == hi_row).all(axis=1))

        unique = [j for j in np.flatnonzero(wide) if rows_of(lo[j], hi[j]).size == 1]
        by_size = sorted(unique, key=lambda j: abs(shifts[j]))
        near, far = by_size[0], by_size[-1]
        assert abs(shifts[near]) < abs(shifts[far])
        y0 = data.control_y
        maximize = direction == "lower"
        # below every screen bound, so that neither shift is pruned
        base = math.floor(y0.min()) - 1.0 if maximize else math.ceil(y0.max()) + 1.0
        ahead = base + (1e-15 if maximize else -1e-15)
        values = {near: ahead if smaller_shift_ahead else base,
                  far: base if smaller_shift_ahead else ahead}
        assert values[near] != values[far]
        uniform = np.full(y0.size, 1.0 / y0.size)

        def fake(lp, lo_row, hi_row, start):
            j = rows_of(lo_row, hi_row)
            return (values[j[0]], uniform) if j.size == 1 and j[0] in values else None

        monkeypatch.setattr(ds, "_solve_balance_lp", fake)
        r = distributional_att_bound(data, cfg)
        assert r.status == "optimal"
        assert r.active_shift == shifts[near]

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("smaller_shift_ahead", [True, False])
    def test_earnings_scale_tie_goes_to_smaller_shift(self, monkeypatch, direction,
                                                      smaller_shift_ahead):
        # outcomes of order 1e4: roundoff in the LP values grows with them,
        # so two values 1e-9 apart still tie
        plain = _balance_sample(32)
        data = Dataset(y=plain.y * 1e4, t=plain.t, x=plain.x)
        cfg = SensitivityConfig(gamma=2.0, delta=0.1, m=20, direction=direction,
                                balance_lambda=0.5)
        wide, lo, hi = _widened_screen(data, cfg, None)
        shifts = shift_grid(data.y, cfg.m).shifts

        def rows_of(lo_row, hi_row):
            return np.flatnonzero((lo == lo_row).all(axis=1) & (hi == hi_row).all(axis=1))

        unique = [j for j in np.flatnonzero(wide) if rows_of(lo[j], hi[j]).size == 1]
        by_size = sorted(unique, key=lambda j: abs(shifts[j]))
        near, far = by_size[0], by_size[-1]
        assert abs(shifts[near]) < abs(shifts[far])
        y0 = data.control_y
        maximize = direction == "lower"
        # below every screen bound, so that neither shift is pruned
        base = math.floor(y0.min()) - 1.0 if maximize else math.ceil(y0.max()) + 1.0
        ahead = base + (1e-9 if maximize else -1e-9)
        values = {near: ahead if smaller_shift_ahead else base,
                  far: base if smaller_shift_ahead else ahead}
        assert abs(values[near] - values[far]) > 1e-12  # beyond an absolute 1e-12
        uniform = np.full(y0.size, 1.0 / y0.size)

        def fake(lp, lo_row, hi_row, start):
            j = rows_of(lo_row, hi_row)
            return (values[j[0]], uniform) if j.size == 1 and j[0] in values else None

        monkeypatch.setattr(ds, "_solve_balance_lp", fake)
        r = distributional_att_bound(data, cfg)
        assert r.status == "optimal"
        assert r.active_shift == shifts[near]


class TestConditionalSe:
    def test_degenerate_outcomes(self):
        data = Dataset(y=[5.0, 5.0, 7.0, 7.0], t=[0, 0, 1, 1])
        assert conditional_se(data, [0.5, 0.5]) == 0.0

    def test_uniform_weight_reduction(self):
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0], t=[0, 0, 1, 1])
        # s1^2 = 2, n1 = 2; population control term at mu_w = 1 is 0.5
        assert conditional_se(data, [0.5, 0.5]) == pytest.approx(math.sqrt(1.5))

    def test_point_mass_weight(self):
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0], t=[0, 0, 1, 1])
        assert conditional_se(data, [1.0, 0.0]) == pytest.approx(1.0)

    def test_requires_two_treated(self):
        data = Dataset(y=[0.0, 2.0, 1.0], t=[0, 0, 1])
        with pytest.raises(ValueError):
            conditional_se(data, [0.5, 0.5])

    def test_accepts_weight_dict(self):
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0], t=[0, 0, 1, 1])
        assert conditional_se(data, {0: 0.5, 1: 0.5}) == pytest.approx(
            conditional_se(data, [0.5, 0.5])
        )

    def test_rejects_nan_weights(self):
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0], t=[0, 0, 1, 1])
        with pytest.raises(ValueError, match="finite"):
            conditional_se(data, [math.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            conditional_se(data, {0: 1.0, 1: math.nan})

    def test_rejects_keys_outside_control_arm(self):
        # unit 4 is treated, unit 7 does not exist
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0, 4.0], t=[0, 0, 1, 1, 1])
        for stray in (4, 7, -1):
            with pytest.raises(ValueError, match=rf"outside the control arm: \[{stray}\]"):
                conditional_se(data, {0: 0.5, 1: 0.5, stray: 0.7})
        with pytest.raises(ValueError, match="integer unit indices"):
            conditional_se(data, {"0": 0.5, 1: 0.5})

    def test_rejects_two_dimensional_vector(self):
        data = Dataset(y=[0.0, 2.0, 1.0, 3.0], t=[0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"1-D vector.*\(1, 2\)"):
            conditional_se(data, np.array([[0.5, 0.5]]))


def _weight_routes():
    """One param per route; ``solve()`` returns the result, the dataset the
    reweighted arm is the control arm of, and that arm's unit indices."""
    rng = np.random.default_rng(11)
    n = 48
    t = np.tile([0, 1, 0, 0, 1, 1], n // 6)
    z = np.tile([0, 0, 1, 1, 1, 0, 1, 0], n // 8)
    y = rng.normal(0.5 * t, 1.0)
    data = Dataset(y=y, t=t, y_b=y + rng.normal(0.0, 0.3, n), z=z,
                   x=rng.normal(0.0, 1.0, (n, 2)))
    swapped = data.swap_arms()
    base = SensitivityConfig(gamma=2.0, delta=0.4, m=4)

    def att(solver):
        return lambda: (solver(), data, data.control_indices)

    def atc(model):
        return lambda: (atc_bound(data, model, replace(base, lambda_tv=0.3)),
                        swapped, swapped.control_indices)

    routes = {
        "marginal": att(lambda: marginal_att_bound(data, 2.0, "lower")),
        "tv": att(lambda: tv_att_bound(data, 0.3, "upper")),
        "distributional-grid": att(lambda: distributional_att_bound(data, base)),
        "distributional-exact": att(lambda: distributional_att_bound(
            data, replace(base, ks_mode="exact_atoms", direction="upper"))),
        "did": att(lambda: did_att_bound(data, replace(base, epsilon=0.5))),
        "cic": att(lambda: cic_att_bound(data, replace(base, epsilon=0.5))),
        "iv": att(lambda: iv_att_bound(data, replace(base, m=2, delta=0.6))),
        "atc-marginal": atc("marginal"),
        "atc-tv": atc("tv"),
        "atc-distributional": atc("distributional"),
        "balance-lambda": att(lambda: distributional_att_bound(
            data, replace(base, m=2, balance_lambda=0.5))),
        "balance-epsilon": att(lambda: distributional_att_bound(
            data, replace(base, m=2, balance_epsilon=1.0, direction="upper"))),
    }
    return [pytest.param(solve, id=name) for name, solve in routes.items()]


class TestWeightArrays:
    """``BoundResult`` holds the weights as (index, value) arrays; the
    ``weights`` mapping is derived from them."""

    @pytest.mark.parametrize("solve", _weight_routes())
    def test_route(self, solve):
        r, data, arm = solve()
        assert r.status == "optimal"
        index, values = r.weight_index, r.weight_values
        assert index.dtype == np.int64 and values.dtype == np.float64
        assert index.shape == values.shape == (index.size,) and index.size
        assert np.all(np.diff(index) > 0)
        assert np.isin(index, arm).all()
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert r.weights == dict(zip(index.tolist(), values.tolist()))
        assert r.weights is r.weights  # built once
        with pytest.raises(TypeError):
            r.weights[int(index[0])] = 0.0
        with pytest.raises(ValueError):
            index[0] = -1  # the arrays are read-only too
        dense = np.zeros(arm.size)
        dense[np.searchsorted(arm, index)] = values
        assert r.se == conditional_se(data, dense)
        assert r.se == conditional_se(data, r.weights)

    def test_infeasible(self):
        data = Dataset(y=[0.0, 1.0, 0.0, 0.4, 1.0], t=[0, 0, 1, 1, 1])
        cfg = SensitivityConfig(gamma=5.0, delta=0.05, m=5, ks_mode="exact_atoms")
        for r in (distributional_att_bound(data, cfg),
                  atc_bound(data.swap_arms(), "distributional",
                            replace(cfg, direction="upper"))):
            assert r.status == "infeasible"
            assert r.weight_index.dtype == np.int64 and r.weight_index.size == 0
            assert r.weight_values.size == 0
            assert r.weights == {}
            with pytest.raises(TypeError):
                r.weights[0] = 1.0

    def test_equality_compares_arrays(self):
        a = marginal_att_bound(FIVE_UNITS, 2.0, "lower")
        assert a == marginal_att_bound(FIVE_UNITS, 2.0, "lower")
        assert a != marginal_att_bound(FIVE_UNITS, 2.0, "upper")
        assert a != replace(a, weight_values=a.weight_values[::-1])
        assert a != replace(a, weight_index=a.weight_index[:2],
                            weight_values=a.weight_values[:2])
        off = distributional_att_bound(FIVE_UNITS, SensitivityConfig(delta=0.0, m=1))
        assert off == replace(off) and off != a

    def test_rejects_malformed_arrays(self):
        a = marginal_att_bound(FIVE_UNITS, 2.0, "lower")
        with pytest.raises(ValueError, match="ascending"):
            replace(a, weight_index=a.weight_index[::-1])
        with pytest.raises(ValueError, match="equal length"):
            replace(a, weight_values=a.weight_values[:2])


class TestOrderAndMonotonicity:
    def test_lower_below_upper_and_monotone(self):
        rng = np.random.default_rng(28)
        gammas = [1.0, 1.5, 2.5, 4.0]
        deltas = [0.15, 0.3, 0.6, 1.0]
        radii = [0.0, 0.2, 0.5, 1.0]
        for _ in range(25):
            data = _random_dataset(rng, n0_max=10, n1_max=10)
            prev = None
            for g in gammas:
                low = marginal_att_bound(data, g, "lower").estimate
                up = marginal_att_bound(data, g, "upper").estimate
                assert low <= up + 1e-9
                if prev is not None:
                    assert low <= prev + 1e-9
                prev = low
            prev = None
            for lam in radii:
                low = tv_att_bound(data, lam, "lower").estimate
                assert low <= tv_att_bound(data, lam, "upper").estimate + 1e-9
                if prev is not None:
                    assert low <= prev + 1e-9
                prev = low
            prev = None
            for d in deltas:
                cfg = SensitivityConfig(gamma=2.0, delta=d, m=4)
                r = distributional_att_bound(data, cfg)
                if r.status != "optimal":
                    assert prev is None  # feasibility is monotone in delta
                    continue
                if prev is not None:
                    assert r.estimate <= prev + 1e-9
                prev = r.estimate

    def test_nesting_distributional_wider_than_marginal(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            data = _random_dataset(rng)
            g = float(rng.uniform(1, 5))
            marg = marginal_att_bound(data, g, "lower").estimate
            dist = distributional_att_bound(
                data, SensitivityConfig(gamma=g, delta=1.0, m=2)
            ).estimate
            assert dist <= marg + 1e-9


class TestFeasibilityThreshold:
    def test_bisection_matches_solver_verdicts(self):
        rng = np.random.default_rng(30)
        for mode in ("grid", "exact_atoms"):
            for _ in range(10):
                data = _random_dataset(rng)
                g = float(rng.uniform(1, 3))
                thr = minimal_achievable_ks(data, g, m=4, ks_mode=mode)
                above = distributional_att_bound(data, SensitivityConfig(
                    gamma=g, delta=min(1.0, thr + 1e-6), m=4, ks_mode=mode))
                assert above.status == "optimal"
                if thr > 1e-6:
                    below = distributional_att_bound(data, SensitivityConfig(
                        gamma=g, delta=max(0.0, thr - 1e-6), m=4, ks_mode=mode))
                    assert below.status == "infeasible"

    @pytest.mark.parametrize(
        "kwargs",
        [{"gamma": 0.5}, {"ks_mode": "nope"}, {"m": 0}, {"tol": 0.0},
         {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf}],
        ids=["gamma", "ks_mode", "m", "tol_zero", "tol_negative", "tol_nan",
             "tol_inf"],
    )
    def test_rejects_bad_knobs(self, kwargs):
        data = _random_dataset(np.random.default_rng(31))
        with pytest.raises(ValueError):
            minimal_achievable_ks(data, **{"gamma": 2.0, **kwargs})

    def test_tolerance_below_float_spacing_terminates(self):
        # the bisection stops once no float lies between its two ends
        rng = np.random.default_rng(32)
        for _ in range(5):
            data = _random_dataset(rng)
            coarse = minimal_achievable_ks(data, 1.5, m=4)
            fine = minimal_achievable_ks(data, 1.5, m=4, tol=1e-300)
            assert fine <= coarse <= fine + 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.5},
            {"delta": 1.5},
            {"delta": -0.1},
            {"epsilon": -1.0},
            {"lambda_tv": -0.2},
            {"lambda_tv": 1.5},
            {"m": 0},
            {"balance_lambda": -1.0},
            {"balance_epsilon": -0.5},
            {"direction": "sideways"},
            {"ks_mode": "luck"},
            {"gamma": math.inf},
            {"balance_lambda": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SensitivityConfig(**kwargs)
