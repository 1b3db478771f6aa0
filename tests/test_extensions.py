import math
from dataclasses import replace

import numpy as np
import pytest

import drci.extensions
from drci.distributions import Dataset, WeightedEcdf, shift_grid
from drci.dro_solvers import SensitivityConfig, _select_shift, distributional_att_bound
from drci.extensions import (
    DidTargets,
    IvStrata,
    cic_att_bound,
    did_att_bound,
    iv_att_bound,
)

from oracles import brute_distributional, brute_iv, composed_target, sort_merge_ecdf


def _panel(rng, n0=5, n1=4):
    y = np.concatenate([rng.normal(0, 1, n0), rng.normal(1, 1, n1)])
    y_b = np.concatenate([rng.normal(0, 1, n0), rng.normal(0.2, 1, n1)])
    t = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return Dataset(y=y, t=t, y_b=y_b)


class TestDid:
    def test_targets(self):
        data = Dataset(y=[1.0, 3.0, 10.0], t=[0, 0, 1], y_b=[0.0, 2.0, 5.0])
        tg = DidTargets.from_dataset(data)
        assert tg.mu_b1 == 5.0 and tg.mu_00 == 2.0 and tg.mu_b0 == 1.0
        assert tg.target_mean == 6.0

    def test_vacuous_slack_equals_plain(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            data = _panel(rng)
            cfg = SensitivityConfig(gamma=2.0, delta=0.8, epsilon=math.inf, m=3)
            did = did_att_bound(data, cfg)
            plain = distributional_att_bound(data, cfg)
            assert did.status == plain.status
            if did.status == "optimal":
                assert did.estimate == pytest.approx(plain.estimate, abs=1e-12)

    def test_zero_slack_recovers_classical_did(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            data = _panel(rng, n0=6, n1=5)
            cfg = SensitivityConfig(
                gamma=data.n0, delta=1.0, epsilon=0.0, m=2
            )
            target = DidTargets.from_dataset(data).target_mean
            if not data.control_y.min() <= target <= data.control_y.max():
                continue  # target outside the control hull cannot be pinned
            for direction in ("lower", "upper"):
                from dataclasses import replace
                r = did_att_bound(data, replace(cfg, direction=direction))
                assert r.status == "optimal"
                classical = data.treated_y.mean() - target
                assert r.estimate == pytest.approx(classical, abs=1e-8)

    def test_six_unit_instance_against_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            data = _panel(rng, n0=4, n1=2)
            eps = 0.5
            target = DidTargets.from_dataset(data).target_mean
            y0 = data.control_y
            extra = (
                np.vstack([y0, -y0]),
                np.asarray([target + eps, -(target - eps)]),
            )
            for direction in ("lower", "upper"):
                cfg = SensitivityConfig(
                    gamma=2.5, delta=0.7, epsilon=eps, m=2, direction=direction
                )
                r = did_att_bound(data, cfg)
                status, est, _ = brute_distributional(
                    y0, data.treated_y, 2.5, 0.7, 2, mode="grid",
                    direction=direction, backend="vertex", extra_ub=extra,
                )
                assert r.status == status
                if status == "optimal":
                    assert r.estimate == pytest.approx(est, abs=1e-8)

    def test_monotone_widening_in_slack(self):
        rng = np.random.default_rng(34)
        data = _panel(rng)
        prev = None
        for eps in (0.05, 0.2, 0.5, 2.0, math.inf):
            cfg = SensitivityConfig(gamma=3.0, delta=1.0, epsilon=eps, m=2)
            r = did_att_bound(data, cfg)
            if r.status != "optimal":
                continue
            if prev is not None:
                assert r.estimate <= prev + 1e-9
            prev = r.estimate

    def test_missing_baseline_rejected(self):
        data = Dataset(y=[0.0, 1.0, 2.0], t=[0, 0, 1])
        with pytest.raises(ValueError):
            did_att_bound(data, SensitivityConfig())


class TestCic:
    def test_identity_baselines_pin_control_mean(self):
        # baseline treated and control carry the same multiset, so the
        # composed CDF is the control endline distribution itself
        data = Dataset(
            y=[2.0, 4.0, 7.0, 5.0, 9.0, 11.0],
            t=[0, 0, 0, 1, 1, 1],
            y_b=[1.0, 5.0, 9.0, 1.0, 5.0, 9.0],
        )
        cfg = SensitivityConfig(gamma=3.0, delta=1.0, epsilon=0.0, m=2)
        r = cic_att_bound(data, cfg)
        assert r.status == "optimal"
        assert r.counterfactual_mean == pytest.approx(13 / 3, abs=1e-8)
        assert r.estimate == pytest.approx(25 / 3 - 13 / 3, abs=1e-8)

    def test_quantile_shift_target(self):
        # baseline treated one unit below baseline control at each quantile:
        # composed masses stay uniform on the control endline atoms
        data = Dataset(
            y=[2.0, 4.0, 7.0, 5.0, 9.0, 11.0],
            t=[0, 0, 0, 1, 1, 1],
            y_b=[0.0, 5.0, 9.0, -1.0, 4.0, 8.0],
        )
        cfg = SensitivityConfig(gamma=3.0, delta=1.0, epsilon=0.0, m=2)
        r = cic_att_bound(data, cfg)
        assert r.counterfactual_mean == pytest.approx(13 / 3, abs=1e-8)

    def test_vacuous_slack_equals_plain(self):
        rng = np.random.default_rng(35)
        data = _panel(rng)
        cfg = SensitivityConfig(gamma=2.0, delta=0.9, epsilon=math.inf, m=3)
        assert cic_att_bound(data, cfg).estimate == pytest.approx(
            distributional_att_bound(data, cfg).estimate, abs=1e-12
        )

    def test_missing_baseline_rejected(self):
        data = Dataset(y=[0.0, 1.0, 2.0], t=[0, 1, 1])
        with pytest.raises(ValueError):
            cic_att_bound(data, SensitivityConfig())


def _iv_dataset(rng, per_stratum=2):
    ys, ts, zs = [], [], []
    for t in (0, 1):
        for z in (0, 1):
            ys.append(rng.normal(t * 1.0 + 0.3 * z, 1.0, per_stratum))
            ts.append(np.full(per_stratum, t, dtype=int))
            zs.append(np.full(per_stratum, z, dtype=int))
    return Dataset(y=np.concatenate(ys), t=np.concatenate(ts),
                   z=np.concatenate(zs))


class TestIv:
    def test_strata_construction(self):
        rng = np.random.default_rng(36)
        data = _iv_dataset(rng, per_stratum=3)
        strata = IvStrata.from_dataset(data)
        assert sum(strata.counts.values()) == data.n
        assert sum(strata.proportions.values()) == pytest.approx(1.0)
        assert set(strata.treated_ecdf) == {0, 1}

    def test_vacuous_couplings_reach_stratum_extremes(self):
        rng = np.random.default_rng(37)
        data = _iv_dataset(rng, per_stratum=3)
        strata = IvStrata.from_dataset(data)
        gamma = 3.0  # cap 1 within each stratum
        cfg = SensitivityConfig(gamma=gamma, delta=1.0, epsilon=math.inf, m=2)
        r = iv_att_bound(data, cfg)
        p1 = strata.proportions[(1, 0)] + strata.proportions[(1, 1)]
        expected = sum(
            (strata.proportions[(1, z)] / p1)
            * (strata.outcomes[(1, z)].mean() - strata.outcomes[(0, z)].max())
            for z in (0, 1)
        )
        assert r.estimate == pytest.approx(expected, abs=1e-9)

    def test_perfect_compliance_rejected(self):
        t = np.array([0, 0, 1, 1])
        data = Dataset(y=[0.0, 1.0, 2.0, 3.0], t=t, z=t)
        with pytest.raises(ValueError):
            iv_att_bound(data, SensitivityConfig())

    def test_missing_instrument_rejected(self):
        with pytest.raises(ValueError):
            iv_att_bound(Dataset(y=[0.0, 1.0], t=[0, 1]), SensitivityConfig())

    @pytest.mark.parametrize("knobs,named", [({"balance_lambda": 5.0}, "balance_lambda"),
                                             ({"balance_epsilon": 0.0}, "balance_epsilon")])
    def test_balance_knobs_refused(self, knobs, named):
        data = _iv_dataset(np.random.default_rng(36), per_stratum=3)
        with pytest.raises(ValueError, match=f"^{named} is not supported by iv"):
            iv_att_bound(data, SensitivityConfig(delta=1.0, m=2, **knobs))

    def test_small_stratum_warning(self):
        data = Dataset(
            y=[0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0],
            t=[0, 0, 0, 1, 1, 1, 1],
            z=[0, 1, 1, 0, 0, 1, 1],
        )
        r = iv_att_bound(data, SensitivityConfig(delta=1.0, m=2))
        assert any("fewer than 2" in w for w in r.warnings)

    def test_matches_joint_bruteforce(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            data = _iv_dataset(rng, per_stratum=2)
            strata_y = {
                key: data.y[data.stratum_indices(*key)]
                for key in ((0, 0), (0, 1), (1, 0), (1, 1))
            }
            gamma = float(rng.uniform(1, 2))
            delta = float(rng.uniform(0.3, 1.0))
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

    def test_weights_cover_all_controls(self):
        rng = np.random.default_rng(39)
        data = _iv_dataset(rng, per_stratum=3)
        r = iv_att_bound(data, SensitivityConfig(gamma=2.0, delta=1.0, m=2))
        w = np.array([r.weights[int(i)] for i in data.control_indices])
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert r.estimate == pytest.approx(
            r.treated_mean - r.counterfactual_mean, abs=1e-10
        )

    def test_estimate_is_treated_less_counterfactual(self):
        rng = np.random.default_rng(40)
        optimal = 0
        for _ in range(10):
            data = _iv_dataset(rng, per_stratum=4)
            for direction in ("lower", "upper"):
                r = iv_att_bound(data, SensitivityConfig(gamma=2.0, delta=0.6, epsilon=0.5,
                                                         m=3, direction=direction))
                if r.status == "optimal":
                    optimal += 1
                    assert r.estimate == r.treated_mean - r.counterfactual_mean
        assert optimal >= 10

    @pytest.mark.parametrize("values,m", [([0.0, 1.0, 4.0], 3), ([-5.0, -2.5], 4),
                                          ([2.0, 2.0], 2)])
    def test_pair_rank_is_the_four_key_order(self, values, m):
        # a pair (j1, j2) ranks as rank[j1] * S + rank[j2]; among the best
        # pairs that picks the first in (|c1|, c1, |c2|, c2) order
        rng = np.random.default_rng(41)
        grid = shift_grid(values, m)
        c, n_sh = grid.shifts, grid.shifts.size
        c1, c2 = np.repeat(c, n_sh), np.tile(c, n_sh)
        pair_rank = (grid.rank[:, None] * n_sh + grid.rank).ravel()
        for _ in range(50):
            flat = rng.integers(0, 3, n_sh * n_sh).astype(float)  # ties everywhere
            ok = rng.random(n_sh * n_sh) < 0.6
            for maximize in (True, False):
                got = _select_shift(flat, ok, pair_rank, maximize)
                if not ok.any():
                    assert got is None
                    continue
                best = flat[ok].max() if maximize else flat[ok].min()
                cand = np.flatnonzero(ok & (flat == best))
                order = np.lexsort((c2[cand], np.abs(c2[cand]), c1[cand], np.abs(c1[cand])))
                assert got == cand[order[0]]


def _scaled_panel(rng):
    n0, n1 = int(rng.integers(20, 60)), int(rng.integers(15, 45))
    data = _panel(rng, n0, n1)
    if rng.random() < 0.5:  # tied outcomes
        data = Dataset(y=np.round(data.y * 2) / 2, t=data.t, y_b=np.round(data.y_b * 2) / 2)
    return data


class TestMeanWindowScale:
    """The DiD/CIC mean window at earnings scale: outcomes, baselines and
    the slack times 1e5 give the same status, and the active shift and the
    estimate times 1e5 up to 1e-9 (1 + max|y|)."""

    @pytest.mark.parametrize("bound", [did_att_bound, cic_att_bound], ids=["did", "cic"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01, math.inf])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_scaled_outcomes(self, bound, epsilon, direction):
        rng = np.random.default_rng(40)
        for _ in range(30):
            data = _scaled_panel(rng)
            big = Dataset(y=data.y * 1e5, t=data.t, y_b=data.y_b * 1e5)
            cfg = SensitivityConfig(gamma=float(rng.uniform(1, 3)),
                                    delta=float(rng.uniform(0.1, 0.6)),
                                    m=int(rng.integers(2, 12)), epsilon=epsilon,
                                    direction=direction)
            small = bound(data, cfg)
            large = bound(big, replace(cfg, epsilon=epsilon * 1e5))
            assert large.status == small.status
            if small.status != "optimal":
                continue
            tol = 1e-9 * (1 + max(np.abs(big.y).max(), np.abs(big.y_b).max()))
            assert abs(large.estimate - 1e5 * small.estimate) <= tol
            assert abs(large.active_shift - 1e5 * small.active_shift) <= tol


def _merged_ecdf(values, weights=None):
    return WeightedEcdf(*sort_merge_ecdf(values, weights))


def _merged_cic_target(f_b1, f_b0, f_00):
    return WeightedEcdf(*composed_target(f_b1, f_b0, f_00))


def _bits(r):
    shift = None if r.active_shift is None else np.float64(r.active_shift).tobytes()
    return (np.float64(r.estimate).tobytes(), np.float64(r.se).tobytes(),
            np.float64(r.counterfactual_mean).tobytes(), shift,
            r.weight_index.tobytes(), r.weight_values.tobytes(), r.status)


class TestSignedZeroSamples:
    """A zero atom is always +0.0.  On samples holding both 0.0 and -0.0,
    bounds built on the sort-and-merge ECDF (which keeps whichever zero its
    sort puts first) are the same bit for bit."""

    def test_bounds_unchanged(self, monkeypatch):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(12):
            n = 80
            y = rng.choice([-0.0, 0.0, 0.0, -0.0, 1.0, -1.5, 2.0], n)
            y_b = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0], n)
            t = np.r_[np.zeros(n // 2, int), np.ones(n - n // 2, int)]
            z = rng.integers(0, 2, n)
            z[[0, 1, n - 2, n - 1]] = [0, 1, 0, 1]
            cases.append(Dataset(y=y, t=t, y_b=y_b, z=z))
        calls = [(distributional_att_bound, {}), (did_att_bound, {"epsilon": 0.2}),
                 (cic_att_bound, {"epsilon": 0.2}), (cic_att_bound, {"epsilon": 0.0}),
                 (iv_att_bound, {"epsilon": 0.2})]

        def solve_all():
            return [_bits(fn(data, SensitivityConfig(gamma=2.0, delta=0.3, m=4,
                                                     direction=d, **knobs)))
                    for data in cases for fn, knobs in calls for d in ("lower", "upper")]

        now = solve_all()
        monkeypatch.setattr(drci.extensions, "ecdf", _merged_ecdf)
        monkeypatch.setattr(drci.extensions, "cic_target_cdf", _merged_cic_target)
        assert solve_all() == now
        assert any(status == "optimal" for *_, status in now)
