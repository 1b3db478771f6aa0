import math
import tracemalloc

import numpy as np
import pytest
from oracles import _loop_bands

import drci.dro_solvers as ds
import drci.synthetic as syn
from drci.distributions import Dataset, ecdf, shift_grid
from drci.dro_solvers import SensitivityConfig, distributional_att_bound
from drci.extensions import DidTargets, did_att_bound
from drci.synthetic import Scenario, generate_scenario, run_monte_carlo, true_att


class TestTrueAtt:
    @pytest.mark.parametrize(
        "scenario, expected",
        [
            (Scenario(2, 3, 0.5), 2.8),
            (Scenario(3, 2, 0.5), 2.2),
            (Scenario(2, 3, 0.8), 20 / 6.8),
        ],
    )
    def test_closed_form(self, scenario, expected):
        assert true_att(scenario) == pytest.approx(expected)

    def test_matches_monte_carlo_definition(self):
        # E[Y(1) - Y(0) | T = 1] simulated directly from the model
        s = Scenario(2, 3, 0.5)
        rng = np.random.default_rng(40)
        n = 1_000_000
        u = rng.binomial(1, s.p, n)
        t = rng.binomial(1, 0.6 * u + 0.2)
        nu = rng.normal(s.tau1, 1.0, n)
        eta = rng.normal(s.tau2, 1.0, n)
        effect = (1 - u) * nu + u * eta
        assert effect[t == 1].mean() == pytest.approx(true_att(s), abs=0.01)


class TestGenerateScenario:
    def test_degenerate_confounder_treatment_rate(self):
        data = generate_scenario(Scenario(2, 3, 0.0), 200_000, seed=41)
        assert data.t.mean() == pytest.approx(0.2, abs=0.01)

    def test_uniform_confounder_no_effect(self):
        # p = 1 and tau2 = 0 leave both arms centered at zero
        data = generate_scenario(Scenario(2, 0, 1.0), 1_000_000, seed=42)
        diff = data.treated_y.mean() - data.control_y.mean()
        assert diff == pytest.approx(0.0, abs=0.01)

    def test_seed_determinism(self):
        a = generate_scenario(Scenario(2, 3, 0.5), 500, seed=43)
        b = generate_scenario(Scenario(2, 3, 0.5), 500, seed=43)
        assert a.y.tolist() == b.y.tolist()
        assert a.t.tolist() == b.t.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_scenario(Scenario(2, 3, 0.5), 1, seed=0)
        with pytest.raises(ValueError, match="^n must be an integer >= 2$"):
            generate_scenario(Scenario(2, 3, 0.5), 2.5, 0)
        with pytest.raises(ValueError):
            Scenario(2, 3, 1.5)
        with pytest.raises(ValueError, match="^n must be an integer >= 2$"):
            generate_scenario(Scenario(2, 3, 0.5), True, 0)

    @pytest.mark.parametrize("tau1,tau2", [(math.nan, 3), (2, math.inf), (-math.inf, 3)])
    def test_nonfinite_effects_rejected(self, tau1, tau2):
        with pytest.raises(ValueError, match="^tau1 and tau2 must be finite$"):
            Scenario(tau1, tau2, 0.5)


class TestRunMonteCarlo:
    def test_deterministic_and_serializable(self):
        s = Scenario(2, 3, 0.5)
        t1 = run_monte_carlo(s, n=60, reps=20, models=("marginal",),
                             gammas=(2.0,), delta=0.1, seed=44, m=10)
        t2 = run_monte_carlo(s, n=60, reps=20, models=("marginal",),
                             gammas=(2.0,), delta=0.1, seed=44, m=10)
        assert t1 == t2
        text = t1.to_csv()
        assert text.splitlines()[0] == "model,gamma,n,delta,bias,sd,replications"
        assert len(text.splitlines()) == 2

    def test_conservative_lower_bounds(self):
        s = Scenario(2, 3, 0.5)
        table = run_monte_carlo(
            s, n=100, reps=30, models=("marginal", "distributional"),
            gammas=(2.0, 5.0), delta=0.1, seed=45, m=20,
        )
        for row in table.rows:
            assert row.bias < 0
        assert table.cell("marginal", 2.0).replications == 30

    def test_bias_grows_with_gamma(self):
        s = Scenario(2, 3, 0.5)
        table = run_monte_carlo(
            s, n=100, reps=40, models=("marginal", "distributional"),
            gammas=(2.0, 5.0), delta=0.1, seed=46, m=20,
        )
        for model in ("marginal", "distributional"):
            assert abs(table.cell(model, 5.0).bias) > abs(table.cell(model, 2.0).bias)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(Scenario(2, 3, 0.5), 50, 2, ("ipw",), (2.0,), 0.1, 0)

    @pytest.mark.parametrize("bad", [
        {"gammas": (0.5,)}, {"delta": 7.0}, {"gammas": (math.nan,)},
        {"gammas": (math.inf,)}, {"m": 0}, {"ks_mode": "luck"}, {"models": ()},
        {"gammas": ()}, {"gammas": (2.0, 2.0)}, {"models": ("marginal", "marginal")},
        {"reps": 2.5}, {"n": 100.5}, {"reps": True}, {"n": True}, {"seed": None},
        {"seed": -1}, {"seed": 1.5}, {"seed": (3, -4)}, {"seed": "7"}, {"seed": True},
    ], ids=["gamma_below_one", "delta_above_one", "gamma_nan", "gamma_inf", "m_zero",
            "ks_mode", "no_models", "no_gammas", "repeated_gamma", "repeated_model",
            "reps_not_integer", "n_not_integer", "reps_bool", "n_bool", "seed_none",
            "seed_negative", "seed_fractional", "seed_sequence_negative", "seed_text",
            "seed_bool"])
    def test_bad_knobs_rejected_for_a_marginal_table(self, bad):
        # the marginal cells never build a SensitivityConfig of their own
        args = {"s": Scenario(2, 3, 0.5), "n": 60, "reps": 5, "models": ("marginal",),
                "gammas": (2.0,), "delta": 0.1, "seed": 0, **bad}
        with pytest.raises(ValueError):
            run_monte_carlo(**args)

    @pytest.mark.parametrize("seed", [0, (3, 4), [5], np.array([6, 7])],
                             ids=["int", "tuple", "list", "array"])
    def test_seed_forms_accepted(self, seed):
        table = run_monte_carlo(Scenario(2, 3, 0.5), 20, 3, ("marginal",), (2.0,), 0.1, seed)
        assert table.cell("marginal", 2.0).replications == 3

    @pytest.mark.parametrize("ks_mode,delta", [("grid", 0.03), ("exact_atoms", 0.08)])
    def test_distributional_cells_are_the_bound_estimates(self, ks_mode, delta):
        # the value-only path against full solves, replication by
        # replication, at a delta small enough that some are infeasible
        s, n, reps, gammas, m = Scenario(2, 3, 0.5), 80, 12, (1.5, 3.0), 10
        per_gamma = {g: [] for g in gammas}
        for rep in range(reps):
            data = generate_scenario(s, n, (49, rep))
            got = ds._distributional_lower_block([(data.y, data.t)], gammas, delta, m,
                                                  ks_mode)[0]
            want = [distributional_att_bound(data, SensitivityConfig(
                gamma=g, delta=delta, m=m, ks_mode=ks_mode)).estimate for g in gammas]
            np.testing.assert_array_equal(got, want, strict=True)
            for g, value in zip(gammas, want):
                if not math.isnan(value):
                    per_gamma[g].append(value)
        table = run_monte_carlo(s, n, reps, ("distributional",), gammas, delta, 49,
                                m=m, ks_mode=ks_mode)
        for g, values in per_gamma.items():
            assert 0 < len(values) < reps
            row = table.cell("distributional", g)
            assert row.replications == len(values)
            assert row.bias == float(np.mean(values) - true_att(s))
            assert row.sd == float(np.std(values, ddof=1))

    @pytest.mark.parametrize("scenario", [Scenario(3, 2, 0.5), Scenario(2, 3, 0.8)])
    def test_distributional_less_conservative_at_high_gamma(self, scenario):
        table = run_monte_carlo(
            scenario, n=100, reps=200, models=("marginal", "distributional"),
            gammas=(5.0,), delta=0.1, seed=48, m=50,
        )
        dist = table.cell("distributional", 5.0).bias
        marg = table.cell("marginal", 5.0).bias
        assert dist < 0 and marg < 0
        assert abs(dist) < abs(marg)

    def test_table_one_smoke_r200(self):
        # CI-scale sanity check against the full-replication targets
        table = run_monte_carlo(
            Scenario(2, 3, 0.5), n=100, reps=200,
            models=("marginal", "distributional"),
            gammas=(2.0, 3.0, 5.0), delta=0.1, seed=20260811, m=50,
        )
        targets = {
            ("distributional", 2.0): -1.551,
            ("distributional", 3.0): -1.889,
            ("distributional", 5.0): -2.255,
            ("marginal", 2.0): -1.938,
            ("marginal", 3.0): -2.506,
            ("marginal", 5.0): -3.164,
        }
        for (model, g), target in targets.items():
            assert table.cell(model, g).bias == pytest.approx(target, abs=0.25)

    def test_one_arm_draws_are_dropped_from_every_cell(self):
        s, n, reps, gammas, delta = Scenario(2, 3, 0.5), 6, 300, (2.0, 3.0), 0.3
        two_arm = []
        for rep in range(reps):
            try:
                two_arm.append(generate_scenario(s, n, (0, rep)))
            except ValueError:  # an empty arm
                pass
        assert len(two_arm) == 295
        table = run_monte_carlo(s, n, reps, ("marginal", "distributional"), gammas,
                                delta, 0)
        want = _bound_estimates(two_arm, gammas, delta, 50, "grid")
        for g, column in zip(gammas, want.T):
            assert table.cell("marginal", g).replications == 295
            values = column[~np.isnan(column)]
            row = table.cell("distributional", g)
            assert 0 < row.replications == values.size <= 295
            assert row.bias == float(values.mean() - true_att(s))
            assert row.sd == float(values.std(ddof=1))

    def test_no_two_arm_draw_gives_empty_cells(self):
        # the only draw leaves an arm empty: no block is solved, and every
        # cell reports no replication
        s = Scenario(2, 3, 0.5)
        with pytest.raises(ValueError, match="arms must be nonempty"):
            generate_scenario(s, 2, (5, 0))
        table = run_monte_carlo(s, n=2, reps=1, models=("marginal", "distributional"),
                                gammas=(2.0,), delta=0.1, seed=5)
        rows = table.to_csv().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["marginal", "distributional"]
        assert all(row.endswith(",nan,nan,0") for row in rows)

    def test_block_memory_stays_small(self):
        kwargs = {"s": Scenario(2, 3, 0.5), "n": 100, "models": ("distributional", "marginal"),
                  "gammas": (2.0, 3.0, 5.0), "delta": 0.1, "seed": 0}
        run_monte_carlo(reps=2, **kwargs)  # lazy imports and caches
        tracemalloc.start()
        try:
            run_monte_carlo(reps=200, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of solve inputs at a time, not all 200 plans
        assert peak < 5 * 2**20


def _bound_estimates(datasets, gammas, delta, m, ks_mode):
    """(datasets, gammas) lower ``distributional_att_bound`` estimates."""
    return np.array([[distributional_att_bound(data, SensitivityConfig(
        gamma=g, delta=delta, m=m, ks_mode=ks_mode)).estimate for g in gammas]
        for data in datasets])


class TestLowerBlock:
    """The stacked value kernel against full solves, bit for bit."""

    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_a_block_and_a_partial_block(self, ks_mode):
        s, n, gammas, delta, m = Scenario(2, 3, 0.5), 60, (1.5, 3.0), 0.08, 10
        reps = syn._BLOCK + 7
        datasets = [generate_scenario(s, n, (50, rep)) for rep in range(reps)]
        want = _bound_estimates(datasets, gammas, delta, m, ks_mode)
        got = ds._distributional_lower_block([(d.y, d.t) for d in datasets], gammas, delta,
                                              m, ks_mode)
        np.testing.assert_array_equal(got, want, strict=True)
        table = run_monte_carlo(s, n, reps, ("distributional",), gammas, delta, 50,
                                m=m, ks_mode=ks_mode)
        for g, column in zip(gammas, want.T):
            values = column[~np.isnan(column)]
            row = table.cell("distributional", g)
            assert row.replications == values.size
            assert row.bias == float(values.mean() - true_att(s))
            assert row.sd == float(values.std(ddof=1))

    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_several_band_widths_in_one_block(self, ks_mode):
        s, gammas, delta, m = Scenario(3, 2, 0.5), (1.2, 2.0, 5.0, 1e8), 0.15, 12
        datasets = [generate_scenario(s, n, (51, n)) for n in (9, 16, 25, 40, 40, 70)]
        widths = {ds._att_plan(d, m, ks_mode).groups[0].bands.cols.shape[1] for d in datasets}
        assert len(widths) >= 3
        got = ds._distributional_lower_block([(d.y, d.t) for d in datasets], gammas, delta,
                                              m, ks_mode)
        want = _bound_estimates(datasets, gammas, delta, m, ks_mode)
        np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("ks_mode,delta", [("grid", 0.03), ("exact_atoms", 0.08)])
    def test_replications_with_no_feasible_shift(self, ks_mode, delta):
        s, gammas, m = Scenario(2, 3, 0.5), (1.5, 3.0), 10
        datasets = [generate_scenario(s, 80, (52, rep)) for rep in range(30)]
        got = ds._distributional_lower_block([(d.y, d.t) for d in datasets], gammas, delta,
                                              m, ks_mode)
        want = _bound_estimates(datasets, gammas, delta, m, ks_mode)
        np.testing.assert_array_equal(got, want, strict=True)
        none = np.isnan(want).all(axis=1)
        assert none.any() and not none.all()


def _block_samples():
    """Samples of ragged arm sizes, with tied outcomes (rounded draws), one
    whose outcomes are all equal (a degenerate shift grid) and one with a
    single treated unit."""
    s = Scenario(2, 3, 0.5)
    samples = [generate_scenario(s, n, (53, n)) for n in (7, 12, 30, 30, 45)]
    samples += [Dataset(np.round(d.y, 1), d.t)
                for d in (generate_scenario(s, n, (54, n)) for n in (25, 60))]
    # up to 12 tied units per atom: a count times 1/n1 can differ from their sum
    heavy = generate_scenario(s, 80, (56, 80))
    samples.append(Dataset(np.round(heavy.y), heavy.t))
    samples.append(Dataset(np.full(9, 1.5), np.arange(9) % 2))
    one = generate_scenario(s, 15, (55, 0))
    samples.append(Dataset(one.y, np.arange(15) == 4))
    return samples


class TestBlockPlan:
    """The block builder against per-row references built from
    :func:`numpy.unique`, ``shift_grid``, ``ecdf`` and the oracles'
    shift-by-shift band loop, field by field."""

    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_rows_are_the_sample_plans(self, ks_mode):
        samples, m = _block_samples(), 6
        # each sample's row, then rows as an IV arm has them: one sample's
        # controls against another's treated, on the grid over both samples
        rows = [(d.control_y, d.treated_y, d.y.min(), d.y.max()) for d in samples]
        rows += [(a.control_y, b.treated_y, min(a.y.min(), b.y.min()), max(a.y.max(), b.y.max()))
                 for a, b in zip(samples[:3], samples[3:6])]
        plan = ds._block_plan(rows, m, ks_mode)
        assert plan.n_shifts.tolist().count(1) == 1
        for i, (y0, y1, lo, hi) in enumerate(rows):
            atoms, inverse, counts = np.unique(y0, return_inverse=True, return_counts=True)
            grid = shift_grid([lo, hi], m)
            bands = _loop_bands(atoms, ecdf(y1), grid, ks_mode)
            k, n_shifts = atoms.size, grid.shifts.size
            np.testing.assert_array_equal(plan.atoms[i, :k], atoms, strict=True)
            np.testing.assert_array_equal(plan.counts[i, :k], counts, strict=True)
            assert not plan.counts[i, k:].any()
            assert plan.n0[i] == y0.size
            np.testing.assert_array_equal(plan.inverse[i, :y0.size], inverse, strict=True)
            assert plan.n_shifts[i] == n_shifts
            np.testing.assert_array_equal(plan.shifts[i, :n_shifts], grid.shifts,
                                          strict=True)
            np.testing.assert_array_equal(plan.rank[i, :n_shifts], grid.rank,
                                          strict=True)
            (group,) = [g for g in plan.groups if i in g.samples]
            member = np.flatnonzero(group.samples == i)[0]
            rows_i = np.flatnonzero(group.member == member)
            np.testing.assert_array_equal(group.shift[rows_i], np.arange(n_shifts))
            np.testing.assert_array_equal(group.bands.cols[member], bands.cols,
                                          strict=True)
            np.testing.assert_array_equal(group.bands.top[rows_i], bands.top, strict=True)
            np.testing.assert_array_equal(group.bands.bottom[rows_i], bands.bottom,
                                          strict=True)
            assert plan.treated_mean[i] == y1.mean()

    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_block_values_are_the_bound_estimates(self, ks_mode):
        samples, gammas, delta, m = _block_samples(), (1.2, 2.0, 1e8), 0.2, 6
        got = ds._distributional_lower_block([(d.y, d.t) for d in samples], gammas, delta,
                                              m, ks_mode)
        want = _bound_estimates(samples, gammas, delta, m, ks_mode)
        np.testing.assert_array_equal(got, want, strict=True)
        assert not np.isnan(want).all()


class TestBlockScan:
    """One ``_scan`` of a multi-row block against the bound of each sample
    alone: the estimate, the active shift and the weights, bit for bit."""

    @pytest.mark.parametrize("window", [False, True], ids=["att", "did"])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("ks_mode", ["grid", "exact_atoms"])
    def test_rows_are_the_sample_bounds(self, ks_mode, direction, window):
        gammas, delta, m, epsilon = (1.2, 2.0), 0.2, 6, 0.1
        rng = np.random.default_rng(57)
        # baselines without the effect, so that some windows are reached
        samples = [Dataset(d.y, d.t, y_b=np.round(d.y - 2.5 * d.t + rng.normal(0, 0.5, d.n), 1))
                   for d in _block_samples()]
        plan = ds._block_plan([(d.control_y, d.treated_y, d.y.min(), d.y.max())
                               for d in samples], m, ks_mode)
        windows = None
        if window:
            target = np.array([DidTargets.from_dataset(d).target_mean for d in samples])
            windows = (target - epsilon, target + epsilon)
        got = {}  # (sample, gamma) -> (estimate, shift, weights)
        for solve, j, sample, shift, ((picked, values),) in ds._scan(
                plan, plan.capped(gammas), delta, (direction,), windows):
            for r, value in zip(picked.tolist(), values.tolist()):
                i = sample[r]
                got[i, j] = (plan.treated_mean[i] - value, plan.shifts[i, shift[r]],
                             plan.unit_weights(i, solve.weights_for(r, value)).tobytes())
        bound = did_att_bound if window else distributional_att_bound
        optimal = 0
        for i, data in enumerate(samples):
            for j, gamma in enumerate(gammas):
                want = bound(data, SensitivityConfig(gamma=gamma, delta=delta, m=m,
                                                     epsilon=epsilon, direction=direction,
                                                     ks_mode=ks_mode))
                if want.status != "optimal":
                    assert (i, j) not in got
                    continue
                optimal += 1
                assert got[i, j] == (want.estimate, want.active_shift,
                                     want.weight_values.tobytes())
        assert 0 < optimal < len(samples) * len(gammas)
