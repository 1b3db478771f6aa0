import math

import numpy as np
import pytest

import drci.dro_solvers as ds
from drci.dro_solvers import SensitivityConfig, distributional_att_bound
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
        with pytest.raises(ValueError):
            Scenario(2, 3, 1.5)


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
    ], ids=["gamma_below_one", "delta_above_one", "gamma_nan", "gamma_inf", "m_zero",
            "ks_mode", "no_models", "no_gammas", "repeated_gamma", "repeated_model"])
    def test_bad_knobs_rejected_for_a_marginal_table(self, bad):
        # the marginal cells never build a SensitivityConfig of their own
        args = {"s": Scenario(2, 3, 0.5), "n": 60, "reps": 5, "models": ("marginal",),
                "gammas": (2.0,), "delta": 0.1, "seed": 0, **bad}
        with pytest.raises(ValueError):
            run_monte_carlo(**args)

    @pytest.mark.parametrize("ks_mode,delta", [("grid", 0.03), ("exact_atoms", 0.08)])
    def test_distributional_cells_are_the_bound_estimates(self, ks_mode, delta):
        # the value-only path against full solves, replication by
        # replication, at a delta small enough that some are infeasible
        s, n, reps, gammas, m = Scenario(2, 3, 0.5), 80, 12, (1.5, 3.0), 10
        per_gamma = {g: [] for g in gammas}
        for rep in range(reps):
            data = generate_scenario(s, n, (49, rep))
            got = ds._distributional_lower_estimates(data, gammas, delta, m, ks_mode)
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
