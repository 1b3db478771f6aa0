from dataclasses import replace

import numpy as np
import pytest

import drci.dro_solvers
import drci.lp_core
from drci.distributions import Dataset
from drci.dro_solvers import SensitivityConfig, distributional_att_bound
from drci.lp_core import LpProblem, LpSolution, _Simplex, solve_lp

from oracles import highs_solve, vertex_solve


class TestExamples:
    def test_bound_only(self):
        sol = solve_lp(LpProblem(c=[1.0], lower=[2.0], upper=[5.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.objective_value == pytest.approx(2.0)

    def test_box_simplex(self):
        sol = solve_lp(
            LpProblem(
                c=[0.0, 1.0, 2.0],
                sense="max",
                a_eq=[[1, 1, 1]],
                b_eq=[1.0],
                lower=[1 / 6] * 3,
                upper=[2 / 3] * 3,
            )
        )
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.5)
        assert sol.x == pytest.approx([1 / 6, 1 / 6, 2 / 3])

    def test_contradictory_constraints(self):
        sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_lp(LpProblem(c=[-1.0], lower=[0.0]))
        assert sol.status == "unbounded"

    def test_free_variable_between_rows(self):
        sol = solve_lp(LpProblem(c=[1.0], a_ub=[[-1.0]], b_ub=[3.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-3.0)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])

    def test_nan_coefficient(self):
        with pytest.raises(ValueError):
            LpProblem(c=[np.nan])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], lower=[2.0], upper=[1.0])

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0], sense="maximize")

    @pytest.mark.parametrize("kwargs,match", [
        # a NaN lower bound used to read as -inf: "unbounded"
        pytest.param(dict(lower=[np.nan], upper=[5.0]), "NaN bound", id="nan-lower"),
        pytest.param(dict(lower=[0.0], upper=[np.nan]), "NaN bound", id="nan-upper"),
        # lower = upper = +inf used to be solved as a free variable
        pytest.param(dict(lower=[np.inf], upper=[np.inf]), r"\+inf", id="lower-plus-inf"),
        pytest.param(dict(lower=[-np.inf], upper=[-np.inf]), "-inf", id="upper-minus-inf"),
        # an infinite rhs used to give "infeasible" and a RuntimeWarning
        pytest.param(dict(a_ub=[[1.0]], b_ub=[np.inf], lower=[0.0], upper=[1.0]),
                     "non-finite", id="inf-b_ub"),
        pytest.param(dict(a_eq=[[1.0]], b_eq=[-np.inf]), "non-finite", id="inf-b_eq"),
        pytest.param(dict(a_ub=[[np.inf]], b_ub=[1.0]), "non-finite", id="inf-a_ub"),
        pytest.param(dict(c=[np.inf]), "non-finite", id="inf-c"),
        pytest.param(dict(x0=[1.0, 2.0]), "x0 must have length 1", id="x0-length"),
        pytest.param(dict(x0=[[1.0]]), "x0 must have length 1", id="x0-2d"),
        pytest.param(dict(x0=[np.nan]), "x0 must be finite", id="x0-nan"),
        pytest.param(dict(x0=[np.inf]), "x0 must be finite", id="x0-inf"),
    ])
    def test_rejects_non_finite_or_malformed_input(self, kwargs, match):
        kwargs = {"c": [1.0], **kwargs}
        with pytest.raises(ValueError, match=match):
            LpProblem(**kwargs)


def _random_problem(rng):
    n = int(rng.integers(1, 6))
    n_ub = int(rng.integers(0, 4))
    n_eq = int(rng.integers(0, min(2, n) + 1))
    c = rng.normal(size=n).round(2)
    a_ub = rng.normal(size=(n_ub, n)).round(2) if n_ub else None
    b_ub = rng.normal(size=n_ub).round(2) if n_ub else None
    lower = rng.uniform(-2, 0, n).round(2)
    upper = lower + rng.uniform(0.5, 3, n).round(2)
    a_eq = b_eq = None
    if n_eq:
        a_eq = rng.normal(size=(n_eq, n)).round(2)
        # anchor the rhs near a feasible interior point so equalities are
        # not trivially contradictory
        mid = (lower + upper) / 2
        b_eq = (a_eq @ mid + rng.normal(0, 0.2, n_eq)).round(2)
    return LpProblem(c=c, sense="min", a_ub=a_ub, b_ub=b_ub,
                     a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


class TestAgainstVertexOracle:
    def test_random_boxed_problems(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(400):
            prob = _random_problem(rng)
            sol = solve_lp(prob)
            status, val, _ = vertex_solve(
                prob.c, prob.a_ub, prob.b_ub, prob.a_eq, prob.b_eq,
                prob.lower, prob.upper, sense="min",
            )
            assert sol.status == status, f"{sol.status} vs oracle {status}"
            if status == "optimal":
                assert sol.objective_value == pytest.approx(val, abs=1e-8)
                checked += 1
        assert checked > 100  # the generator must produce plenty of feasible LPs

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_duals_certify_optimality(self, sense):
        # the problems of test_random_boxed_problems; a max problem is the
        # min problem with c negated, and ``flip`` maps it back to min
        rng = np.random.default_rng(11)
        flip = 1.0 if sense == "min" else -1.0
        checked = 0
        for _ in range(400):
            base = _random_problem(rng)
            prob = replace(base, sense=sense, c=flip * base.c)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                assert sol.duals is None
                continue
            a = np.vstack([prob.a_ub, prob.a_eq])
            b = np.concatenate([prob.b_ub, prob.b_eq])
            y = flip * sol.duals
            c = flip * prob.c
            assert y.shape == b.shape
            # dual feasibility: a <= row's multiplier is <= 0; a column above
            # its lower bound has reduced cost <= 0, one below its upper >= 0
            assert np.all(y[:prob.a_ub.shape[0]] <= 1e-9)
            d = c - y @ a
            assert np.all(d[sol.x > prob.lower + 1e-9] <= 1e-9)
            assert np.all(d[sol.x < prob.upper - 1e-9] >= -1e-9)
            primal = flip * sol.objective_value
            dual = b @ y + np.where(d > 0, prob.lower, prob.upper) @ d
            assert abs(primal - dual) <= 1e-9 * (1.0 + abs(primal))
            checked += 1
        assert checked > 100

    def test_redundant_row_gets_zero_dual(self):
        # the second equality is twice the first, so its artificial finds no
        # column to leave onto: the row is dropped after phase 1 and its
        # multiplier is 0.  x0 = 1 is basic, so the first row prices it at 1.
        prob = LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0],
                         lower=[0.0, 0.0], upper=[2.0, 2.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x.tolist() == [1.0, 0.0]
        assert sol.duals.tolist() == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_residuals_certified(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            prob = _random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                continue
            if prob.a_ub.shape[0]:
                assert np.max(prob.a_ub @ sol.x - prob.b_ub) <= 1e-8
            if prob.a_eq.shape[0]:
                assert np.max(np.abs(prob.a_eq @ sol.x - prob.b_eq)) <= 1e-8
            assert np.all(sol.x >= prob.lower - 1e-9)
            assert np.all(sol.x <= prob.upper + 1e-9)


class TestBoundKinds:
    def test_free_and_one_sided_variables_match_highs(self):
        # each variable boxed, bounded below only, above only, or free: the
        # shifted, flipped and split columns of the normalization
        rng = np.random.default_rng(18)
        statuses = []
        for _ in range(150):
            prob = _random_problem(rng)
            kind = rng.integers(0, 4, prob.n_vars)
            lower = np.where((kind == 0) | (kind == 1), prob.lower, -np.inf)
            upper = np.where((kind == 0) | (kind == 2), prob.upper, np.inf)
            mixed = replace(prob, lower=lower, upper=upper)
            sol = _assert_matches_highs(mixed)
            if sol.status == "optimal":
                assert np.all((lower - 1e-9 <= sol.x) & (sol.x <= upper + 1e-9))
            statuses.append(sol.status)
        assert statuses.count("optimal") > 10 and statuses.count("unbounded") > 10


def _hints(prob, rng):
    """Start hints for a boxed problem: inside the box, at a corner, and
    outside it on both sides."""
    lo, hi = prob.lower, prob.upper
    n = prob.n_vars
    return [
        lo + rng.uniform(size=n) * (hi - lo),
        np.where(rng.uniform(size=n) < 0.5, lo, hi),
        np.where(rng.uniform(size=n) < 0.5, lo - 1.0, hi + 1.0) + rng.normal(size=n),
    ]


class TestWarmStart:
    def test_hints_keep_status_and_objective(self):
        # the problems of TestAgainstVertexOracle.test_random_boxed_problems
        rng = np.random.default_rng(11)
        problems = [_random_problem(rng) for _ in range(400)]
        hint_rng = np.random.default_rng(16)
        checked = 0
        for prob in problems:
            cold = solve_lp(prob)
            for x0 in _hints(prob, hint_rng):
                warm = solve_lp(replace(prob, x0=x0))
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective_value == pytest.approx(cold.objective_value,
                                                                 abs=1e-8)
                    checked += 1
        assert checked > 300

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_hint_shortens_phase_one_on_balance_lps(self, monkeypatch, direction):
        # lp_routes seed 0, sample 3: every screened per-shift LP
        problems = []

        def record(problem):
            problems.append(problem)
            return LpSolution(status="infeasible")  # no incumbent: nothing is pruned

        monkeypatch.setattr(drci.dro_solvers, "solve_lp", record)
        distributional_att_bound(_balance_sample(0, 3), SensitivityConfig(
            gamma=2.0, delta=0.1, m=20, balance_lambda=0.5, direction=direction))
        assert problems
        for prob in problems:
            assert prob.x0 is not None
            warm = solve_lp(prob)
            cold = solve_lp(replace(prob, x0=None))
            assert warm.phase1_pivots < cold.phase1_pivots
            assert warm.status == cold.status == "optimal"
            obj = cold.objective_value
            assert abs(warm.objective_value - obj) <= 1e-9 * (1.0 + abs(obj))


class TestAntiCycling:
    # Beale (1955): min -3/4 x0 + 20 x1 - 1/2 x2 + 6 x3 over x >= 0 with two
    # rows through the origin and x2 <= 1; from the slack basis, pure
    # largest-reduced-cost pricing cycles through degenerate pivots forever
    C = np.array([-0.75, 20.0, -0.5, 6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    B = np.array([0.0, 0.0, 1.0])

    def _run_from_slack_basis(self):
        sx = _Simplex(np.hstack([self.A, np.eye(3)]), self.B.copy(), np.full(7, np.inf),
                      np.arange(4, 7), np.zeros(7, dtype=bool))
        cost = np.concatenate([self.C, np.zeros(3)])
        status = sx.run(cost, max_iter=500)
        return status, float(cost[sx.basis] @ sx.xb)

    def test_beale_terminates_at_oracle_optimum(self):
        prob = LpProblem(c=self.C, a_ub=self.A, b_ub=self.B, lower=np.zeros(4))
        _, val, _ = vertex_solve(prob.c, prob.a_ub, prob.b_ub, lower=prob.lower)
        assert val == pytest.approx(-1.25, abs=1e-12)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(val, abs=1e-9)
        status, value = self._run_from_slack_basis()
        assert status == "optimal"
        assert value == pytest.approx(val, abs=1e-9)

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        # the fallback is what ends the degenerate run above
        monkeypatch.setattr(drci.lp_core, "_BLAND_AFTER", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            self._run_from_slack_basis()

    def test_pure_bland_gives_the_same_objectives(self, monkeypatch):
        # the problems of TestAgainstVertexOracle.test_random_boxed_problems
        rng = np.random.default_rng(11)
        problems = [_random_problem(rng) for _ in range(400)]
        fast = [solve_lp(p) for p in problems]
        monkeypatch.setattr(drci.lp_core, "_BLAND_AFTER", 0)
        checked = 0
        for prob, sol in zip(problems, fast):
            bland = solve_lp(prob)
            assert bland.status == sol.status
            if sol.status == "optimal":
                assert bland.objective_value == pytest.approx(sol.objective_value, abs=1e-8)
                checked += 1
        assert checked > 100


class TestDeterminism:
    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            prob = _random_problem(rng)
            if prob.a_ub is None or prob.a_ub.shape[0] < 2:
                continue
            sol = solve_lp(prob)
            perm = rng.permutation(prob.a_ub.shape[0])
            shuffled = LpProblem(
                c=prob.c, sense=prob.sense,
                a_ub=prob.a_ub[perm], b_ub=prob.b_ub[perm],
                a_eq=prob.a_eq, b_eq=prob.b_eq,
                lower=prob.lower, upper=prob.upper,
            )
            sol2 = solve_lp(shuffled)
            assert sol.status == sol2.status
            if sol.status == "optimal":
                assert sol.objective_value == pytest.approx(
                    sol2.objective_value, abs=1e-9
                )

    def test_repeat_solve_bitwise_identical(self):
        rng = np.random.default_rng(14)
        prob = _random_problem(rng)
        a = solve_lp(prob)
        b = solve_lp(prob)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.x.tolist() == b.x.tolist()

    def test_repeat_hinted_solve_bitwise_identical(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(20):
            prob = _random_problem(rng)
            for x0 in _hints(prob, rng):
                hinted = replace(prob, x0=x0)
                a, b = solve_lp(hinted), solve_lp(hinted)
                assert (a.status, a.phase1_pivots, a.phase2_pivots) == (
                    b.status, b.phase1_pivots, b.phase2_pivots)
                if a.status == "optimal":
                    assert a.x.tolist() == b.x.tolist()
                    assert a.objective_value == b.objective_value
                    solved += 1
        assert solved > 10

    def test_objective_scaling(self):
        rng = np.random.default_rng(15)
        scaled_checked = 0
        for _ in range(50):
            prob = _random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                continue
            lam = 3.7
            scaled = LpProblem(
                c=lam * prob.c, sense=prob.sense,
                a_ub=prob.a_ub, b_ub=prob.b_ub, a_eq=prob.a_eq, b_eq=prob.b_eq,
                lower=prob.lower, upper=prob.upper,
            )
            sol2 = solve_lp(scaled)
            assert sol2.objective_value == pytest.approx(
                lam * sol.objective_value, abs=1e-8
            )
            assert sol2.x == pytest.approx(sol.x, abs=1e-9)
            scaled_checked += 1
        assert scaled_checked > 10


def _assert_matches_highs(prob):
    sol = solve_lp(prob)
    status, val, _ = highs_solve(
        prob.c, prob.a_ub, prob.b_ub, prob.a_eq, prob.b_eq,
        prob.lower, prob.upper, sense=prob.sense,
    )
    assert sol.status == status
    if status == "optimal":
        scale = 1.0 + np.abs(prob.c).max()
        assert sol.objective_value == pytest.approx(val, abs=1e-9 * scale)
    return sol


def _balance_sample(seed, instance):
    """The covariate-balance sample (n = 200, three covariates) of the
    benchmark's lp_routes workload: ``perfbench/inputs.lp_samples``."""
    rng = np.random.default_rng([seed, 3, instance])
    for n, n1 in ((400, 150), (200, 80)):  # the TV sample is drawn first
        x = np.round(rng.normal(size=(n, 3)), 6)
        key = 0.5 * x[:, 0] + rng.gumbel(size=n)
        t = np.zeros(n, dtype=np.int64)
        t[np.argsort(-key, kind="stable")[:n1]] = 1
        y = np.round(x @ np.array([1.0, 0.5, -0.5]) + 0.5 * t
                     + rng.normal(size=n), 6)
    return Dataset(y=y, t=t, x=x)


class TestPhaseOneExit:
    """After phase 1 an artificial still basic at zero is pivoted out; the
    entering column must keep its nonbasic value, also at its upper bound."""

    def test_artificial_leaves_onto_at_upper_column(self):
        # phase 1 flips x0 to its upper bound 1, leaving the artificial of
        # the row basic at zero; x0 then enters at 1, not at 0
        prob = LpProblem(c=[1.0, -1.0], a_eq=[[1.0, 0.0]], b_eq=[1.0],
                         lower=[0.0, 0.0], upper=[1.0, 1.0])
        sol = _assert_matches_highs(prob)
        assert sol.x.tolist() == [1.0, 1.0]
        assert sol.objective_value == 0.0

    def test_at_upper_exit_with_other_rows(self):
        prob = LpProblem(c=[-1.0, -2.0, 1.0], sense="min",
                         a_ub=[[1.0, 1.0, 1.0]], b_ub=[3.0],
                         a_eq=[[2.0, 0.0, 0.0], [0.0, 1.0, -1.0]],
                         b_eq=[4.0, 1.0],
                         lower=[0.0, 0.0, 0.0], upper=[2.0, 2.0, 2.0])
        sol = _assert_matches_highs(prob)
        assert sol.x == pytest.approx([2.0, 1.0, 0.0], abs=1e-12)

    def test_benchmark_balance_lps(self, monkeypatch):
        # lp_routes seed 0, sample 3: the per-shift LP at shift 0 used to
        # end phase 1 on an at-upper exit, return an infeasible point and raise
        problems = []

        def record(problem):
            problems.append(problem)
            return LpSolution(status="infeasible")  # no incumbent: nothing is pruned

        monkeypatch.setattr(drci.dro_solvers, "solve_lp", record)
        distributional_att_bound(_balance_sample(0, 3), SensitivityConfig(
            gamma=2.0, delta=0.1, m=20, balance_lambda=0.5))
        assert problems
        for prob in problems:
            assert _assert_matches_highs(prob).status == "optimal"


class TestEarningsScale:
    """The balance route on the lp_routes samples with outcomes in dollars
    (y x 1e5, and the balance penalty x 1e5 so that the LP is the same up
    to scale): the status is the unscaled run's, and the shift and the
    estimate scale with y."""

    @pytest.mark.parametrize("form,scaled_form", [
        ({"balance_lambda": 0.5}, {"balance_lambda": 0.5e5}),
        ({"balance_epsilon": 0.2}, {"balance_epsilon": 0.2}),
    ], ids=["lambda", "epsilon"])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_scaled_outcomes_scale_the_bound(self, form, scaled_form, direction):
        k = 1e5
        for instance in range(12):
            data = _balance_sample(0, instance)
            big = Dataset(y=k * data.y, t=data.t, x=data.x)
            base = SensitivityConfig(gamma=2.0, delta=0.1, m=20, direction=direction)
            small = distributional_att_bound(data, replace(base, **form))
            large = distributional_att_bound(big, replace(base, **scaled_form))
            assert large.status == small.status
            if small.status != "optimal":
                continue
            tol = 1e-9 * (1.0 + np.abs(big.control_y).max())
            assert abs(large.active_shift - k * small.active_shift) <= tol
            assert abs(large.estimate - k * small.estimate) <= tol


def _empirical_sample(n0, n1=185, k=7, seed=1):
    """A synthetic sample of the shape of the paper's empirical study (a
    large survey control group, 185 treated, seven covariates): normal
    covariates that confound treatment and a linear outcome."""
    rng = np.random.default_rng(seed)
    n = n0 + n1
    x = np.round(rng.normal(size=(n, k)), 6)
    t = np.zeros(n, dtype=np.int64)
    t[np.argsort(-(0.5 * x[:, 0] + rng.gumbel(size=n)), kind="stable")[:n1]] = 1
    y = np.round(x @ np.linspace(1.0, -0.5, k) + 0.5 * t + rng.normal(size=n), 6)
    return Dataset(y=y, t=t, x=x)


class TestEmpiricalShape:
    def test_balance_lp_matches_highs(self, monkeypatch):
        # the first per-shift LP of the balance route at n0 = 1000, m = 50,
        # balance_lambda = 1000: 71 rows over 1007 boxed columns
        problems = []

        def record(problem):
            problems.append(problem)
            return LpSolution(status="infeasible")

        monkeypatch.setattr(drci.dro_solvers, "solve_lp", record)
        distributional_att_bound(_empirical_sample(1000), SensitivityConfig(
            gamma=2.0, delta=0.1, m=50, balance_lambda=1000.0))
        prob = problems[0]
        assert prob.n_vars == 1007
        sol = solve_lp(prob)
        status, val, _ = highs_solve(
            prob.c, prob.a_ub, prob.b_ub, prob.a_eq, prob.b_eq,
            prob.lower, prob.upper, sense=prob.sense,
        )
        assert sol.status == status == "optimal"
        assert np.max(prob.a_ub @ sol.x - prob.b_ub) <= 1e-8
        assert np.max(np.abs(prob.a_eq @ sol.x - prob.b_eq)) <= 1e-8
        assert np.all((prob.lower <= sol.x) & (sol.x <= prob.upper))
        assert abs(sol.objective_value - val) <= 1e-9 * (1.0 + abs(val))


def test_solution_dataclass_defaults():
    sol = LpSolution(status="infeasible")
    assert sol.x is None and sol.objective_value is None
