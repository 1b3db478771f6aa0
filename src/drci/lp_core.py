"""Deterministic bounded-variable linear programming.

A dense two-phase primal simplex.  The entering column is priced by
Dantzig's rule (largest |reduced cost|), with Bland's lowest-index rule after
a run of degenerate pivots so that it cannot cycle; the leaving row is always
Bland's.  The LPs here have few rows (tens) and up to a few thousand boxed
columns, so a dense tableau with index-based tie-breaking buys determinism
and simplicity.  The basic values of the final basis are recomputed from the
original rows before the point is certified.

Internally every variable is shifted/flipped/split so that it lives in
``[0, U]`` with ``U`` possibly infinite, and inequality rows get slack
columns.  The start basis is a slack crash: each column starts at the bound
nearest to the hint ``LpProblem.x0`` (at 0 without one), and an inequality
row whose residual at that point is nonnegative starts with its own slack
basic.  Only the remaining rows, the equalities and the violated
inequalities, get an artificial variable (the row negated when its residual
is negative); phase 1 minimizes the sum of those artificials and phase 2 the
real objective.  The hint changes where the simplex starts, not which LP is
solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve_lp"]

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's entering rule


@dataclass
class LpProblem:
    """min/max ``c @ x`` s.t. ``a_ub @ x <= b_ub``, ``a_eq @ x = b_eq``,
    ``lower <= x <= upper`` (defaults: free variables, no rows).

    ``x0`` is an optional start hint, such as a point near the optimum: each
    variable starts at the bound nearest to it.  It need not be feasible and
    does not change the solution's status or objective."""

    c: np.ndarray
    sense: str = "min"
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")

        def _rows(a, b, label):
            if a is None or (hasattr(a, "__len__") and len(a) == 0):
                return np.zeros((0, n)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape[1] != n:
                raise ValueError(f"{label} rows must have length {n}")
            if a.shape[0] != b.size:
                raise ValueError(f"{label} matrix and rhs disagree in row count")
            return a, b

        self.a_ub, self.b_ub = _rows(self.a_ub, self.b_ub, "inequality")
        self.a_eq, self.b_eq = _rows(self.a_eq, self.b_eq, "equality")
        self.lower = (
            np.full(n, -np.inf)
            if self.lower is None
            else np.atleast_1d(np.asarray(self.lower, dtype=float))
        )
        self.upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.atleast_1d(np.asarray(self.upper, dtype=float))
        )
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bounds must match the number of variables")
        if np.any(np.isnan(self.lower) | np.isnan(self.upper)):
            raise ValueError("NaN bound")
        if np.any((self.lower == np.inf) | (self.upper == -np.inf)):
            raise ValueError("lower bound +inf or upper bound -inf")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        for arr in (self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite coefficient in problem data")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (n,):
                raise ValueError(f"x0 must have length {n}")
            if not np.all(np.isfinite(self.x0)):
                raise ValueError("x0 must be finite")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver outcome: ``status`` in optimal/infeasible/unbounded; ``x`` and
    ``objective_value`` are populated only when optimal.  ``phase1_pivots``
    and ``phase2_pivots`` count the simplex iterations (basis changes and
    bound flips) of each phase."""

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    phase1_pivots: int = 0
    phase2_pivots: int = 0


class _Tableau:
    """Simplex working state over the normalized [0, U] variables."""

    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray):
        self.a = a
        self.b = b
        self.upper = upper  # per-column upper bound, inf allowed
        self.m, self.n = a.shape
        self.basis = np.full(self.m, -1, dtype=int)
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.t = a.copy()
        self.xb = b.copy()
        self.pivots = 0  # iterations of the last run

    def nonbasic_value(self, j: int) -> float:
        return self.upper[j] if self.at_upper[j] else 0.0

    def solution(self) -> np.ndarray:
        x = np.where(self.at_upper, np.where(np.isfinite(self.upper), self.upper, 0.0), 0.0)
        x[self.basis] = self.xb
        return x

    def resolve_basics(self, a: np.ndarray, b: np.ndarray) -> None:
        """Recompute the basic values from the original rows ``a y = b`` for
        the current basis, so pivot roundoff in the tableau cannot reach the
        returned point."""
        x = self.solution()
        x[self.basis] = 0.0
        self.xb = np.linalg.solve(a[:, self.basis], b - a @ x)

    def degenerate_pivot(self, row: int, col: int) -> None:
        """Swap nonbasic ``col`` into the basis for the zero-valued basic
        variable of ``row``.  No value moves: ``col`` keeps its nonbasic
        value (possibly its upper bound) and every other row keeps its own."""
        piv = self.t[row, col]
        self.t[row] /= piv
        factors = self.t[:, col].copy()
        factors[row] = 0.0
        self.t -= np.outer(factors, self.t[row])
        self.xb[row] = self.nonbasic_value(col)
        self.at_upper[col] = False
        self.basis[row] = col

    def run(self, cost: np.ndarray, max_iter: int) -> str:
        """Minimize ``cost`` from the current basis; returns optimal/unbounded.

        The entering column is Dantzig's: the largest |reduced cost|, lowest
        index on ties.  After ``_BLAND_AFTER`` degenerate pivots in a row it is
        Bland's lowest eligible index until a pivot moves the point again, so
        the simplex cannot cycle.  The leaving row is always Bland's.  The
        number of iterations is left in ``pivots``."""
        is_basic = np.zeros(self.n, dtype=bool)
        is_basic[self.basis] = True
        ub_basic = self.upper[self.basis]
        degenerate = 0
        for it in range(max_iter):
            self.pivots = it
            d = cost - cost[self.basis] @ self.t
            # objective decrease per unit move of each nonbasic column
            # away from its current bound
            gain = np.where(self.at_upper, d, -d)
            gain[is_basic] = 0.0
            if degenerate < _BLAND_AFTER:
                j = int(np.argmax(gain))  # Dantzig; lowest index on ties
            else:
                j = int(np.argmax(gain > OPT_TOL))  # Bland: lowest index
            if not gain[j] > OPT_TOL:
                return "optimal"
            increasing = not self.at_upper[j]
            # rate of change of basic values per unit move of the entering var
            rate = -self.t[:, j] if increasing else self.t[:, j]
            limits = np.full(self.m, np.inf)
            np.divide(self.xb, -rate, out=limits, where=rate < -_PIVOT_TOL)
            np.divide(ub_basic - self.xb, rate, out=limits, where=rate > _PIVOT_TOL)
            own = self.upper[j]  # range between the variable's two bounds
            row_min = float(limits.min(initial=np.inf))
            t_star = min(row_min, own)
            if not np.isfinite(t_star):
                return "unbounded"
            degenerate = degenerate + 1 if t_star <= 0 else 0
            if own <= row_min:
                # bound flip: variable crosses to its opposite bound
                self.xb = self.xb + own * rate
                self.at_upper[j] = ~self.at_upper[j]
                continue
            blocking = np.flatnonzero(limits <= t_star + 1e-15)
            r = int(blocking[np.argmin(self.basis[blocking])])  # Bland on leaving
            leaving = self.basis[r]
            self.xb = self.xb + t_star * rate
            entering_value = t_star if increasing else self.upper[j] - t_star
            # leaving variable exits at whichever of its bounds blocked
            self.at_upper[leaving] = rate[r] > _PIVOT_TOL
            self.xb[r] = entering_value
            self.at_upper[j] = False
            row = self.t[r] / self.t[r, j]
            factors = self.t[:, j].copy()
            factors[r] = 0.0
            self.t -= np.outer(factors, row)
            self.t[r] = row
            self.basis[r] = j
            is_basic[leaving], is_basic[j] = False, True
            ub_basic[r] = own
        raise RuntimeError("simplex iteration limit exceeded")


def _normalize(problem: LpProblem):
    """Rewrite as min cost over y in [0, U] with equality rows A y = b, one
    slack column per inequality row (the last columns).  Also returns which
    columns start at their upper bound: those nearer to it than to 0 at the
    hint ``x0``."""
    n = problem.n_vars
    sign = 1.0 if problem.sense == "min" else -1.0
    c = sign * problem.c
    lower, upper, x0 = problem.lower, problem.upper, problem.x0
    a = np.vstack([problem.a_ub, problem.a_eq])
    b = np.concatenate([problem.b_ub, problem.b_eq])

    cols, costs, ubs, recover, start_upper = [], [], [], [], []
    const = 0.0
    for i in range(n):
        lo, hi = lower[i], upper[i]
        col = a[:, i]
        if np.isfinite(lo):
            # x = lo + y
            b = b - col * lo
            const += c[i] * lo
            cols.append(col)
            costs.append(c[i])
            ubs.append(hi - lo)
            recover.append(("shift", i, lo))
            start_upper.append(x0 is not None and x0[i] - lo > hi - x0[i])
        elif np.isfinite(hi):
            # x = hi - y
            b = b - col * hi
            const += c[i] * hi
            cols.append(-col)
            costs.append(-c[i])
            ubs.append(np.inf)
            recover.append(("flip", i, hi))
            start_upper.append(False)
        else:
            # free: x = y+ - y-
            cols.append(col)
            costs.append(c[i])
            ubs.append(np.inf)
            recover.append(("pos", i, 0.0))
            cols.append(-col)
            costs.append(-c[i])
            ubs.append(np.inf)
            recover.append(("neg", i, 0.0))
            start_upper += [False, False]

    n_ub = problem.a_ub.shape[0]
    for r in range(n_ub):
        slack = np.zeros(a.shape[0])
        slack[r] = 1.0
        cols.append(slack)
        costs.append(0.0)
        ubs.append(np.inf)
        recover.append(("slack", -1, 0.0))
        start_upper.append(False)

    mat = np.column_stack(cols) if cols else np.zeros((a.shape[0], 0))
    return (mat, b, np.array(costs), np.array(ubs), np.array(start_upper, dtype=bool),
            recover, const, sign)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP; deterministic for identical input."""
    mat, b, cost, ubs, at_upper, recover, const, sign = _normalize(problem)
    m, n_cols = mat.shape
    n_ub = problem.a_ub.shape[0]

    # bound-only problem: each variable independently at its cheaper bound
    if m == 0:
        x = np.zeros(n_cols)
        for j in range(n_cols):
            if cost[j] < 0:
                if not np.isfinite(ubs[j]):
                    return LpSolution(status="unbounded")
                x[j] = ubs[j]
        return _finish(problem, x, recover, const, sign)

    # slack crash: residual of each row with the columns at their start bounds
    resid = b - mat[:, at_upper] @ ubs[at_upper]
    slack_basic = np.zeros(m, dtype=bool)
    slack_basic[:n_ub] = resid[:n_ub] >= 0
    # every other row gets an artificial, the row negated to keep it >= 0
    neg = resid < 0
    mat[neg] *= -1.0
    b = np.where(neg, -b, b)
    art_rows = np.flatnonzero(~slack_basic)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0
    ub_full = np.concatenate([ubs, np.full(n_art, np.inf)])
    tab = _Tableau(np.hstack([mat, art]), np.abs(resid), ub_full)
    tab.at_upper[:n_cols] = at_upper
    tab.basis[slack_basic] = n_cols - n_ub + np.flatnonzero(slack_basic)
    tab.basis[art_rows] = n_cols + np.arange(n_art)
    phase1_cost = np.concatenate([np.zeros(n_cols), np.ones(n_art)])
    status = tab.run(phase1_cost, max_iter=20000 + 50 * (m + n_cols))
    phase1 = tab.pivots
    if status != "optimal" or float(phase1_cost[tab.basis] @ tab.xb) > 1e-8:
        return LpSolution(status="infeasible", phase1_pivots=phase1)

    # drive artificials out of the basis; drop redundant rows
    artificial = tab.basis >= n_cols
    keep_rows = np.ones(m, dtype=bool)
    for r in np.flatnonzero(artificial):
        pivots = np.flatnonzero(np.abs(tab.t[r, :n_cols]) > 1e-9)
        if pivots.size:
            tab.degenerate_pivot(r, int(pivots[0]))
        else:
            keep_rows[r] = False
    if not keep_rows.all():
        tab.t = tab.t[keep_rows]
        tab.xb = tab.xb[keep_rows]
        tab.basis = tab.basis[keep_rows]
        tab.m = int(keep_rows.sum())
    tab.t = tab.t[:, :n_cols]
    tab.n = n_cols
    tab.upper = ub_full[:n_cols]
    tab.at_upper = tab.at_upper[:n_cols]

    status = tab.run(cost, max_iter=20000 + 50 * (tab.m + n_cols))
    counts = {"phase1_pivots": phase1, "phase2_pivots": tab.pivots}
    if status == "unbounded":
        return LpSolution(status="unbounded", **counts)
    tab.resolve_basics(mat[keep_rows], b[keep_rows])
    return _finish(problem, tab.solution(), recover, const, sign, **counts)


def _finish(problem: LpProblem, y: np.ndarray, recover, const, sign,
            **counts) -> LpSolution:
    x = np.zeros(problem.n_vars)
    for val, (kind, i, offset) in zip(y, recover):
        if kind == "shift":
            x[i] = offset + val
        elif kind == "flip":
            x[i] = offset - val
        elif kind == "pos":
            x[i] += val
        elif kind == "neg":
            x[i] -= val
    # tidy roundoff against the declared bounds, then certify feasibility
    x = np.clip(x, problem.lower, problem.upper)
    if problem.a_ub.shape[0]:
        resid = problem.a_ub @ x - problem.b_ub
        if resid.max(initial=-np.inf) > 1e-8:
            raise RuntimeError("simplex returned an infeasible point (inequality)")
    if problem.a_eq.shape[0]:
        resid = np.abs(problem.a_eq @ x - problem.b_eq)
        if resid.max(initial=0.0) > 1e-8:
            raise RuntimeError("simplex returned an infeasible point (equality)")
    return LpSolution(status="optimal", x=x, objective_value=float(problem.c @ x),
                      **counts)
