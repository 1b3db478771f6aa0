"""Deterministic bounded-variable linear programming.

A two-phase revised primal simplex for bounded variables (Dantzig &
Orchard-Hays 1954; Maros 2003, ch. 7-9).  It keeps an explicit inverse of the
basis columns: one eta update per basis change, and a rebuild from the
columns every ``_REFACTOR_EVERY`` changes.  Each iteration prices every
column with ``d = c - (c_B B^-1) A`` and takes the ratio test on the entering
column ``B^-1 a_j``, so a pivot updates an R x R inverse, not an R x N
tableau.  The entering column is Dantzig's (largest |reduced cost|), with
Bland's lowest-index rule after a run of degenerate pivots so that it cannot
cycle; the leaving row is always Bland's.  Ties go to the lowest index, so a
solve is deterministic.  The LPs here have few rows (tens) and up to a few
thousand boxed columns, so dense arrays serve.  The basic values of the final
basis are recomputed from the original rows before the point is certified,
and the row duals come from one solve with the final basis.

Internally every variable is shifted/flipped/split so that it lives in
``[0, U]`` with ``U`` possibly infinite, and inequality rows get slack
columns.  The start basis is a slack crash: each column starts at the bound
nearest to the hint ``LpProblem.x0`` (at 0 without one), and an inequality
row whose residual at that point is nonnegative starts with its own slack
basic.  Only the remaining rows, the equalities and the violated
inequalities, get an artificial variable (the row negated when its residual
is negative), so the start basis is the identity.  Phase 1 minimizes the sum
of those artificials and phase 2 the real objective.  The hint changes where
the simplex starts, not which LP is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve_lp"]

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's entering rule
_REFACTOR_EVERY = 50  # eta updates before the basis inverse is rebuilt


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
    bound flips) of each phase.

    ``duals`` (also only when optimal) holds one multiplier per ``a_ub`` row,
    then one per ``a_eq`` row: the rate at which the optimal objective moves
    per unit increase of the row's right-hand side.  So an inequality row's
    dual is <= 0 for ``min`` and >= 0 for ``max``, ``c - duals @ A`` are the
    reduced costs, and a row dropped as redundant gets 0."""

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    duals: np.ndarray | None = None


class _Simplex:
    """Revised simplex working state over the normalized [0, U] variables:
    the rows ``a``, the basis with its explicit inverse ``binv`` and basic
    values ``xb``, and which nonbasic columns sit at their upper bound."""

    def __init__(self, a: np.ndarray, xb: np.ndarray, upper: np.ndarray,
                 basis: np.ndarray, at_upper: np.ndarray):
        """The columns ``a[:, basis]`` must form the identity (a slack or
        artificial crash), which is then the basis inverse."""
        self.a = a
        self.xb = xb
        self.upper = upper  # per-column upper bound, inf allowed
        self.basis = basis
        self.at_upper = at_upper
        self.pivots = 0  # iterations of the last run
        self.binv = np.eye(basis.size)
        self._etas = 0

    def refactor(self) -> None:
        """Rebuild the basis inverse from the basis columns."""
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self._etas = 0

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Column ``j`` replaces the basic variable of row ``r``, where
        ``alpha`` is ``B^-1 a_j``: one eta update of the inverse.  The caller
        moves the values."""
        binv = self.binv
        row = binv[r] / alpha[r]
        binv -= alpha[:, None] * row
        binv[r] = row
        self.basis[r] = j
        self._etas += 1
        if self._etas >= _REFACTOR_EVERY:
            self.refactor()

    def solution(self) -> np.ndarray:
        x = np.where(self.at_upper, np.where(np.isfinite(self.upper), self.upper, 0.0), 0.0)
        x[self.basis] = self.xb
        return x

    def resolve_basics(self, b: np.ndarray) -> None:
        """Recompute the basic values from the original rows ``a y = b`` for
        the current basis, so roundoff in the inverse cannot reach the
        returned point."""
        x = self.solution()
        x[self.basis] = 0.0
        self.xb = np.linalg.solve(self.a[:, self.basis], b - self.a @ x)

    def run(self, cost: np.ndarray, max_iter: int) -> str:
        """Minimize ``cost`` from the current basis; returns optimal/unbounded.

        The entering column is Dantzig's: the largest |reduced cost|, lowest
        index on ties.  After ``_BLAND_AFTER`` degenerate pivots in a row it is
        Bland's lowest eligible index until a pivot moves the point again, so
        the simplex cannot cycle.  The leaving row is always Bland's.  The
        number of iterations is left in ``pivots``."""
        a, upper, xb, basis, at_upper = self.a, self.upper, self.xb, self.basis, self.at_upper
        # objective decrease per unit move of each nonbasic column away from
        # its bound is sign * d: +1 at the upper bound, -1 at 0, 0 if basic
        sign = np.where(at_upper, 1.0, -1.0)
        sign[basis] = 0.0
        cost_basic = cost[basis]
        ub_basic = upper[basis]
        no_limit = np.full(xb.size, np.inf)
        gain = np.empty(cost.size)
        degenerate = 0
        for it in range(max_iter):
            self.pivots = it
            np.matmul(cost_basic @ self.binv, a, out=gain)
            np.subtract(cost, gain, out=gain)
            gain *= sign
            if degenerate < _BLAND_AFTER:
                j = int(gain.argmax())  # Dantzig; lowest index on ties
            else:
                j = int((gain > OPT_TOL).argmax())  # Bland: lowest index
            if not gain[j] > OPT_TOL:
                return "optimal"
            increasing = sign[j] < 0
            # rate of change of basic values per unit move of the entering var
            alpha = self.binv @ a[:, j]
            rate = sign[j] * alpha
            limits = no_limit.copy()
            np.divide(xb, -rate, out=limits, where=rate < -_PIVOT_TOL)
            np.divide(ub_basic - xb, rate, out=limits, where=rate > _PIVOT_TOL)
            own = float(upper[j])  # range between the variable's two bounds
            row_min = float(limits.min())
            t_star = min(row_min, own)
            if t_star == np.inf:
                return "unbounded"
            degenerate = degenerate + 1 if t_star <= 0 else 0
            xb += t_star * rate
            if own <= row_min:
                # bound flip: variable crosses to its opposite bound
                at_upper[j] = increasing
                sign[j] = -sign[j]
                continue
            blocking = (limits <= t_star + 1e-15).nonzero()[0]
            r = int(blocking[basis[blocking].argmin()])  # Bland on leaving
            leaving = basis[r]
            # leaving variable exits at whichever of its bounds blocked
            at_upper[leaving] = rate[r] > _PIVOT_TOL
            sign[leaving] = 1.0 if at_upper[leaving] else -1.0
            xb[r] = t_star if increasing else own - t_star
            at_upper[j] = False
            sign[j] = 0.0
            self.pivot(r, j, alpha)
            cost_basic[r] = cost[j]
            ub_basic[r] = own
        raise RuntimeError("simplex iteration limit exceeded")


def _normalize(problem: LpProblem):
    """Rewrite as ``min cost @ y`` over ``y`` in [0, U] with rows ``a y = b``:
    ``x = lower + y`` when the lower bound is finite, ``x = upper - y`` when
    only the upper one is, and ``x = y+ - y-`` (two adjacent columns) when
    the variable is free; one slack column per inequality row comes last.
    Returns ``a, b, cost, U``, which columns start at their upper bound
    (those nearer to it than to 0 at the hint ``x0``), and ``recover``:
    structural column k adds ``sign[k] * y_k`` to original variable
    ``var[k]``, which starts from ``offset[var[k]]``."""
    n = problem.n_vars
    n_ub = problem.a_ub.shape[0]
    lower, upper, x0 = problem.lower, problem.upper, problem.x0
    shift = np.isfinite(lower)
    flip = ~shift & np.isfinite(upper)
    free = ~shift & ~flip
    offset = np.where(shift, lower, np.where(flip, upper, 0.0))
    width = 1 + free
    var = np.repeat(np.arange(n), width)
    negated = flip[var]
    negated[np.cumsum(width)[free] - 1] = True  # the y- column of each free pair
    sign = np.where(negated, -1.0, 1.0)

    a = np.vstack([problem.a_ub, problem.a_eq])
    n_struct = var.size
    mat = np.hstack([a[:, var] * sign, np.eye(a.shape[0], n_ub)])
    b = np.concatenate([problem.b_ub, problem.b_eq]) - a @ offset
    cost = np.zeros(n_struct + n_ub)
    cost[:n_struct] = (1.0 if problem.sense == "min" else -1.0) * problem.c[var] * sign
    ubs = np.full(n_struct + n_ub, np.inf)
    ubs[:n_struct] = np.where(shift, upper - offset, np.inf)[var]
    start_upper = np.zeros(n_struct + n_ub, dtype=bool)
    if x0 is not None:
        start_upper[:n_struct] = (shift & (x0 - lower > upper - x0))[var]
    return mat, b, cost, ubs, start_upper, (var, sign, offset)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP; deterministic for identical input."""
    mat, b, cost, ubs, at_upper, recover = _normalize(problem)
    m, n_cols = mat.shape
    n_ub = problem.a_ub.shape[0]

    # bound-only problem: each variable independently at its cheaper bound
    if m == 0:
        down = cost < 0
        if np.any(down & ~np.isfinite(ubs)):
            return LpSolution(status="unbounded")
        return _finish(problem, recover, np.where(down, ubs, 0.0), np.zeros(0))

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
    basis = np.empty(m, dtype=int)
    basis[slack_basic] = n_cols - n_ub + np.flatnonzero(slack_basic)
    basis[art_rows] = n_cols + np.arange(n_art)
    sx = _Simplex(np.hstack([mat, art]), np.abs(resid),
                  np.concatenate([ubs, np.full(n_art, np.inf)]), basis,
                  np.concatenate([at_upper, np.zeros(n_art, dtype=bool)]))
    phase1_cost = np.concatenate([np.zeros(n_cols), np.ones(n_art)])
    status = sx.run(phase1_cost, max_iter=20000 + 50 * (m + n_cols))
    phase1 = sx.pivots
    if status != "optimal" or float(phase1_cost[sx.basis] @ sx.xb) > 1e-8:
        return LpSolution(status="infeasible", phase1_pivots=phase1)

    # drive the artificials out of the basis: each swaps with the first
    # structural column it can pivot on, which keeps its nonbasic value, so
    # no value moves.  An artificial with none marks its own row redundant.
    redundant = []
    for r in np.flatnonzero(sx.basis >= n_cols):
        cand = np.flatnonzero(np.abs(sx.binv[r] @ mat) > 1e-9)
        if not cand.size:
            redundant.append(r)
            continue
        j = int(cand[0])
        sx.xb[r] = ubs[j] if sx.at_upper[j] else 0.0
        sx.at_upper[j] = False
        sx.pivot(r, j, sx.binv @ sx.a[:, j])
    keep_rows = np.ones(m, dtype=bool)
    sx.a, sx.upper, sx.at_upper = mat, ubs, sx.at_upper[:n_cols]
    if redundant:
        keep_rows[art_rows[sx.basis[redundant] - n_cols]] = False
        keep = np.ones(m, dtype=bool)
        keep[redundant] = False
        sx.a, sx.basis, sx.xb = mat[keep_rows], sx.basis[keep], sx.xb[keep]
        sx.refactor()

    status = sx.run(cost, max_iter=20000 + 50 * (keep_rows.sum() + n_cols))
    counts = {"phase1_pivots": phase1, "phase2_pivots": sx.pivots}
    if status == "unbounded":
        return LpSolution(status="unbounded", **counts)
    sx.resolve_basics(b[keep_rows])
    # row duals of the normalized LP, B^T y = c_B, mapped back through the
    # negated rows and the sense
    y = np.zeros(m)
    y[keep_rows] = np.linalg.solve(sx.a[:, sx.basis].T, cost[sx.basis])
    duals = np.where(neg, -y, y) * (1.0 if problem.sense == "min" else -1.0)
    return _finish(problem, recover, sx.solution(), duals, **counts)


def _finish(problem: LpProblem, recover, y: np.ndarray, duals: np.ndarray,
            **counts) -> LpSolution:
    """Map the normalized solution back, then certify feasibility."""
    var, sign, offset = recover
    x = offset + np.bincount(var, weights=sign * y[:var.size], minlength=problem.n_vars)
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
                      duals=duals, **counts)
