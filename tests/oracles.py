"""Independent brute-force solvers the test suite checks production against.

Nothing here shares code with the package solvers: LPs are solved by
enumerating candidate vertices (every choice of n active constraints) or by
scipy's HiGHS (:func:`highs_solve`), the marginal box-simplex by enumerating
its vertex patterns, and the distributional model by exhausting the
one-active-shift binary patterns with raw (unconsolidated) constraint rows,
and the shifted KS distance by evaluating both raw step CDFs point by point.
The KS bands of the plan builders have a reference that loops over the
shifts (:func:`_loop_bands`), fed the same CDF as the builders, so that the
two agree bit for bit.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

FEAS_TOL = 1e-9


def vertex_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 lower=None, upper=None, sense="min"):
    """Enumerate vertices of a small polytope and pick the best objective.

    Returns (status, value, x).  Complete for bounded feasible sets; only
    intended for a handful of variables.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows, rhs, kinds = [], [], []  # kind: 'eq' or 'ub'
    if a_eq is not None and len(a_eq):
        for row, b in zip(np.atleast_2d(a_eq), np.atleast_1d(b_eq)):
            rows.append(np.asarray(row, dtype=float))
            rhs.append(float(b))
            kinds.append("eq")
    if a_ub is not None and len(a_ub):
        for row, b in zip(np.atleast_2d(a_ub), np.atleast_1d(b_ub)):
            rows.append(np.asarray(row, dtype=float))
            rhs.append(float(b))
            kinds.append("ub")
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(upper[i]):
            rows.append(e.copy())
            rhs.append(float(upper[i]))
            kinds.append("ub")
        if np.isfinite(lower[i]):
            rows.append(-e)
            rhs.append(-float(lower[i]))
            kinds.append("ub")

    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    eq_idx = [i for i, k in enumerate(kinds) if k == "eq"]
    ub_idx = [i for i, k in enumerate(kinds) if k == "ub"]
    need = n - len(eq_idx)
    if need < 0:
        raise ValueError("more equalities than variables")

    best_val, best_x = None, None
    for combo in itertools.combinations(ub_idx, need):
        active = eq_idx + list(combo)
        a = rows[active]
        try:
            x = np.linalg.solve(a, rhs[active])
        except np.linalg.LinAlgError:
            continue
        if np.any(rows[ub_idx] @ x - rhs[ub_idx] > FEAS_TOL):
            continue
        if eq_idx and np.any(np.abs(rows[eq_idx] @ x - rhs[eq_idx]) > FEAS_TOL):
            continue
        val = float(c @ x)
        better = best_val is None or (
            val < best_val - 1e-15 if sense == "min" else val > best_val + 1e-15
        )
        if better:
            best_val, best_x = val, x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def highs_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                lower=None, upper=None, sense="min"):
    """The same LP by scipy's HiGHS.  Returns (status, value, x) like
    :func:`vertex_solve`; for problems too large to enumerate."""
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    n = c.size
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    res = linprog(
        -c if sense == "max" else c,
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                for lo, hi in zip(lower, upper)],
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return "optimal", float(c @ res.x), res.x


def box_simplex_extreme(y, lo, hi, maximize=True):
    """Extreme of ``w @ y`` over ``{sum w = 1, lo <= w_i <= hi}`` by vertex
    patterns: all-but-one coordinate at a bound, one fractional."""
    y = np.asarray(y, dtype=float)
    n = y.size
    best = None
    grids = np.array(list(itertools.product((lo, hi), repeat=n - 1)))
    for f in range(n):
        rest = np.delete(np.arange(n), f)
        w_f = 1.0 - grids.sum(axis=1)
        ok = (w_f >= lo - FEAS_TOL) & (w_f <= hi + FEAS_TOL)
        if not ok.any():
            continue
        vals = grids[ok] @ y[rest] + w_f[ok] * y[f]
        cand = vals.max() if maximize else vals.min()
        if best is None or (cand > best if maximize else cand < best):
            best = float(cand)
    if best is None:
        raise ValueError("empty box simplex")
    return best


def raw_shift_rows(y0, treated_sorted, treated_cum, grid_anchor, grid_c0,
                   grid_eps, m, shift_index, delta, mode, shift_value):
    """Unconsolidated KS rows for one shift: (A_ub, b_ub) over control weights."""
    y0 = np.asarray(y0, dtype=float)
    if mode == "grid":
        kk = np.arange(2 * m + 1)
        pts = grid_anchor + kk * grid_eps
        where = grid_anchor + grid_c0 + (shift_index + kk) * grid_eps
    else:
        pts = np.union1d(np.unique(y0), treated_sorted - shift_value)
        where = pts + shift_value
    tv = treated_cum[np.searchsorted(treated_sorted, where, side="right")]
    ind = (y0[None, :] <= pts[:, None]).astype(float)
    a = np.vstack([ind, -ind])
    b = np.concatenate([tv + delta, -(tv - delta)])
    return a, b


def _treated_cdf_parts(y1):
    ys = np.sort(np.asarray(y1, dtype=float))
    cum = np.concatenate(([0.0], np.arange(1, ys.size + 1) / ys.size))
    return ys, cum


def brute_distributional(y0, y1, gamma, delta, m, mode="grid",
                         direction="lower", backend="vertex",
                         extra_ub=None):
    """Exhaustive solve of the shift-feasibility program: one binary pattern
    per candidate shift, each relaxed to an LP over the control weights.

    Returns (status, estimate, counterfactual).  ``extra_ub`` appends rows
    (A, b) shared by every shift (used for the DiD mean constraint).
    """
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    n0 = y0.size
    pooled = np.concatenate([y0, y1])
    span = pooled.max() - pooled.min()
    if span == 0:
        shifts = np.zeros(1)
        eps = 0.0
    else:
        eps = span / m
        shifts = -span + eps * np.arange(2 * m + 1)
        shifts[m] = 0.0
    anchor = pooled.min()
    ts, tc = _treated_cdf_parts(y1)

    best = None
    for j, c_shift in enumerate(shifts):
        a, b = raw_shift_rows(y0, ts, tc, anchor, -span, eps, m, j, delta,
                              mode if span else "exact_atoms", c_shift)
        if extra_ub is not None:
            a = np.vstack([a, extra_ub[0]])
            b = np.concatenate([b, extra_ub[1]])
        sense = "max" if direction == "lower" else "min"
        if backend == "vertex":
            status, val, _ = vertex_solve(
                y0, a_ub=a, b_ub=b, a_eq=np.ones((1, n0)), b_eq=[1.0],
                lower=np.zeros(n0), upper=np.full(n0, gamma / n0), sense=sense,
            )
        else:
            from scipy.optimize import linprog

            res = linprog(
                -y0 if sense == "max" else y0,
                A_ub=a, b_ub=b,
                A_eq=np.ones((1, n0)), b_eq=[1.0],
                bounds=[(0.0, gamma / n0)] * n0,
                method="highs",
            )
            if not res.success:
                continue
            status, val = "optimal", float(y0 @ res.x)
        if status != "optimal":
            continue
        if best is None or (direction == "lower" and val > best) or (
            direction == "upper" and val < best
        ):
            best = val
    if best is None:
        return "infeasible", None, None
    treated_mean = float(y1.mean())
    return "optimal", treated_mean - best, best


def brute_shift_ks(f_values, f_weights, g_values, grid_values, m,
                   mode="exact_atoms"):
    """``KS(F(y), G(y + c))`` for every shift ``c`` of the symmetric grid
    over ``grid_values``, by brute force on the raw (unmerged) samples.

    F has masses ``f_weights`` (uniform when None) on ``f_values``, G uniform
    masses on ``g_values``.  ``exact_atoms``, and any degenerate grid,
    compares F at each point of ``f_values`` and ``g_values - c`` with G at
    that point plus ``c``; ``grid`` compares F at ``anchor + k*eps`` with G
    at ``anchor - span + (j+k)*eps`` (``anchor`` and ``span`` the minimum and
    range of ``grid_values``).  Returns ``(shifts, distances)``.
    """
    f_values = np.asarray(f_values, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    f_weights = (np.ones(f_values.size) if f_weights is None
                 else np.asarray(f_weights, dtype=float))
    grid_values = np.asarray(grid_values, dtype=float)
    anchor = grid_values.min()
    span = grid_values.max() - anchor
    if span == 0:
        shifts = np.zeros(1)
    else:
        eps = span / m
        shifts = -span + eps * np.arange(2 * m + 1)
        shifts[m] = 0.0

    def cdf(values, weights, y):
        return weights[values <= y].sum() / weights.sum()

    g_weights = np.ones(g_values.size)
    dists = np.zeros(shifts.size)
    for j, c in enumerate(shifts):
        if mode == "grid" and span > 0:
            pairs = [(anchor + k * eps, anchor - span + (j + k) * eps)
                     for k in range(2 * m + 1)]
        else:
            pairs = [(y, y + c)
                     for y in set(f_values.tolist()) | set((g_values - c).tolist())]
        dists[j] = max(abs(cdf(f_values, f_weights, y) - cdf(g_values, g_weights, z))
                       for y, z in pairs)
    return shifts, dists


def brute_iv(strata_y, gamma, delta, epsilon, m, direction="lower"):
    """Joint vertex-LP solve of the encouragement-arm problem on tiny data.

    ``strata_y[(t, z)]`` holds the outcomes.  For each arm z, enumerates
    shift pairs and solves one LP over the concatenated weight vectors of
    both control strata, with the mean-difference coupling.  Returns
    (status, estimate).
    """
    pooled = np.concatenate(list(strata_y.values()))
    span = pooled.max() - pooled.min()
    eps_grid = span / m
    shifts = -span + eps_grid * np.arange(2 * m + 1)
    shifts[m] = 0.0
    anchor = pooled.min()

    n = sum(y.size for y in strata_y.values())
    p = {k: v.size / n for k, v in strata_y.items()}
    p1 = p[(1, 0)] + p[(1, 1)]
    total = 0.0
    for z in (0, 1):
        y_main = strata_y[(0, z)]
        y_other = strata_y[(0, 1 - z)]
        ts, tc = _treated_cdf_parts(strata_y[(1, z)])
        n_m, n_o = y_main.size, y_other.size
        best = None
        for j1, c1 in enumerate(shifts):
            a1, b1 = raw_shift_rows(y_main, ts, tc, anchor, -span, eps_grid,
                                    m, j1, delta, "grid", c1)
            for j2, c2 in enumerate(shifts):
                a2, b2 = raw_shift_rows(y_other, ts, tc, anchor, -span,
                                        eps_grid, m, j2, delta, "grid", c2)
                n_vars = n_m + n_o
                a_ub = np.zeros((a1.shape[0] + a2.shape[0] + 2, n_vars))
                a_ub[: a1.shape[0], :n_m] = a1
                a_ub[a1.shape[0]: a1.shape[0] + a2.shape[0], n_m:] = a2
                coupling = np.concatenate([y_main, -y_other])
                a_ub[-2] = coupling
                a_ub[-1] = -coupling
                b_ub = np.concatenate([b1, b2, [epsilon, epsilon]])
                a_eq = np.zeros((2, n_vars))
                a_eq[0, :n_m] = 1.0
                a_eq[1, n_m:] = 1.0
                obj = np.concatenate([y_main, np.zeros(n_o)])
                status, val, _ = vertex_solve(
                    obj, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[1.0, 1.0],
                    lower=np.zeros(n_vars),
                    upper=np.concatenate(
                        [np.full(n_m, gamma / n_m), np.full(n_o, gamma / n_o)]
                    ),
                    sense="max" if direction == "lower" else "min",
                )
                if status != "optimal":
                    continue
                if best is None or (direction == "lower" and val > best) or (
                    direction == "upper" and val < best
                ):
                    best = val
        if best is None:
            return "infeasible", None
        share = p[(1, z)] / p1
        total += share * (float(strata_y[(1, z)].mean()) - best)
    return "optimal", total


def sort_merge_ecdf(values, weights=None):
    """Atoms and masses of the weighted ECDF by the textbook merge: a stable
    sort, :func:`numpy.unique`, the weights added per atom with
    :func:`numpy.add.at`, then divided by their pairwise total (1/n each
    when unweighted).  Zero-mass atoms are dropped."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    order = np.argsort(values, kind="stable")
    uniq, inverse = np.unique(values[order], return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, weights[order])
    merged /= total
    keep = merged > 0
    return uniq[keep], merged[keep]


def composed_target(f_b1, f_b0, f_00):
    """Atoms and masses of the changes-in-changes target: the levels
    ``F_b1(F_b0^{-1}(F_00))`` at F_00's atoms, differenced, clipped at 0 and
    merged by :func:`sort_merge_ecdf`; ``None`` when no mass is left."""
    levels = f_b1.cdf(f_b0.quantile(f_00.cum))
    masses = np.maximum(np.diff(levels, prepend=0.0), 0.0)
    if masses.sum() <= 0:
        return None
    return sort_merge_ecdf(f_00.atoms, masses)


_LoopBands = namedtuple("_LoopBands", "cols top bottom")


def _loop_bands(atoms, target, grid, mode):
    """KS bands ``(cols, top, bottom)``, a named tuple, of any CDF on the
    ascending distinct control ``atoms`` against ``target`` (its ``atoms``
    and ``cdf``), shift by shift over ``grid`` (its ``shifts``; ``anchor``,
    ``c0`` and ``m`` for the double grid).  ``top``/``bottom`` (S, L) hold
    the largest and smallest treated-CDF value compared with each column of
    ``cols`` (``-inf``/``inf`` where none is).  ``exact_atoms``, and a
    degenerate grid, compare every point of the atoms and the treated atoms
    less the shift, at every column; ``grid`` compares the points
    ``anchor + k*eps`` with the treated CDF at ``anchor + c0 + (j+k)*eps``,
    at the columns they hit and the first and last."""
    k = atoms.size
    shifts = np.asarray(grid.shifts)
    if mode == "grid" and shifts.size > 1:
        span, m = -grid.c0, grid.m
        eps = span / m
        steps = np.arange(2 * m + 1)
        hit = np.searchsorted(atoms, grid.anchor + steps * eps, side="right")
        cols = np.union1d(hit, [0, k])
        top = np.full((shifts.size, cols.size), -np.inf)
        bottom = np.full_like(top, np.inf)
        for j in range(shifts.size):
            values = target.cdf((grid.anchor - span) + (j + steps) * eps)
            for col, value in zip(np.searchsorted(cols, hit), values):
                top[j, col] = max(top[j, col], value)
                bottom[j, col] = min(bottom[j, col], value)
        return _LoopBands(cols, top, bottom)
    top = np.full((shifts.size, k + 1), -np.inf)
    bottom = np.full_like(top, np.inf)
    for j, c in enumerate(shifts):
        pts = np.union1d(atoms, target.atoms - c)
        hit, first = np.unique(np.searchsorted(atoms, pts, side="right"), return_index=True)
        values = target.cdf(pts + c)
        top[j, hit] = np.maximum.reduceat(values, first)
        bottom[j, hit] = np.minimum.reduceat(values, first)
    return _LoopBands(np.arange(k + 1), top, bottom)
