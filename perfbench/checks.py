"""Output checks written from the model definitions, sharing no code with
the solvers (NumPy only; nothing here imports ``drci``).

Every function returns a list of problem strings; an empty list is a pass.
Tolerances scale with the outcome magnitude ``scale`` (at least 1), so an
earnings-scale sample is held to the same relative accuracy as unit-scale
data.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

WEIGHT_TOL = 1e-8   # simplex sum and nonnegativity
CAP_TOL = 2e-9      # per-unit excess over a weight cap
CDF_TOL = 1e-8      # KS band, on the CDF scale
VALUE_RTOL = 1e-9   # recomputed means, relative to the outcome scale
GOLDEN_RTOL = 1e-8  # golden results, relative to the outcome scale


def outcome_scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays])


def simplex(w: np.ndarray, cap: float | None = None, total: float = 1.0) -> list[str]:
    """Weights nonnegative, summing to ``total``, each at most ``cap``."""
    out = []
    if w.size and w.min() < -WEIGHT_TOL:
        out.append(f"negative weight {w.min():.3g}")
    if abs(w.sum() - total) > WEIGHT_TOL:
        out.append(f"weights sum to {w.sum()!r}, expected {total!r}")
    if cap is not None and w.size and w.max() > cap + CAP_TOL:
        out.append(f"weight {w.max():.6g} above cap {cap:.6g}")
    return out


def estimate_matches(estimate: float, treated_mean: float, w: np.ndarray,
                     y: np.ndarray, scale: float) -> list[str]:
    """``estimate == treated_mean - sum_i w_i y_i``."""
    expected = treated_mean - float(np.dot(w, y))
    if not abs(estimate - expected) <= VALUE_RTOL * scale:
        return [f"estimate {estimate!r} != treated mean - weighted mean {expected!r}"]
    return []


def _step_cdf(values: np.ndarray, weights: np.ndarray):
    order = np.argsort(values, kind="stable")
    xs = values[order]
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    return lambda pts: cum[np.searchsorted(xs, pts, side="right")]


def ks_band(y_all: np.ndarray, y0: np.ndarray, w: np.ndarray, y1: np.ndarray,
            m: int, delta: float, shift: float) -> list[str]:
    """Grid-KS model at the active shift ``c``.

    The grid spans ``[-(max-min), max-min]`` of all outcomes in steps of
    ``eps = (max-min)/m``.  At each evaluation point ``y_k = min + k*eps``,
    ``k = 0..2m``, the reweighted control CDF must lie within ``delta`` of
    the treated ECDF at ``y_k + c``.  Each CDF is read just left and just
    right of its point, so last-bit differences in where a point lands do
    not decide the verdict.
    """
    lo, hi = float(y_all.min()), float(y_all.max())
    span = hi - lo
    if span == 0.0:
        return [] if shift == 0.0 else [f"shift {shift!r} on a degenerate grid"]
    eps = span / m
    eta = 1e-9 * max(span, abs(lo), abs(hi))
    j = round((shift + span) / eps)
    if not 0 <= j <= 2 * m or abs(-span + j * eps - shift) > eta:
        return [f"active shift {shift!r} is not on the shift grid"]
    pts = lo + np.arange(2 * m + 1) * eps
    f_w = _step_cdf(y0, w)
    f_1 = _step_cdf(y1, np.full(y1.size, 1.0 / y1.size))
    gap = np.maximum(f_w(pts - eta) - f_1(pts + shift + eta),
                     f_1(pts + shift - eta) - f_w(pts + eta))
    worst = float(gap.max())
    if worst > delta + CDF_TOL:
        return [f"KS band violated at shift {shift!r}: {worst:.6g} > delta {delta!r}"]
    return []


def tv_ball(w: np.ndarray, radius: float) -> list[str]:
    tv = 0.5 * float(np.abs(w - 1.0 / w.size).sum())
    if tv > radius + WEIGHT_TOL:
        return [f"TV distance {tv:.6g} above {radius!r}"]
    return []


def balance_cap(w: np.ndarray, x_ctrl: np.ndarray, x_treated: np.ndarray,
                budget: float) -> list[str]:
    """Summed absolute first-moment imbalance at most ``budget``."""
    imbalance = float(np.abs(x_treated.mean(axis=0) - w @ x_ctrl).sum())
    tol = VALUE_RTOL * outcome_scale(x_ctrl)
    if imbalance > budget + tol:
        return [f"covariate imbalance {imbalance:.6g} above {budget!r}"]
    return []


def did_target(y: np.ndarray, t: np.ndarray, y_b: np.ndarray) -> float:
    """Parallel trends: ``mean(y_b|1) + mean(y|0) - mean(y_b|0)``."""
    return float(y_b[t == 1].mean() + y[t == 0].mean() - y_b[t == 0].mean())


def cic_target(y: np.ndarray, t: np.ndarray, y_b: np.ndarray) -> float:
    """Mean of ``F_b1(F_b0^{-1}(F_00(y)))`` on the control endline atoms.

    Levels are kept as integer counts: ``F_00`` at its k-th atom is
    ``C_k / n0``; the generalized inverse of ``F_b0`` at that level is the
    ``C_k``-th smallest control baseline; ``F_b1`` there is a count over the
    treated baselines.
    """
    atoms, counts = np.unique(y[t == 0], return_counts=True)
    b0 = np.sort(y_b[t == 0])
    b1 = np.sort(y_b[t == 1])
    q = b0[np.cumsum(counts) - 1]
    levels = np.searchsorted(b1, q, side="right") / b1.size
    masses = np.diff(levels, prepend=0.0)
    return float(atoms @ masses / levels[-1])


def mean_window(counterfactual: float, target: float, epsilon: float,
                scale: float) -> list[str]:
    if abs(counterfactual - target) > epsilon + VALUE_RTOL * scale:
        return [f"counterfactual mean {counterfactual!r} outside "
                f"{target!r} +/- {epsilon!r}"]
    return []


def ordered(lower: float, upper: float, scale: float, what: str) -> list[str]:
    if lower > upper + VALUE_RTOL * scale:
        return [f"{what}: lower {lower!r} above upper {upper!r}"]
    return []


def sweep_table(text: str, gammas, deltas, scale: float):
    """Parse the sweep CSV and check its invariants.

    Returns ``(cells, problems)``.  Per cell, lower <= upper.  Growing gamma
    or delta only enlarges the ambiguity set, so along each axis the lower
    bound may not rise, the upper bound may not fall, and a feasible cell
    stays feasible.  The CSV carries six decimals, hence the rounding slack.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    expected = [(float(g), float(d)) for g in gammas for d in deltas]
    got = [(float(r["gamma"]), float(r["delta"])) for r in rows]
    if got != expected:
        return [], [f"sweep grid {got} != {expected}"]
    slack = 1e-6 + VALUE_RTOL * scale
    table = {}
    cells = []
    for r, key in zip(rows, got):
        feasible = r["status"] == "optimal"
        low = float(r["lower"]) if feasible else None
        high = float(r["upper"]) if feasible else None
        if r["status"] not in ("optimal", "infeasible"):
            problems.append(f"cell {key}: status {r['status']!r}")
        if feasible and low > high + slack:
            problems.append(f"cell {key}: lower {low} above upper {high}")
        table[key] = (feasible, low, high)
        cells.append([key[0], key[1], low, high, r["status"]])
    for gi, g in enumerate(gammas):
        for di, d in enumerate(deltas):
            here = table[(float(g), float(d))]
            for nxt in ((gammas[gi + 1], d) if gi + 1 < len(gammas) else None,
                        (g, deltas[di + 1]) if di + 1 < len(deltas) else None):
                if nxt is None or not here[0]:
                    continue
                there = table[(float(nxt[0]), float(nxt[1]))]
                if not there[0]:
                    problems.append(f"cell {nxt} infeasible though {(g, d)} is feasible")
                elif there[1] > here[1] + slack or there[2] < here[2] - slack:
                    problems.append(f"cell {nxt} narrower than {(g, d)}")
    return cells, problems


def bias_table(text: str, models, gammas, reps: int):
    """Parse the Monte Carlo CSV and check its invariants.

    Returns ``(rows, problems)``.  The marginal cells keep every replication
    and, with the same draws at each gamma, their lower-bound bias cannot
    rise with gamma.  The distributional set adds KS constraints to the same
    weight caps, so where it kept every replication its lower bound cannot
    fall below the marginal one.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    cells = {(r["model"], float(r["gamma"])): r for r in rows}
    expected = {(mdl, float(g)) for mdl in models for g in gammas}
    if set(cells) != expected or len(rows) != len(expected):
        return [], [f"bias table cells {sorted(cells)} != {sorted(expected)}"]
    out = []
    for (mdl, g), r in sorted(cells.items()):
        kept = int(r["replications"])
        if not 0 <= kept <= reps or (mdl == "marginal" and kept != reps):
            problems.append(f"{mdl} gamma={g}: {kept} replications of {reps}")
        if kept and not (math.isfinite(float(r["bias"])) and float(r["sd"]) >= 0):
            problems.append(f"{mdl} gamma={g}: non-finite bias or sd")
        out.append([mdl, g, float(r["bias"]), float(r["sd"]), kept])
    marginal = [float(cells[("marginal", float(g))]["bias"]) for g in gammas]
    if any(b > a + 1e-6 for a, b in zip(marginal, marginal[1:])):
        problems.append(f"marginal bias rises with gamma: {marginal}")
    for g in gammas:
        dist = cells[("distributional", float(g))]
        if int(dist["replications"]) == reps and \
                float(dist["bias"]) < float(cells[("marginal", float(g))]["bias"]) - 1e-6:
            problems.append(f"gamma={g}: distributional bias below marginal")
    return out, problems


def golden(summary: dict, expected: dict, scale: float) -> list[str]:
    """Compare a result summary with its recorded golden value."""
    tol = GOLDEN_RTOL * scale

    def same(a, b) -> bool:
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(same(p, q) for p, q in zip(a, b))
        if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
            return a == b
        return abs(a - b) <= tol

    return [f"{k}: {summary.get(k)!r} != golden {v!r}"
            for k, v in expected.items() if not same(summary.get(k), v)]
