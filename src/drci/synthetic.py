"""Synthetic potential-outcomes generator and the Monte Carlo harness.

One unobserved binary confounder drives both treatment take-up and the
treatment-effect draw: with ``u ~ Bern(p)``,

    T | u  ~ Bern(0.6 u + 0.2)
    Y(t,u) = (1 - u)(t - 0.5) nu + u (t - 0.5) eta + theta + eps

with ``nu ~ N(tau1, 1)``, ``eta ~ N(tau2, 1)``, ``theta ~ N(0, 2)``,
``eps ~ N(0, 0.1)`` (second parameter is the standard deviation).  The
implied ATT is ``(8 p tau2 + 2 (1 - p) tau1) / (6 p + 2)``.

The harness draws repeated samples, runs each sensitivity model's lower
bound, and aggregates bias (mean of estimate minus true ATT) and standard
deviation per (model, gamma) cell.  Replications use independent streams
derived from the master seed via a counter, so cells are reproducible and
order-independent.

So that the two models are compared under identical weight caps, the
harness's marginal cells use the one-sided box ``0 <= w_i <= gamma/n0``
(only the shared upper bound, no positive floor); the standalone
:func:`~drci.dro_solvers.marginal_att_bound` keeps its two-sided box.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import Dataset
from .dro_solvers import SensitivityConfig, _distributional_lower_block

__all__ = [
    "Scenario",
    "BiasRow",
    "BiasTable",
    "generate_scenario",
    "true_att",
    "run_monte_carlo",
]

_MODELS = ("marginal", "distributional")
_BLOCK = 32  # replications drawn and solved together by run_monte_carlo


@dataclass(frozen=True)
class Scenario:
    """DGP parameters: baseline effect, confounded effect, confounder rate.

    The effects must be finite and the rate a probability, so every draw's
    outcomes are finite."""

    tau1: float
    tau2: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.tau1) and math.isfinite(self.tau2)):
            raise ValueError("tau1 and tau2 must be finite")
        if not 0 <= self.p <= 1:
            raise ValueError("p must be a probability")


def true_att(s: Scenario) -> float:
    """Closed-form ATT implied by the potential-outcomes model."""
    return (8 * s.p * s.tau2 + 2 * (1 - s.p) * s.tau1) / (6 * s.p + 2)


def generate_scenario(s: Scenario, n: int, seed) -> Dataset:
    """Draw ``n`` units; deterministic given ``seed`` (int or int sequence)."""
    _check_n(n)
    return Dataset(*_draw(s, n, seed))


def _check_n(n) -> None:
    if not _is_int(n) or n < 2:
        raise ValueError("n must be an integer >= 2")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_seed(seed) -> None:
    """A seed is a non-negative integer or a sequence of them."""
    items = seed if isinstance(seed, (tuple, list, np.ndarray)) else (seed,)
    if not all(_is_int(x) and x >= 0 for x in items):
        raise ValueError(
            f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


def _draw(s: Scenario, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes and treatments of :func:`generate_scenario`'s draw."""
    rng = np.random.default_rng(seed)
    u = rng.binomial(1, s.p, size=n)
    t = rng.binomial(1, 0.6 * u + 0.2)
    nu = rng.normal(s.tau1, 1.0, size=n)
    eta = rng.normal(s.tau2, 1.0, size=n)
    theta = rng.normal(0.0, 2.0, size=n)
    eps = rng.normal(0.0, 0.1, size=n)
    y = (1 - u) * (t - 0.5) * nu + u * (t - 0.5) * eta + theta + eps
    return y, t


def _capped_marginal_lowers(y: np.ndarray, t: np.ndarray, gammas) -> list[float]:
    """Marginal-model lower bound of the sample ``(y, t)`` at each of
    ``gammas`` with only the shared cap ``gamma/n0`` on the weights (no
    positive floor), keeping the weight box identical across the two models
    in the bias tables."""
    y0 = np.sort(y[t == 0])[::-1]
    treated_mean = y[t == 1].mean()
    out = []
    for gamma in gammas:
        cap = gamma / y0.size
        take = np.minimum(cap, np.maximum(0.0, 1.0 - cap * np.arange(y0.size)))
        out.append(float(treated_mean - take @ y0))
    return out


@dataclass(frozen=True)
class BiasRow:
    model: str
    gamma: float
    n: int
    delta: float
    bias: float
    sd: float
    replications: int


@dataclass(frozen=True)
class BiasTable:
    rows: tuple[BiasRow, ...]

    def cell(self, model: str, gamma: float) -> BiasRow:
        for row in self.rows:
            if row.model == model and row.gamma == gamma:
                return row
        raise KeyError(f"no cell for ({model}, {gamma})")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("model,gamma,n,delta,bias,sd,replications\n")
        for r in self.rows:
            buf.write(
                f"{r.model},{r.gamma:g},{r.n},{r.delta:g},"
                f"{r.bias:.6f},{r.sd:.6f},{r.replications}\n"
            )
        return buf.getvalue()


def run_monte_carlo(
    s: Scenario,
    n: int,
    reps: int,
    models,
    gammas,
    delta: float,
    seed,
    m: int = 50,
    ks_mode: str = "grid",
) -> BiasTable:
    """Bias/sd of each model's lower bound across ``reps`` replications.

    Replication ``rep`` is drawn from the stream ``(seed, rep)``.  A draw
    with an empty treatment arm has no bound under any model, so it is
    dropped from every cell.  Solver infeasibility (possible for the
    distributional model at small ``delta``) drops that replication from the
    affected cell only.  The ``replications`` column reports the count
    actually aggregated.  ``n`` and ``reps`` must be integers (``n >= 2``,
    ``reps >= 1``), the other knobs are checked up front as
    :class:`SensitivityConfig` checks them, for every model, and ``models``
    and ``gammas`` must be nonempty and hold no repeats.

    Replications are drawn and solved in blocks of ``_BLOCK``, as the drawn
    ``(y, t)`` arrays: no :class:`~drci.distributions.Dataset` is built, as
    the draw is finite and binary by construction.  ``seed`` is a
    non-negative integer or a sequence of them.  The marginal cells sort
    each replication's controls once for all gammas.  The distributional
    cells are the lower :func:`~drci.dro_solvers.distributional_att_bound`
    estimates bit for bit, computed without weights or standard errors by
    :func:`~drci.dro_solvers._distributional_lower_block`: one solve plan for
    the whole block (:func:`~drci.dro_solvers._block_plan`, a row per
    replication), capped at every gamma, and the one scan of every
    distributional bound (:func:`~drci.dro_solvers._scan`), which screens
    out the shifts infeasible at every gamma and stacks the rest of all the
    block's replications whose bands share a width.
    """
    _check_n(n)
    if not _is_int(reps) or reps < 1:
        raise ValueError("reps must be a positive integer")
    _check_seed(seed)
    models = tuple(models)
    gammas = tuple(float(g) for g in gammas)
    if not models or not gammas:
        raise ValueError("need at least one model and one gamma")
    for model in models:
        if model not in _MODELS:
            raise ValueError(f"unknown model {model!r}")
    for g in gammas:
        SensitivityConfig(gamma=g, delta=delta, m=m, ks_mode=ks_mode)
    if len(set(models)) < len(models) or len(set(gammas)) < len(gammas):
        raise ValueError("models and gammas must not repeat")
    truth = true_att(s)

    # per model, one (replications, gammas) array of estimates per block
    blocks: dict[str, list[np.ndarray]] = {model: [] for model in models}
    for first in range(0, reps, _BLOCK):
        draws = (_draw(s, n, (seed, rep)) for rep in range(first, min(first + _BLOCK, reps)))
        block = [(y, t) for y, t in draws if 0 < t.sum() < n]  # both arms drawn
        if not block:
            continue
        for model in models:
            if model == "marginal":
                blocks[model].append(np.array(
                    [_capped_marginal_lowers(y, t, gammas) for y, t in block]))
            else:
                blocks[model].append(
                    _distributional_lower_block(block, gammas, delta, m, ks_mode))

    rows = []
    for model in models:
        estimates = (np.concatenate(blocks[model]) if blocks[model]
                     else np.empty((0, len(gammas))))
        for g, column in zip(gammas, estimates.T):
            values = column[~np.isnan(column)]  # NaN: infeasible
            if values.size == 0:
                rows.append(BiasRow(model, g, n, delta, math.nan, math.nan, 0))
                continue
            sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(
                BiasRow(
                    model=model,
                    gamma=g,
                    n=n,
                    delta=delta,
                    bias=float(values.mean() - truth),
                    sd=sd,
                    replications=int(values.size),
                )
            )
    return BiasTable(rows=tuple(rows))
