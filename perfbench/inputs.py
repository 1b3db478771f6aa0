"""Seeded input generators for the benchmark workloads.

Every sample is a plain dict of NumPy arrays, drawn from
``numpy.random.default_rng([seed, stream, instance])``, so the same seed
always gives the same inputs.  Arm sizes are fixed exactly (the treated set
is the top ``n1`` of a Gumbel-perturbed propensity score) so that the work
per op does not drift with the seed.  Outcomes are rounded to a fixed number
of decimals; writing them with ``repr`` therefore round-trips bit for bit,
and the checker sees exactly the values the program parses from the CSV.
"""

from __future__ import annotations

import numpy as np

# one stream id per sample family keeps the families independent
_XSEC, _EARNINGS, _IV, _LP = range(4)


def _rng(seed: int, stream: int, instance: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, instance])


def _treated_top(rng, score: np.ndarray, n1: int) -> np.ndarray:
    """Exactly ``n1`` treated units, chosen with odds rising in ``score``."""
    key = score + rng.gumbel(size=score.size)
    t = np.zeros(score.size, dtype=np.int64)
    t[np.argsort(-key, kind="stable")[:n1]] = 1
    return t


def xsec_sample(seed: int, n: int = 50_000, n1: int = 20_000) -> dict:
    """Continuous outcomes (K close to n0), a baseline outcome and three
    covariates; treatment is confounded through the covariates."""
    rng = _rng(seed, _XSEC)
    x = np.round(rng.normal(size=(n, 3)), 6)
    t = _treated_top(rng, 0.5 * x[:, 0] - 0.4 * x[:, 1], n1)
    signal = x @ np.array([1.0, 0.5, -0.5])
    y_b = np.round(signal + rng.normal(size=n), 6)
    y = np.round(1.0 + signal + 0.3 * t + 0.5 * (y_b - signal)
                 + 0.8 * rng.normal(size=n), 6)
    return {"y": y, "t": t, "y_b": y_b, "x": x}


def write_csv(sample: dict, path: str) -> None:
    """Write ``y,t,y_b,x1..xJ`` with shortest round-trip float text."""
    cols = [sample["y"].tolist(), sample["t"].tolist(), sample["y_b"].tolist()]
    cols += [sample["x"][:, j].tolist() for j in range(sample["x"].shape[1])]
    header = ["y", "t", "y_b"] + [f"x{j + 1}" for j in range(sample["x"].shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


def earnings_sample(seed: int, n: int = 50_000, n1: int = 15_000) -> dict:
    """Earnings-scale outcomes rounded to 100 (about 1 000 distinct control
    values) with about 30 % zeros."""
    rng = _rng(seed, _EARNINGS)
    score = rng.normal(size=n)
    t = _treated_top(rng, 0.3 * score, n1)
    zero = rng.random(n) < np.where(t == 1, 0.25, 0.32)
    raw = np.exp(rng.normal(9.6 + 0.1 * t + 0.1 * score, 0.75))
    y = np.where(zero, 0.0, np.minimum(np.round(raw / 100.0) * 100.0, 100_000.0))
    return {"y": y, "t": t}


def iv_sample(seed: int, n: int = 5_000) -> dict:
    """Binary encouragement ``z`` (half the units); take-up 20 % without and
    60 % with encouragement, exact per arm.  Treated outcomes are wider than
    control ones, so no gamma = 2 reweighting matches their shape exactly:
    the KS feasibility threshold stays positive and its bisection runs in
    full on every seed."""
    rng = _rng(seed, _IV)
    z = np.zeros(n, dtype=np.int64)
    z[rng.permutation(n)[: n // 2]] = 1
    t = np.zeros(n, dtype=np.int64)
    for arm, share in ((0, 0.2), (1, 0.6)):
        idx = np.flatnonzero(z == arm)
        t[rng.permutation(idx)[: int(round(share * idx.size))]] = 1
    y = np.round(rng.normal(size=n) * np.where(t == 1, 1.3, 1.0) + 0.5 * t + 0.2 * z, 6)
    return {"y": y, "t": t, "z": z}


def lp_samples(seed: int, instance: int) -> tuple[dict, dict]:
    """One TV sample (n = 400, n0 = 250) and one covariate-balance sample
    (n = 200, n0 = 120, three covariates)."""
    rng = _rng(seed, _LP, instance)
    out = []
    for n, n1 in ((400, 150), (200, 80)):
        x = np.round(rng.normal(size=(n, 3)), 6)
        t = _treated_top(rng, 0.5 * x[:, 0], n1)
        y = np.round(x @ np.array([1.0, 0.5, -0.5]) + 0.5 * t
                     + rng.normal(size=n), 6)
        out.append({"y": y, "t": t, "x": x})
    return out[0], out[1]
