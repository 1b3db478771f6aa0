"""One benchmark workload in its own process.

``run.py`` starts this script once per measured run and once per set-up
probe, so that ``ru_maxrss`` belongs to one workload alone.  It prints one
JSON record as its last line of standard output.

An *op* is one call into a public entry point that returns one
user-visible result.  A *pass* runs the workload's op list back to back;
passes repeat until ``--seconds`` of op time are measured.  Outputs are
checked after each pass, outside the timed region.  With ``--trace 1`` odd
passes run with the tracer installed and even ones without, which gives
both the per-layer figures and the tracing overhead.

To re-record the golden results of the default seed (only when a change is
meant to alter results)::

    python3 perfbench/workload.py --workload xsec_large --record-golden
"""

from __future__ import annotations

import os

# pinned before NumPy loads OpenBLAS (which would otherwise start one
# thread per CPU)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import itertools
import json
import platform
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0

# xsec_large: the paper's headline call on one large sample
XSEC = {"gamma": 2.0, "delta": 0.05, "epsilon": 0.05, "m": 200}
# sensitivity_grid
SWEEP_GAMMAS = (1.5, 2.0, 3.0, 4.0, 6.0)
SWEEP_DELTAS = (0.02, 0.05, 0.1, 0.2)
MC = {"n": 100, "reps": 200, "models": ("distributional", "marginal"),
      "gammas": (2.0, 3.0, 5.0), "delta": 0.1}
IV = {"gamma": 2.0, "delta": 0.1, "epsilon": 0.1, "m": 20}
# lp_routes: samples per pass (enough that seed-to-seed differences in LP
# work, including which samples hit the lp_core failure, average out), TV
# radius, balance settings
LP_INSTANCES = 12
LAMBDA_TV = 0.1
BALANCE = {"gamma": 2.0, "delta": 0.1, "m": 20}
BALANCE_FORMS = (("bal_lambda", {"balance_lambda": 0.5}),
                 ("bal_eps", {"balance_epsilon": 0.2}))


@dataclass
class Op:
    key: str                                  # golden results are keyed by it
    call: Callable[[], object]                # the timed call
    inspect: Callable[[object], tuple]        # output -> (summary, problems)
    scale: float                              # outcome scale for tolerances
    pair: tuple[str, str] | None = None       # (group, direction)


def _num(x):
    return None if x is None or not np.isfinite(x) else float(x)


def _weights(weights: dict, units: np.ndarray):
    """Weights as an array over ``units``; problems if any key is elsewhere."""
    allowed = set(units.tolist())
    stray = [k for k in weights if k not in allowed]
    w = np.array([weights.get(i, 0.0) for i in units.tolist()], dtype=float)
    return w, ([f"{len(stray)} weights on units outside the reweighted arm"]
               if stray else [])


def _bound_summary(status, estimate, shift) -> dict:
    return {"status": status, "estimate": _num(estimate), "active_shift": _num(shift)}


def _distributional(sample, estimate, shift, weights, gamma, delta, m, scale,
                    window=None) -> list[str]:
    """Caps, simplex, recomputed estimate, KS band, optional mean window."""
    y, t = sample["y"], sample["t"]
    units = np.flatnonzero(t == 0)
    w, problems = _weights(weights, units)
    y0, y1 = y[units], y[t == 1]
    problems += checks.simplex(w, cap=gamma / units.size)
    problems += checks.estimate_matches(estimate, float(y1.mean()), w, y0, scale)
    if shift is None:
        problems.append("optimal bound without an active shift")
    else:
        problems += checks.ks_band(y, y0, w, y1, m, delta, shift)
    if window is not None:
        target, epsilon = window
        problems += checks.mean_window(float(w @ y0), target, epsilon, scale)
    return problems


# ---------------------------------------------------------------------------
# workloads


def xsec_large(drci, seed: int, workdir: str) -> list[Op]:
    """``drci att|did|cic`` x lower/upper through ``cli_io.main`` on one
    50 000-row CSV, m = 200, weights emitted, a fresh report path per op."""
    sample = inputs.xsec_sample(seed)
    csv_path = os.path.join(workdir, "xsec.csv")
    inputs.write_csv(sample, csv_path)
    y, t, y_b = sample["y"], sample["t"], sample["y_b"]
    scale = checks.outcome_scale(y, y_b)
    windows = {"att": None,
               "did": (checks.did_target(y, t, y_b), XSEC["epsilon"]),
               "cic": (checks.cic_target(y, t, y_b), XSEC["epsilon"])}
    serial = itertools.count()

    def make(cmd: str, direction: str) -> Op:
        argv = [cmd, "--input", csv_path, "--model", "distributional",
                "--gamma", str(XSEC["gamma"]), "--delta", str(XSEC["delta"]),
                "--m", str(XSEC["m"]), "--direction", direction, "--emit-weights"]
        if cmd != "att":
            argv += ["--epsilon", str(XSEC["epsilon"])]

        def call():
            # a fresh path: replacing an existing file costs a disk flush
            out = os.path.join(workdir, f"report_{next(serial):06d}.json")
            return drci.cli_io.main(argv + ["--output", out]), out

        def inspect(result):
            code, out = result
            try:
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
                os.remove(out)
            except (OSError, ValueError) as exc:
                return {}, [f"exit code {code}, no readable report: {exc}"]
            status = report["status"]
            summary = _bound_summary(status, report["estimate"], report["active_shift"])
            problems = [] if code == (0 if status == "optimal" else 2) else \
                [f"exit code {code} with status {status!r}"]
            if (report["n"], report["n1"], report["n0"]) != \
                    (t.size, int(t.sum()), int(t.size - t.sum())):
                problems.append("report sample sizes disagree with the input")
            if status == "optimal":
                weights = {int(k): v for k, v in report["weights"].items()}
                problems += _distributional(
                    sample, report["estimate"], report["active_shift"], weights,
                    XSEC["gamma"], XSEC["delta"], XSEC["m"], scale, windows[cmd])
            return summary, problems

        return Op(f"{cmd}_{direction}", call, inspect, scale, (cmd, direction))

    return [make(cmd, d) for cmd in ("att", "did", "cic") for d in ("lower", "upper")]


def sensitivity_grid(drci, seed: int, workdir: str) -> list[Op]:
    """Many bounds over shared data: a 5 gamma x 4 delta sweep on an
    earnings-scale tied sample, the Monte Carlo bias table, the feasibility
    threshold and IV bounds on an encouragement sample."""
    earn = inputs.earnings_sample(seed)
    earn_data = drci.Dataset(y=earn["y"], t=earn["t"])
    earn_scale = checks.outcome_scale(earn["y"])
    sweep_cfg = drci.cli_io.RunConfig(command="sweep", model="distributional")
    ivs = inputs.iv_sample(seed)
    iv_data = drci.Dataset(y=ivs["y"], t=ivs["t"], z=ivs["z"])
    iv_scale = checks.outcome_scale(ivs["y"])
    sens = drci.dro_solvers.SensitivityConfig

    def sweep_inspect(text):
        cells, problems = checks.sweep_table(text, SWEEP_GAMMAS, SWEEP_DELTAS, earn_scale)
        return {"cells": cells}, problems

    def mc_call():
        table = drci.synthetic.run_monte_carlo(
            drci.synthetic.Scenario(tau1=2.0, tau2=3.0, p=0.5), n=MC["n"],
            reps=MC["reps"], models=MC["models"], gammas=MC["gammas"],
            delta=MC["delta"], seed=seed)
        return table.to_csv()

    def mc_inspect(text):
        rows, problems = checks.bias_table(text, MC["models"], MC["gammas"], MC["reps"])
        return {"rows": rows}, problems

    def ks_inspect(value):
        if not 0.0 <= value <= 1.0:
            return {"value": value}, [f"threshold {value!r} outside [0, 1]"]
        # certificate: the model must be feasible at its own threshold, with
        # weights that pass the independent band check there
        res = drci.dro_solvers.distributional_att_bound(
            iv_data, sens(gamma=IV["gamma"], delta=value, m=IV["m"]))
        if res.status != "optimal":
            return {"value": value}, [f"infeasible at its own threshold {value!r}"]
        return {"value": value}, _distributional(
            ivs, res.estimate, res.active_shift, res.weights, IV["gamma"], value,
            IV["m"], iv_scale)

    def iv_inspect(res):
        summary = _bound_summary(res.status, res.estimate, res.active_shift)
        if res.status != "optimal":
            return summary, []
        y, t, z = ivs["y"], ivs["t"], ivs["z"]
        problems = []
        for arm in (0, 1):
            units = np.flatnonzero((t == 0) & (z == arm))
            share = float(np.sum((t == 1) & (z == arm))) / float(t.sum())
            w, _ = _weights(res.weights, units)
            problems += checks.simplex(w, cap=share * IV["gamma"] / units.size,
                                       total=share)
        units = np.flatnonzero(t == 0)
        w, stray = _weights(res.weights, units)
        problems += stray + checks.estimate_matches(
            res.estimate, float(y[t == 1].mean()), w, y[units], iv_scale)
        return summary, problems

    def iv_op(direction: str) -> Op:
        cfg = sens(direction=direction, **IV)
        return Op(f"iv_{direction}", lambda: drci.extensions.iv_att_bound(iv_data, cfg),
                  iv_inspect, iv_scale, ("iv", direction))

    return [
        Op("sweep", lambda: drci.cli_io.sweep(sweep_cfg, SWEEP_GAMMAS, SWEEP_DELTAS,
                                              earn_data),
           sweep_inspect, earn_scale),
        Op("monte_carlo", mc_call, mc_inspect, 1.0),
        Op("min_ks", lambda: drci.dro_solvers.minimal_achievable_ks(
            iv_data, IV["gamma"], m=IV["m"]), ks_inspect, 1.0),
        iv_op("lower"),
        iv_op("upper"),
    ]


def lp_routes(drci, seed: int, workdir: str) -> list[Op]:
    """TV bounds, one TV ATC bound and covariate-balance bounds in both
    forms, on ``LP_INSTANCES`` independent samples per pass."""
    sens = drci.dro_solvers.SensitivityConfig
    ops = []
    for i in range(LP_INSTANCES):
        tv, bal = inputs.lp_samples(seed, i)
        tv_data = drci.Dataset(y=tv["y"], t=tv["t"], x=tv["x"])
        bal_data = drci.Dataset(y=bal["y"], t=bal["t"], x=bal["x"])
        ops += _tv_ops(drci, i, tv, tv_data)
        for name, form in BALANCE_FORMS:
            for direction in ("lower", "upper"):
                cfg = sens(direction=direction, **BALANCE, **form)
                ops.append(Op(
                    f"{name}{i}_{direction}",
                    lambda d=bal_data, c=cfg: drci.dro_solvers.distributional_att_bound(d, c),
                    _balance_inspect(bal, form), checks.outcome_scale(bal["y"]),
                    (f"{name}{i}", direction)))
    return ops


def _tv_ops(drci, i: int, sample: dict, data) -> list[Op]:
    y, t = sample["y"], sample["t"]
    scale = checks.outcome_scale(y)
    y0, y1 = y[t == 0], y[t == 1]

    def tv_inspect(res):
        summary = _bound_summary(res.status, res.estimate, res.active_shift)
        w, problems = _weights(res.weights, np.flatnonzero(t == 0))
        problems += checks.simplex(w) + checks.tv_ball(w, LAMBDA_TV)
        problems += checks.estimate_matches(res.estimate, float(y1.mean()), w, y0, scale)
        return summary, problems

    def atc_inspect(res):
        # ATC reweights the treated arm: estimate = sum w y1 - mean(y0)
        summary = _bound_summary(res.status, res.estimate, res.active_shift)
        w, problems = _weights(res.weights, np.flatnonzero(t == 1))
        problems += checks.simplex(w) + checks.tv_ball(w, LAMBDA_TV)
        problems += checks.estimate_matches(-res.estimate, float(y0.mean()), w, y1, scale)
        return summary, problems

    atc_cfg = drci.dro_solvers.SensitivityConfig(lambda_tv=LAMBDA_TV, direction="lower")
    return [
        Op(f"tv{i}_{d}", lambda d=d: drci.dro_solvers.tv_att_bound(data, LAMBDA_TV, d),
           tv_inspect, scale, (f"tv{i}", d))
        for d in ("lower", "upper")
    ] + [Op(f"atc_tv{i}", lambda: drci.dro_solvers.atc_bound(data, "tv", atc_cfg),
            atc_inspect, scale)]


def _balance_inspect(sample: dict, form: dict):
    y, t, x = sample["y"], sample["t"], sample["x"]
    scale = checks.outcome_scale(y)

    def inspect(res):
        summary = _bound_summary(res.status, res.estimate, res.active_shift)
        if res.status != "optimal":
            return summary, []
        problems = _distributional(sample, res.estimate, res.active_shift, res.weights,
                                   BALANCE["gamma"], BALANCE["delta"], BALANCE["m"], scale)
        if "balance_epsilon" in form:
            w, _ = _weights(res.weights, np.flatnonzero(t == 0))
            problems += checks.balance_cap(w, x[t == 0], x[t == 1],
                                           form["balance_epsilon"])
        return summary, problems

    return inspect


WORKLOADS = {"xsec_large": xsec_large, "sensitivity_grid": sensitivity_grid,
             "lp_routes": lp_routes}


# ---------------------------------------------------------------------------
# measurement


def check_pass(results, golden: dict | None):
    """Inspect every output of one pass.

    Returns ``(failed op keys, problems, summaries by op key)``.

    A raised exception fails its op.  A failed check fails its op too and
    is also a wrong answer, reported in ``problems``.
    """
    failed, problems, summaries = set(), [], {}
    for op, out, err, _ in results:
        if err is not None:
            failed.add(op.key)
            print(f"op {op.key} raised {err}", file=sys.stderr)
            continue
        try:
            summary, found = op.inspect(out)
        except Exception as exc:  # an unreadable output is a wrong answer
            summary, found = {}, [f"output not checkable: {type(exc).__name__}: {exc}"]
        # an op that raised when the goldens were recorded has none: only
        # the invariants apply to it
        if golden is not None and op.key in golden:
            found += checks.golden(summary, golden[op.key], op.scale)
        summaries[op.key] = (op, summary)
        if found:
            failed.add(op.key)
            problems += [f"{op.key}: {p}" for p in found]
    pairs = {}
    for op, summary in summaries.values():
        if op.pair is not None and summary.get("status") == "optimal":
            pairs.setdefault(op.pair[0], {})[op.pair[1]] = (op, summary)
    for group, sides in pairs.items():
        if len(sides) == 2:
            (low_op, low), (up_op, up) = sides["lower"], sides["upper"]
            found = checks.ordered(low["estimate"], up["estimate"], up_op.scale, group)
            if found:
                failed.add(up_op.key)
                problems += found
    return failed, problems, {k: s for k, (_, s) in summaries.items()}


def run_pass(ops: list[Op], tracer=None):
    results = []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            out, err = (tracer.op(op.call) if tracer else op.call()), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((op, out, err, time.perf_counter() - t))
    return results, time.perf_counter() - start


def measure(drci, ops: list[Op], seconds: float, traced: bool, golden, spans_path):
    tracer = tracing.Tracer(drci) if traced else None
    latencies, walls, per_pass, kept = [], [], [], []
    attempted, failed, problems = 0, 0, []
    measured, index = 0.0, 0
    while measured < seconds or (traced and not (walls and per_pass)):
        use_tracer = traced and index % 2 == 1
        if use_tracer:
            tracer.reset()
            tracer.install()
        try:
            results, wall = run_pass(ops, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        measured += wall
        if use_tracer:
            per_pass.append(tracer.pass_metrics(wall))
            kept.append((index, tracer.spans))
        else:
            walls.append(wall)
        bad, found, _ = check_pass(results, golden)
        attempted += len(results)
        failed += len(bad)
        problems += found
        latencies += [lat for _, _, err, lat in results if err is None]
        index += 1
    record = {"attempted": attempted, "failed": failed, "problems": problems,
              "latencies": latencies, "walls": walls}
    if traced:
        record["per_layer"], count_problems = tracing.summarize(per_pass, walls)
        record["problems"] += count_problems
        if spans_path:
            tracing.write_spans(spans_path, kept)
    return record


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu": cpu, "numpy": np.__version__, "blas_threads": _blas_threads(),
            "python": platform.python_version()}


def _blas_threads():
    """Thread count OpenBLAS reports, from NumPy's bundled library."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _import_drci():
    sys.path.insert(0, SRC)
    import drci
    import drci.cli_io  # noqa: F401  (the submodules the ops call into)

    if os.path.dirname(os.path.realpath(drci.__file__)) != os.path.realpath(
            os.path.join(SRC, "drci")):
        raise SystemExit(f"drci imported from {drci.__file__}, not from {SRC}")
    return drci


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", help="scratch directory for inputs and reports")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    if args.workdir:
        return run(args, t0, args.workdir)
    parent = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as workdir:
        return run(args, t0, workdir)


def run(args, t0: float, workdir: str) -> int:
    drci = _import_drci()
    ops = WORKLOADS[args.workload](drci, args.seed, workdir)
    try:
        ops[0].call()  # warm-up op, untimed; its failure shows in the timed passes
    except Exception:
        pass
    record = {"setup_s": time.monotonic() - t0}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    if args.record_golden:
        return _record_golden(args.workload, ops)

    golden = None
    if args.seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
    record.update(measure(drci, ops, args.seconds, bool(args.trace), golden, args.spans))
    record["golden"] = golden is not None
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    print(json.dumps(record))
    return 0


def _record_golden(workload: str, ops: list[Op]) -> int:
    results, _ = run_pass(ops)
    _, problems, summaries = check_pass(results, None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    golden[workload] = summaries
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
