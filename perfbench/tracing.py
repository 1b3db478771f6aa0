"""Per-layer tracing from outside the program.

The tracer swaps wrappers in at the module attributes that drci's own code
looks up at call time (``drci.dro_solvers.solve_lp``,
``drci.cli_io.load_csv``, ``drci.cli_io.Report.to_json`` and so on), so no
file under ``src/`` changes.  Each wrapper records a span (name, start, end,
parent, op id) in memory.  Exact work counts (band cells, tableau cells,
CSV rows and bytes) are computed from the call's own arguments and results,
inside a ``trace.count`` span so that their cost is charged to no layer.

A span's layer is the first component of its name.  A layer's self time is
the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np

OP = "bench.op"
COUNT = "trace.count"
DISTRIBUTIONAL = "dro_solvers.distributional"


def _band_cells(tracer, args, kwargs, result):
    """(2m+1)(K+1) for one distributional bound: K distinct control
    outcomes, one row per grid shift (a single row on a degenerate grid)."""
    data, config = args[0], args[1]
    k = np.unique(data.y[data.t == 0]).size
    rows = 1 if data.y.min() == data.y.max() else 2 * config.m + 1
    tracer.counts["band_cells"] += rows * (k + 1)


def _tableau_cells(tracer, args, kwargs, result):
    """Rows x columns of the phase-1 tableau the dense simplex builds:
    structural columns (free variables split in two), one slack per
    inequality row and one artificial per row."""
    p = args[0]
    rows = p.a_ub.shape[0] + p.a_eq.shape[0]
    free = int(np.sum(~np.isfinite(p.lower) & ~np.isfinite(p.upper)))
    cols = p.c.size + free + p.a_ub.shape[0] + rows
    tracer.counts["tableau_cells"] += rows * cols
    tracer.counts["lp_optimal"] += result.status == "optimal"


def _csv_rows(tracer, args, kwargs, result):
    tracer.counts["csv_rows"] += result.n
    tracer.counts["csv_bytes"] += os.path.getsize(args[0])


def _report_bytes(tracer, args, kwargs, result):
    tracer.counts["report_bytes"] += len(result.encode("utf-8"))


def _sweep_cells(tracer, args, kwargs, result):
    tracer.counts["sweep_cells"] += len(args[1]) * len(args[2])


def targets(drci) -> list:
    """``(owner, attribute, span name, counter)`` for every wrapped lookup."""
    cli, dro, dist = drci.cli_io, drci.dro_solvers, drci.distributions
    ext, syn = drci.extensions, drci.synthetic
    return [
        (cli, "main", "cli_io.main", None),
        (cli, "build_config", "cli_io.build_config", None),
        (cli, "run", "cli_io.run", None),
        (cli, "load_csv", "cli_io.load_csv", _csv_rows),
        (cli, "sweep", "cli_io.sweep", _sweep_cells),
        (cli.Report, "to_json", "cli_io.report", _report_bytes),
        (cli, "distributional_att_bound", DISTRIBUTIONAL, _band_cells),
        (dro, "distributional_att_bound", DISTRIBUTIONAL, _band_cells),
        (syn, "distributional_att_bound", DISTRIBUTIONAL, _band_cells),
        (ext, "_distributional_core", DISTRIBUTIONAL, _band_cells),
        (dro, "tv_att_bound", "dro_solvers.tv", None),
        (dro, "atc_bound", "dro_solvers.atc", None),
        (dro, "conditional_se", "dro_solvers.conditional_se", None),
        (ext, "conditional_se", "dro_solvers.conditional_se", None),
        (dro, "minimal_achievable_ks", "dro_solvers.minimal_achievable_ks", None),
        (ext, "_shift_solve", "dro_solvers.shift_solve", None),
        (dro, "solve_lp", "lp_core.solve_lp", _tableau_cells),
        (dro, "ecdf", "distributions.ecdf", None),
        (ext, "ecdf", "distributions.ecdf", None),
        (dist, "ecdf", "distributions.ecdf", None),
        (dro, "shift_grid", "distributions.shift_grid", None),
        (ext, "shift_grid", "distributions.shift_grid", None),
        (ext, "cic_target_cdf", "distributions.cic_target_cdf", None),
        (cli, "did_att_bound", "extensions.did", None),
        (cli, "cic_att_bound", "extensions.cic", None),
        (ext, "iv_att_bound", "extensions.iv", None),
        (syn, "run_monte_carlo", "synthetic.run_monte_carlo", None),
        (syn, "generate_scenario", "synthetic.generate_scenario", None),
    ]


class Tracer:
    """Span recorder for one traced pass; ``install`` swaps the wrappers in
    and ``uninstall`` puts the originals back."""

    def __init__(self, drci):
        self._targets = targets(drci)
        self._saved: list = []
        self.spans: list[list] = []  # [name, op id, parent, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], defaultdict(float), []

    def install(self) -> None:
        for owner, attr, name, counter in self._targets:
            # a lookup that a later refactor removed leaves its layer at zero
            # rather than stopping the run
            if not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, self.op_id, parent, time.perf_counter(), 0.0]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def op(self, fn):
        """Run one op under a root span with a fresh op id."""
        self.op_id += 1
        rec = self._open(OP)
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                count = self._open(COUNT)
                try:
                    counter(self, args, kwargs, result)
                finally:
                    self._close(count)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def pass_metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced pass."""
        spans = self.spans
        excl = [rec[4] - rec[3] for rec in spans]
        for rec in spans:
            if rec[2] >= 0:
                excl[rec[2]] -= rec[4] - rec[3]
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        # parents precede their children, so one forward sweep propagates
        # "inside a distributional bound" and "inside a sweep" downwards
        in_dist, in_sweep = [], []
        dist_self = 0.0
        dist_in_sweep = 0
        for i, (name, _, parent, start, end) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += excl[i]
            in_dist.append(name == DISTRIBUTIONAL or (parent >= 0 and in_dist[parent]))
            in_sweep.append(name == "cli_io.sweep" or (parent >= 0 and in_sweep[parent]))
            if in_dist[i] and layer == "dro_solvers":
                dist_self += excl[i]
            if name == DISTRIBUTIONAL and in_sweep[i]:
                dist_in_sweep += 1
        c = self.counts
        lp_calls = calls["lp_core.solve_lp"]
        return {
            "dro_solvers.distributional.calls": calls[DISTRIBUTIONAL],
            "dro_solvers.distributional.self_s": dist_self,
            "dro_solvers.band_cells": int(c["band_cells"]),
            "dro_solvers.ns_per_band_cell":
                dist_self * 1e9 / c["band_cells"] if c["band_cells"] else 0.0,
            "dro_solvers.conditional_se.s": total["dro_solvers.conditional_se"],
            "dro_solvers.minimal_achievable_ks.s":
                total["dro_solvers.minimal_achievable_ks"],
            "dro_solvers.self_s": layer_self["dro_solvers"],
            "cli_io.load_csv.s": total["cli_io.load_csv"],
            "cli_io.load_csv.rows": int(c["csv_rows"]),
            "cli_io.load_csv.bytes": int(c["csv_bytes"]),
            "cli_io.load_csv.rows_per_s":
                c["csv_rows"] / total["cli_io.load_csv"] if c["csv_rows"] else 0.0,
            "cli_io.report.s": total["cli_io.report"],
            "cli_io.report.bytes": int(c["report_bytes"]),
            "cli_io.self_s": layer_self["cli_io"],
            "cli_io.sweep.solves_per_cell":
                dist_in_sweep / c["sweep_cells"] if c["sweep_cells"] else 0.0,
            "distributions.ecdf.calls": calls["distributions.ecdf"],
            "distributions.ecdf.s": total["distributions.ecdf"],
            "distributions.shift_grid.s": total["distributions.shift_grid"],
            "distributions.cic_target_cdf.s": total["distributions.cic_target_cdf"],
            "distributions.self_s": layer_self["distributions"],
            "extensions.self_s": layer_self["extensions"],
            "synthetic.generate_scenario.s": total["synthetic.generate_scenario"],
            "synthetic.self_s": layer_self["synthetic"],
            "lp_core.solve_lp.calls": lp_calls,
            "lp_core.solve_lp.s": total["lp_core.solve_lp"],
            "lp_core.optimal_ratio": c["lp_optimal"] / lp_calls if lp_calls else 0.0,
            "lp_core.tableau_cells": int(c["tableau_cells"]),
            "trace.unattributed_s": layer_self["bench"],
            "trace.wall_s": wall,
        }


def write_spans(path: str, passes: list) -> None:
    """Write ``(pass index, spans)`` pairs as tab-separated
    ``pass name op parent start end`` lines, span ids being line order
    within a pass."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tname\top\tparent\tstart\tend\n")
        for index, spans in passes:
            fh.writelines(f"{index}\t{n}\t{o}\t{p}\t{s:.9f}\t{e:.9f}\n"
                          for n, o, p, s, e in spans)


# work counts that must repeat exactly from pass to pass and run to run
EXACT = (
    "dro_solvers.distributional.calls",
    "dro_solvers.band_cells",
    "cli_io.load_csv.rows",
    "cli_io.load_csv.bytes",
    "cli_io.sweep.solves_per_cell",
    "distributions.ecdf.calls",
    "lp_core.solve_lp.calls",
    "lp_core.optimal_ratio",
    "lp_core.tableau_cells",
)


def summarize(per_pass: list[dict], untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Median of each metric over the traced passes; exact counts must agree
    across passes.  ``trace.overhead_s`` compares median pass walls."""
    problems = []
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if key in EXACT:
            if len(set(values)) != 1:
                problems.append(f"work count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_s"] = out.pop("trace.wall_s") - statistics.median(untraced_walls)
    return out, problems
