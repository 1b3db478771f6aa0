"""drci benchmark: one seeded workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload xsec_large --seed 0 --seconds 20 --trace 0

Run from the root of a drci checkout; the program is imported from
``src/``.  Each workload runs in its own process (``workload.py``), plus
``SETUP_PROBES`` processes that only set up, so that ``setup_s`` is a
median.  With ``--trace 0`` the last line of output holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones; metric names and units come
from ``BENCHMARK.json``.  Work files go to ``.perfbench_work/`` in the
checkout; the traced run also leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150


def tail_latency(sorted_lat: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops above it: the value of the
    (n-10)-th smallest op, and the share of ops at or below it.  With ten
    ops or fewer this is the fastest op."""
    i = max(len(sorted_lat) - 11, 0)
    return sorted_lat[i], 100.0 * (i + 1) / len(sorted_lat)


def child(args, setup_only: bool, spans: str | None = None) -> dict:
    """Run workload.py once in a fresh scratch directory; returns its record."""
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict]:
    probes = [child(args, setup_only=True) for _ in range(SETUP_PROBES)]
    rec = child(args, setup_only=False)
    lat = sorted(rec["latencies"])
    tail, pct = tail_latency(lat)
    print(f"# ops: attempted={rec['attempted']} failed={rec['failed']} timed={len(lat)} "
          f"passes={len(rec['walls'])}; op_tail_ms is p{pct:.1f} of n={len(lat)}")
    values = {
        "setup_s": statistics.median([p["setup_s"] for p in probes] + [rec["setup_s"]]),
        "wall_s": statistics.median(rec["walls"]),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return rec, values


def main() -> int:
    parser = argparse.ArgumentParser(description="drci benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("xsec_large", "sensitivity_grid", "lp_routes"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "drci", "__init__.py")):
        print(f"error: no drci sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(WORK, exist_ok=True)

    print(f"# drci benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        spans = os.path.join(WORK, f"spans_{args.workload}_seed{args.seed}.tsv")
        rec = child(args, setup_only=False, spans=spans)
        values = rec["per_layer"]
        print(f"# ops: attempted={rec['attempted']} failed={rec['failed']}; "
              f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        rec, values = end_to_end(args)
    env = rec["env"]
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# golden check: {'active' if rec['golden'] else 'inactive (not the default seed)'}")
    for problem in rec["problems"][:20]:
        print(f"# wrong: {problem}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        # printed, not bounded: 0 or seed-dependent, never steady (README.md)
        print(f"failed_frac = {rec['failed'] / rec['attempted']:.6g} ratio")
    print(json.dumps({"correct": not rec["problems"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
