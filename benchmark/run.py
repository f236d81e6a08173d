"""Benchmark of the lbcut solvers; prints one JSON result as its last line.

    python3 benchmark/run.py --workload grid-exact --seed 1 --seconds 40 --trace 0

Run from the repository root (``src/lbcut`` must be there).  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  Workloads and metrics are
described in ``benchmark/README.md``.

Every measuring process is a ``worker.py`` child started one at a time, so
only one process works at any moment.  An untraced run splits its seconds
between MEASURE_PROCESSES solving processes and pools their passes, so that
no one process's memory layout sets the figures.  Set-up time is the median
over SETUP_SAMPLES fresh processes, the solving ones among them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid-exact", "ktree-exact", "approx-auto")
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_ms_p50": "ms",
    "peak_rss_mb": "MB", "cut_size_total": "count",
    "lower_bound_total": "count",
}
SETUP_SAMPLES = 5
MEASURE_PROCESSES = 2
CHILD_TIMEOUT_S = 150

# One thread per process, and a fixed string-hash seed so that every run
# lays out its dicts and sets the same way.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args, seconds: float, *extra: str) -> dict:
    """Run one worker process to its end; its last stdout line is JSON."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lbcut" / "__init__.py").is_file():
        print(f"error: no lbcut package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        parts = [_worker(args, args.seconds)]
        setups = [parts[0]["setup_s"]]
    else:
        setups = [_worker(args, args.seconds, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - MEASURE_PROCESSES)]
        parts = [_worker(args, args.seconds / MEASURE_PROCESSES)
                 for _ in range(MEASURE_PROCESSES)]
        setups += [part["setup_s"] for part in parts]
    passes_ms = [ms for part in parts for ms in part["passes_ms"]]
    # Each case's median scaled solve over the pooled passes.  Scaling takes
    # out slow phases of the host, so the median, unlike the minimum, does
    # not favour the solves whose probes happened to run slowly.
    case_ms = [statistics.median(ms) for ms in zip(*passes_ms)]
    summary = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(case_ms) / 1000.0,
        "solve_ms_p50": statistics.median(case_ms),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "cut_size_total": statistics.median(
            x for part in parts for x in part["cut_totals"]),
        "lower_bound_total": statistics.median(
            x for part in parts for x in part["lb_totals"]),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in parts[0]["layers"].items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for part in parts:
        for line in part["errors"] + part["failures"]:
            print(line, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"wall_s {summary['wall_s']:.4f}, scaled pass seconds "
          + " ".join(f"{sum(ms) / 1000.0:.3f}" for ms in passes_ms)
          + ", median probe us per pass "
          + " ".join(f"{x:.0f}" for part in parts for x in part["probe_us"]),
          file=sys.stderr)
    print(json.dumps({
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
