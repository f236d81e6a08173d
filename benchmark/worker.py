"""One benchmark process: set up a workload, solve it in passes, check it.

    python3 benchmark/worker.py --workload grid-exact --seed 1 --seconds 20 \
        --trace 0 --t0 <time.monotonic() of the launching process>

Prints one JSON object on its last stdout line.  ``--setup-only`` stops
after building the corpus and reports only the set-up time.  The launcher
is ``run.py``; this file is its own process so that every set-up sample
starts from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import lbcut  # noqa: E402  (path set just above)

OUT_DIR = BENCH_DIR / "out"

# On a shared host a neighbour on the same core can slow this process by
# 30-50% for minutes at a time, longer than a run, so no estimator inside a
# run filters it out.  A probe tracks that speed: a fixed integer loop timed
# in this thread's CPU time, which leaves out time spent descheduled and
# counts only how fast the thread runs while it runs.  The loop allocates no
# containers, so the program's garbage does not slow it.  Every time the
# benchmark reports is scaled by PROBE_REF_US / probe time: it reads as on
# the 2-vCPU Xeon VM the benchmark was built on, in a quiet phase (where the
# probe took 175-185 us).
PROBE_REF_US = 180.0


def probe_us() -> float:
    """The least of three timings of the probe loop, in microseconds."""
    best = math.inf
    for _ in range(3):
        start = time.thread_time_ns()
        x = 0
        for i in range(3000):
            x ^= i * 7
        best = min(best, time.thread_time_ns() - start)
    return best / 1000.0


def _solve(workload: str, inst) -> tuple[tuple, int, int]:
    """(cut members, certified lower bound, width used) of one solver call."""
    if workload == "approx-auto":
        res = lbcut.approx_auto(inst)
        return res.cut.members, res.lower_bound, res.width_used
    cut = lbcut.solve_fpt(inst)
    return cut.members, cut.lower_bound, 0


def _run_pass(workload: str, cases,
              answers) -> tuple[list[float], list[float], int]:
    """Solve every case once, each between two probes.

    Returns (ms per case scaled to the reference speed, the scale factor of
    each case, failed operations).
    """
    failed = 0
    solve_ms, scales = [], []
    before = probe_us()
    for i, case in enumerate(cases):
        t = time.perf_counter()
        try:
            answer = _solve(workload, case.inst)
        except lbcut.LbcutError as exc:
            answer = exc
            failed += 1
        ms = (time.perf_counter() - t) * 1000.0
        after = probe_us()
        scale = 2.0 * PROBE_REF_US / (before + after)
        solve_ms.append(ms * scale)
        scales.append(scale)
        before = after
        answers[i].append(answer)
    return solve_ms, scales, failed


def _check(workload: str, cases, answers) -> tuple[list[str], list[int], list[int]]:
    """Check every answer of every pass that did not fail; returns (errors,
    cut sizes and lower bounds summed per pass)."""
    import reference

    errors: list[str] = []
    passes = len(answers[0])
    cut_totals, lb_totals = [0] * passes, [0] * passes
    for i, case in enumerate(cases):
        optimum, _ = reference.ilp_optimum(case.inst)
        if case.fan_k is not None and optimum != case.fan_k:
            errors.append(f"{case.name}: reference ILP gives {optimum}, "
                          f"the fan structure {case.fan_k}")
        verdicts: dict = {}
        for p, answer in enumerate(answers[i]):
            if isinstance(answer, Exception):
                continue  # counted as failed, not as a wrong answer
            members, lower_bound, width_used = answer
            cut_totals[p] += len(members)
            lb_totals[p] += lower_bound
            if answer not in verdicts:
                if workload == "approx-auto":
                    verdicts[answer] = reference.check_approx(
                        case.inst, members, lower_bound, width_used, optimum)
                else:
                    verdicts[answer] = reference.check_exact(
                        case.inst, members, optimum)
            if verdicts[answer] is not None:
                errors.append(f"{case.name}: {verdicts[answer]}")
    return errors, cut_totals, lb_totals


def _layer_metrics(tracer, bounds: list[tuple[int, int]],
                   pass_scales: list[float], setup_stop: int,
                   setup_scale: float, memory_counters: dict) -> dict:
    """Per-layer metrics: self ms per pass, each pass scaled by its median
    probe factor, as the median over the timed passes; io from set-up,
    scaled by the set-up probe; counts from the last pass (every pass
    repeats them)."""
    from tracing import CALL_COUNTS, COUNTERS, SPAN_NAMES

    per_pass = [tracer.self_ms(a, b) for a, b in bounds]
    calls = tracer.calls(*bounds[-1])
    setup = tracer.self_ms(0, setup_stop)
    out = {}
    for name in SPAN_NAMES:
        value = (setup[name] * setup_scale if name.startswith("io.")
                 else statistics.median(p[name] * f for p, f
                                        in zip(per_pass, pass_scales)))
        out[f"{name}_ms"] = (value, "ms")
    for name in CALL_COUNTS:
        out[f"{name}_calls"] = (calls[name], "count")
    for name in COUNTERS:
        if name == "dp.peak_alloc_mb":
            out[name] = (memory_counters.get(name, 0.0), "MB")
        else:
            out[name] = (tracer.counters.get(name, 0), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import corpus
    cases = corpus.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    setup_scale = PROBE_REF_US / probe_us()
    setup_s *= setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_stop = len(tracer.spans) if tracer else 0
    answers: list[list] = [[] for _ in cases]
    passes_ms: list[list[float]] = []
    pass_scales: list[float] = []
    failed = 0
    memory_counters: dict = {}
    bounds = []
    start = time.perf_counter()
    # The first pass warms up: it is 13-20% slower on grid-exact while
    # numpy and the allocator settle, so its timings are not reported.
    failed += _run_pass(args.workload, cases, answers)[2]
    while True:
        if tracer:
            tracer.counters = {}
            first = len(tracer.spans)
        solve_ms, scales, f = _run_pass(args.workload, cases, answers)
        failed += f
        passes_ms.append(solve_ms)
        pass_scales.append(statistics.median(scales))
        if tracer:
            bounds.append((first, len(tracer.spans)))
        # Start another whole pass only if it should end within the run time.
        done = len(passes_ms) + 1
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        # One more pass, untimed, with tracemalloc around the DP gives
        # dp.peak_alloc_mb.  It runs last: on ktree-exact the passes after
        # such a pass ran 5-7% faster, for a reason not found, which would
        # set the traced timings apart from the untraced ones.
        pass_counters, tracer.counters = tracer.counters, {}
        tracer.measure_memory = True
        failed += _run_pass(args.workload, cases, answers)[2]
        tracer.measure_memory = False
        memory_counters, tracer.counters = tracer.counters, pass_counters
        tracer.restore()
    errors, cut_totals, lb_totals = _check(args.workload, cases, answers)
    attempted = len(cases) * len(answers[0])
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "failures": sorted({f"{case.name}: {type(a).__name__}: {a}"
                            for case, row in zip(cases, answers)
                            for a in row if isinstance(a, Exception)})[:20],
        "passes_ms": passes_ms,
        "probe_us": [PROBE_REF_US / f for f in pass_scales],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cut_totals": cut_totals,
        "lb_totals": lb_totals,
    }
    if tracer:
        result["layers"] = _layer_metrics(tracer, bounds, pass_scales,
                                          setup_stop, setup_scale,
                                          memory_counters)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
