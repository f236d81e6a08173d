"""Command-line front end: solve, verify, generate, bench.

External ids are 1-indexed (file formats and flags); everything internal is
0-indexed.  Exit codes: 0 feasible output, 2 no-cut-exists / infeasible /
unknown, 1 errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .approx import approx_auto, approx_vertex_cut
from .dp import TABLE_BUDGET
from .errors import LbcutError, NoVertexCut, ResourceExceeded, UsageError
from .fpt import solve_fpt
from .graph import (CutSet, Graph, Instance, Variant, min_edge_cut,
                    min_vertex_cut, verify_cut)
from .io import GENERATOR_KINDS, generate, load_instance
from .oracle import (DEFAULT_MAX_SIZE, UNKNOWN, brute_force_cut)
from .treedec import Strategy, read_td

ALGORITHMS = ("exact", "approx", "brute", "mincut-baseline", "auto")

CSV_COLUMNS = ("instance", "algo", "size", "lower_bound", "width_used",
               "elapsed_ms", "ratio_vs_oracle", "error")


def _report_text(report: dict) -> str:
    cut = report["cut"]
    if cut and isinstance(cut[0], list):
        shown = " ".join(f"{u}-{v}" for u, v in cut)
    else:
        shown = " ".join(str(v) for v in cut)
    lines = [
        f"algorithm: {report['algorithm']}",
        f"variant: {report['variant']}",
        f"L: {report['L']}",
        f"cut: {shown}",
        f"size: {report['size']}",
        f"feasible: {str(report['feasible']).lower()}",
    ]
    if report["lower_bound"] is not None:
        lines.append(f"lower_bound: {report['lower_bound']}")
    if report["width_used"] is not None:
        lines.append(f"width_used: {report['width_used']}")
    lines.append(f"elapsed_ms: {report['elapsed_ms']:.3f}")
    return "\n".join(lines)


def _external_members(cut: CutSet) -> list:
    if cut.variant is Variant.EDGE:
        return [[u + 1, v + 1] for u, v in cut.members]
    return [v + 1 for v in cut.members]


def _internal_vertex(external: int, g: Graph) -> int:
    if not 1 <= external <= g.n:
        raise UsageError(f"vertex {external} out of range 1..{g.n}")
    return external - 1


def _load_td(path: str, g: Graph):
    td, n = read_td(Path(path).read_text())
    if n != g.n:
        raise UsageError(
            f"decomposition declares {n} vertices but the graph has {g.n}")
    return td


def _run_algorithm(algo: str, inst: Instance, td, args):
    """Returns the cut, or UNKNOWN for a blown brute-force budget."""
    if algo == "exact":
        return solve_fpt(inst, td, strategy=Strategy(args.strategy),
                         table_budget=args.table_budget)
    if algo == "approx":
        if inst.variant is not Variant.EDGE:
            res = (approx_vertex_cut(inst, td) if td is not None
                   else approx_auto(inst, Strategy(args.strategy)))
            return res.cut
        raise UsageError("approx supports the vertex variant only")
    if algo == "brute":
        return brute_force_cut(inst, max_size=args.max_size)
    if algo == "mincut-baseline":
        if inst.variant is Variant.EDGE:
            return min_edge_cut(inst.graph, inst.s, inst.t)
        return min_vertex_cut(inst.graph, inst.s, inst.t)
    if algo == "auto":
        try:
            return _run_algorithm("exact", inst, td, args)
        except ResourceExceeded:
            if inst.variant is Variant.VERTEX:
                return _run_algorithm("approx", inst, td, args)
            raise
    raise UsageError(f"unknown algorithm {algo!r}")


def cmd_solve(args) -> int:
    g = load_instance(args.graph)
    variant = Variant(args.variant)
    inst = Instance(g, _internal_vertex(args.source, g),
                    _internal_vertex(args.sink, g), args.length, variant)
    td = _load_td(args.td, g) if args.td else None

    start = time.perf_counter()
    cut = _run_algorithm(args.algo, inst, td, args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if cut is UNKNOWN:
        print(f"no cut of size <= {args.max_size} found; status unknown",
              file=sys.stderr)
        return 2

    feasible = verify_cut(inst, cut).feasible  # independent re-check
    report = {
        "algorithm": cut.algorithm or args.algo,
        "variant": variant.value,
        "L": inst.L,
        "cut": _external_members(cut),
        "size": cut.size,
        "feasible": feasible,
        "lower_bound": cut.lower_bound,
        "width_used": cut.width_used,
        "elapsed_ms": elapsed_ms,
    }
    print(json.dumps(report) if args.json else _report_text(report))
    if not feasible:
        print("error: solver returned an infeasible cut", file=sys.stderr)
        return 1
    return 0


def _parse_cut(text: str, variant: Variant, g: Graph) -> CutSet:
    items = [part for part in text.split(",") if part.strip()]
    if variant is Variant.EDGE:
        members = []
        for item in items:
            pieces = item.strip().split("-")
            if len(pieces) != 2:
                raise UsageError(f"edge {item!r} must look like 'u-v'")
            u, v = (_internal_vertex(int(p), g) for p in pieces)
            members.append((u, v))
        return CutSet(Variant.EDGE, tuple(members))
    return CutSet(Variant.VERTEX,
                  tuple(_internal_vertex(int(item), g) for item in items))


def cmd_verify(args) -> int:
    g = load_instance(args.graph)
    variant = Variant(args.variant)
    inst = Instance(g, _internal_vertex(args.source, g),
                    _internal_vertex(args.sink, g), args.length, variant)
    cut = _parse_cut(args.cut, variant, g)
    result = verify_cut(inst, cut)
    if args.json:
        witness = ([v + 1 for v in result.witness]
                   if result.witness is not None else None)
        print(json.dumps({"feasible": result.feasible, "witness": witness}))
    elif result.feasible:
        print("feasible")
    else:
        print("infeasible")
        print("witness: " + " ".join(str(v + 1) for v in result.witness))
    return 0 if result.feasible else 2


def cmd_generate(args) -> int:
    text = generate(args.kind, args.params, seed=args.seed)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _bench_row(name: str, algo: str, inst: Instance, args,
               oracle_size: Optional[int]) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row["instance"] = name
    row["algo"] = algo
    start = time.perf_counter()
    try:
        cut = _run_algorithm(algo, inst, None, args)
    except LbcutError as exc:
        row["error"] = str(exc)
        row["elapsed_ms"] = f"{(time.perf_counter() - start) * 1000.0:.3f}"
        return row
    row["elapsed_ms"] = f"{(time.perf_counter() - start) * 1000.0:.3f}"
    if cut is UNKNOWN:
        row["error"] = f"unknown within max size {args.max_size}"
        return row
    if not verify_cut(inst, cut).feasible:
        row["error"] = "infeasible result"
        return row
    row["size"] = str(cut.size)
    if cut.lower_bound is not None:
        row["lower_bound"] = str(cut.lower_bound)
    if cut.width_used is not None:
        row["width_used"] = str(cut.width_used)
    if oracle_size is not None:
        if oracle_size > 0:
            row["ratio_vs_oracle"] = f"{cut.size / oracle_size:.4f}"
        elif cut.size == 0:
            row["ratio_vs_oracle"] = "1.0000"
    return row


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {a!r} in --algos")
    paths = sorted(p for p in Path(args.corpus).iterdir() if p.is_file())
    if not paths:
        raise UsageError(f"no instance files in {args.corpus}")
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for path in paths:
            try:
                g = load_instance(path)
                inst = Instance(g, _internal_vertex(args.source, g),
                                _internal_vertex(args.sink, g),
                                args.length, Variant(args.variant))
            except LbcutError as exc:
                for algo in algos:
                    row = {c: "" for c in CSV_COLUMNS}
                    row.update(instance=path.name, algo=algo, error=str(exc))
                    writer.writerow(row)
                continue
            oracle = brute_force_cut(inst, max_size=args.oracle_max_size)
            oracle_size = None if oracle is UNKNOWN else oracle.size
            for algo in algos:
                writer.writerow(
                    _bench_row(path.name, algo, inst, args, oracle_size))
    finally:
        if args.output:
            out.close()
    return 0


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="instance file path")
    p.add_argument("--source", required=True, type=int, help="source (1-indexed)")
    p.add_argument("--sink", required=True, type=int, help="sink (1-indexed)")
    p.add_argument("--length", required=True, type=int, help="hop bound L")
    p.add_argument("--variant", required=True, choices=["edge", "vertex"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbcut",
        description="Minimum length-bounded s-t cut solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--algo", default="exact", choices=ALGORITHMS)
    p_solve.add_argument("--td", help="PACE .td decomposition to use")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--strategy", default="min-fill",
                         choices=[s.value for s in Strategy])
    p_solve.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                         help="enumeration cap for --algo brute")
    p_solve.add_argument("--table-budget", type=int, default=TABLE_BUDGET,
                         help="DP table entry budget before ResourceExceeded")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a proposed cut")
    _add_instance_flags(p_verify)
    p_verify.add_argument("--cut", required=True,
                          help="comma-separated members: vertices '2,3' or edges '1-2,3-4'")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a generated instance")
    p_gen.add_argument("kind", choices=GENERATOR_KINDS)
    p_gen.add_argument("params", nargs="*",
                       help="grid: R C | cycle: N | diamond: K | theta: P Q | "
                            "partial-ktree: N K KEEP_PROB")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run algorithms over a corpus directory")
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--source", required=True, type=int)
    p_bench.add_argument("--sink", required=True, type=int)
    p_bench.add_argument("--length", required=True, type=int)
    p_bench.add_argument("--variant", required=True, choices=["edge", "vertex"])
    p_bench.add_argument("--algos", default="exact",
                         help="comma-separated subset of " + ",".join(ALGORITHMS))
    p_bench.add_argument("--output", "-o", help="CSV path (default stdout)")
    p_bench.add_argument("--oracle-max-size", type=int, default=DEFAULT_MAX_SIZE,
                         help="largest cut the oracle tries; 0 checks only "
                              "the empty cut")
    p_bench.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    p_bench.add_argument("--strategy", default="min-fill",
                         choices=[s.value for s in Strategy])
    p_bench.add_argument("--table-budget", type=int, default=TABLE_BUDGET)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoVertexCut as exc:
        print(f"no vertex cut exists: {exc}", file=sys.stderr)
        return 2
    except (LbcutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
