"""Acceptance suite.  One test per criterion; each prints a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  The desk-scale corpus is the isomorph-free exhaustive
enumeration of connected graphs with up to 6 vertices (via the published
graph atlas, class counts asserted), every terminal pair, both variants
(vertex only where the terminals are non-adjacent), and L in 1..5.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

import pytest

from lbcut import (Graph, Instance, UNKNOWN, Variant, approx_vertex_cut,
                   brute_force_csp, brute_force_cut, build_heuristic,
                   encode_edge_cut, encode_vertex_cut, hop_distance,
                   parse_instance, read_td, solve_exact_cut, solve_fpt,
                   solve_min_csp, verify_cut, width, write_instance, write_td)
from lbcut.io import generate
from lbcut.treedec import TreeDecomposition

from conftest import (atlas_graphs, constraint_graph, grid_graph, random_csp,
                      satisfies_all_hard, subdivide, violated_soft_count)

ORACLE_MAX = 6  # optimum on n <= 6 never exceeds the max degree (5)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


@dataclass
class Record:
    graph_id: int
    n: int
    s: int
    t: int
    L: int
    variant: Variant
    oracle_size: int
    fpt_size: int
    csp_cost: int
    dp_cost: Optional[int]
    dp_assignment_ok: bool
    approx: dict = field(default_factory=dict)  # root -> (size, lb, width)


@dataclass
class Sweep:
    records: list
    oracle_and_fpt_seconds: float


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    records = []
    timed = 0.0
    rng = random.Random(6)
    for graph_id, g in enumerate(atlas_graphs(6)):
        if g.n < 2:
            continue
        decomposition = build_heuristic(g)
        # the approximation meets the decomposition at two tree shapes:
        # its own root 0 and another node
        rerooted = TreeDecomposition(
            decomposition.bags, decomposition.tree_edges,
            root=rng.randrange(1, decomposition.n_nodes))
        for s in range(g.n):
            for t in range(s + 1, g.n):
                for L in (1, 2, 3, 4, 5):
                    for variant in (Variant.EDGE, Variant.VERTEX):
                        if variant is Variant.VERTEX and g.has_edge(s, t):
                            continue
                        inst = Instance(g, s, t, L, variant)

                        start = time.perf_counter()
                        oracle = brute_force_cut(inst, max_size=ORACLE_MAX)
                        assert oracle is not UNKNOWN
                        fpt_cut = solve_fpt(inst)
                        timed += time.perf_counter() - start

                        q = (encode_edge_cut if variant is Variant.EDGE
                             else encode_vertex_cut)(inst)
                        csp = brute_force_csp(q)
                        dp = solve_min_csp(q, decomposition)
                        dp_ok = (dp is not None
                                 and satisfies_all_hard(q, dp.assignment)
                                 and violated_soft_count(q, dp.assignment) == dp.cost)
                        rec = Record(graph_id, g.n, s, t, L, variant,
                                     oracle.size, fpt_cut.size, csp.cost,
                                     None if dp is None else dp.cost, dp_ok)
                        if variant is Variant.VERTEX:
                            for td in (decomposition, rerooted):
                                res = approx_vertex_cut(inst, td)
                                assert verify_cut(inst, res.cut).feasible
                                rec.approx[td.root] = (
                                    res.cut.size, res.lower_bound, width(td))
                        records.append(rec)
    return Sweep(records, timed)


def test_criterion_1_exact_solver_optimality(sweep):
    violations = [r for r in sweep.records if r.fpt_size != r.oracle_size]
    in_budget = sweep.oracle_and_fpt_seconds < 600.0
    ok = not violations and in_budget
    _report(1, "exact-solver optimality", ok)
    assert not violations, violations[:5]
    assert in_budget, f"{sweep.oracle_and_fpt_seconds:.1f}s over the 10 min budget"


def test_criterion_2_encoding_correctness(sweep):
    violations = [r for r in sweep.records if r.csp_cost != r.oracle_size]
    _report(2, "encoding matches cut oracle", not violations)
    assert not violations, violations[:5]


def test_criterion_3_dp_vs_enumeration(sweep):
    bad_corpus = [r for r in sweep.records
                  if r.dp_cost != r.csp_cost or not r.dp_assignment_ok]
    rng = random.Random(20240501)
    bad_random = []
    for i in range(300):
        q = random_csp(rng, max_vars=10, max_dom=4)
        td = build_heuristic(constraint_graph(q))
        got = solve_min_csp(q, td)
        want = brute_force_csp(q)
        if want is None or got is None:
            if (want is None) != (got is None):
                bad_random.append(i)
            continue
        if got.cost != want.cost or not satisfies_all_hard(q, got.assignment):
            bad_random.append(i)
    ok = not bad_corpus and not bad_random
    _report(3, "DP equals exhaustive enumeration", ok)
    assert not bad_corpus, bad_corpus[:5]
    assert not bad_random, bad_random[:5]


def test_criterion_4_approximation_ratio(sweep):
    violations = []
    for r in sweep.records:
        if r.variant is not Variant.VERTEX:
            continue
        for root, (size, lb, w) in r.approx.items():
            if size > w * r.oracle_size and r.oracle_size > 0:
                violations.append((r, root, "ratio"))
            if r.oracle_size == 0 and size != 0:
                violations.append((r, root, "nonzero on trivial"))
            if lb > r.oracle_size:
                violations.append((r, root, "lower bound too high"))
            if size > w * max(lb, 1):
                violations.append((r, root, "certificate ratio"))
    _report(4, "width-factor ratio and certificate", not violations)
    assert not violations, violations[:5]


def test_criterion_5_fallback_gap_fixture():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(((0, 1, 2), (0, 2, 3)), frozenset({(0, 1)}), root=0)
    inst = Instance(g, 0, 3, 3, Variant.VERTEX)
    res = approx_vertex_cut(inst, td)
    oracle = brute_force_cut(inst)
    kinds = [e.kind for e in res.trace]
    ok = (kinds == ["fallback"]
          and verify_cut(inst, res.cut).feasible
          and res.cut.size == 1 == oracle.size)
    _report(5, "fallback fires on the R-empty fixture", ok)
    assert kinds == ["fallback"], kinds
    assert res.cut.size == 1 and oracle.size == 1


def test_criterion_6_pruning_soundness():
    rng = random.Random(616)
    failures = []
    instances = []
    for i in range(100):  # planar: random grid subgraphs, n <= 20
        rows = rng.randint(2, 4)
        cols = rng.randint(2, 20 // rows)
        base = grid_graph(rows, cols)
        keep = [e for e in sorted(base.edges) if rng.random() < 0.85]
        g = Graph.from_edges(base.n, keep)
        instances.append((f"planar-{i}", g, 0, base.n - 1, rng))
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    for i in range(20):  # non-planar: K5 / K3,3 subdivisions
        base = k5 if i % 2 else k33
        g = subdivide(base, rng, max_extra=2)
        instances.append((f"nonplanar-{i}", g, 0, base.n - 1, rng))

    for name, g, s, t, r in instances:
        d = hop_distance(g, s, t)
        L = (d + r.randint(0, 2)) if d is not None else r.randint(1, 4)
        variant = (Variant.VERTEX if not g.has_edge(s, t) and r.random() < 0.5
                   else Variant.EDGE)
        inst = Instance(g, s, t, max(1, min(L, 8)), variant)
        # solve_fpt verifies the pruned solution on the original graph and
        # raises on failure; catching nothing here is the soundness check
        pruned = solve_fpt(inst)
        unpruned = solve_exact_cut(inst)
        if pruned.size != unpruned.size:
            failures.append((name, pruned.size, unpruned.size))
    _report(6, "pruning is sound and size-preserving", not failures)
    assert not failures, failures[:5]


def test_criterion_7_runtime_shape():
    per_column = {}
    for k in (5, 10, 20, 40):
        g = grid_graph(3, k)
        td = build_heuristic(g)
        assert width(td) <= 3
        inst = Instance(g, 0, 2 * k, 6, Variant.EDGE)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            solve_exact_cut(inst, td)
            best = min(best, time.perf_counter() - start)
        assert best < 30.0, f"k={k} took {best:.1f}s"
        per_column[k] = best / k
    spread = max(per_column.values()) / min(per_column.values())
    ok = spread <= 3.0
    _report(7, f"runtime linear in ladder length (spread {spread:.2f}x)", ok)
    assert ok, per_column


def test_criterion_8_io_round_trips():
    g = parse_instance(generate("partial-ktree", [12, 3, 0.8], seed=5))
    instance_text = write_instance(g, comments=["round trip"])
    ok_instance = (write_instance(parse_instance(instance_text),
                                  comments=["round trip"]) == instance_text)

    td = build_heuristic(g)
    td_text = write_td(td, g.n, comments=["round trip"])
    back, n = read_td(td_text)
    ok_td = (write_td(back, n, comments=["round trip"]) == td_text
             and back.bags == td.bags and back.tree_edges == td.tree_edges)
    _report(8, "instance and .td round trips are byte-exact", ok_instance and ok_td)
    assert ok_instance and ok_td
