import random
import time

import pytest

from lbcut import (Graph, Instance, InvalidDecomposition, NoVertexCut,
                   Strategy, TreeDecomposition, UNKNOWN, Variant,
                   approx_auto, approx_vertex_cut, brute_force_cut,
                   build_heuristic, enumerate_short_paths, verify_cut, width)

from conftest import atlas_graphs, grid_graph

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_path_cut_of_size_one():
    inst = Instance(PATH4, 0, 3, 3, Variant.VERTEX)
    for strategy in Strategy:
        res = approx_auto(inst, strategy)
        assert res.cut.size == 1
        assert res.lower_bound == 1


def test_diamond_prune_branch():
    td = TreeDecomposition(((0, 1, 3), (0, 2, 3)), frozenset({(0, 1)}))
    inst = Instance(DIAMOND, 0, 3, 2, Variant.VERTEX)
    res = approx_vertex_cut(inst, td)
    assert res.cut.members == (1, 2)
    assert res.lower_bound == 2
    kinds = [e.kind for e in res.trace]
    assert kinds.count("prune") >= 1
    assert set(kinds) <= {"prune", "leaf-mincut"}
    # width 2 decomposition, optimum 2: the ratio bound holds with room
    assert res.cut.size <= res.width_used * res.lower_bound
    assert res.cut.width_used == width(td)
    assert res.lower_bound == res.cut.lower_bound


def test_fallback_fixture_reaches_gap_case():
    # s-x-y-t path; root bag {s,x,y}, child bag {s,y,t}.  Both bags holding
    # s and t fail the short-path test on their subtree subgraph, so the
    # node-selection set is empty and the fallback must fire.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(((0, 1, 2), (0, 2, 3)), frozenset({(0, 1)}), root=0)
    inst = Instance(g, 0, 3, 3, Variant.VERTEX)
    res = approx_vertex_cut(inst, td)
    assert [e.kind for e in res.trace] == ["fallback"]
    assert res.cut.members == (2,)
    assert res.cut.size == brute_force_cut(inst).size == 1
    assert res.lower_bound == 1


def test_trivial_when_terminals_far():
    inst = Instance(PATH4, 0, 3, 2, Variant.VERTEX)
    res = approx_auto(inst)
    assert res.cut.members == () and res.lower_bound == 0


def test_grid_ratio():
    g = grid_graph(4, 4)
    inst = Instance(g, 0, 15, 6, Variant.VERTEX)
    opt = brute_force_cut(inst).size
    res = approx_auto(inst)
    assert res.cut.size <= res.width_used * opt
    assert res.lower_bound <= opt


def test_adjacent_terminals_raise():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(NoVertexCut):
        approx_auto(Instance(g, 0, 1, 1, Variant.VERTEX))


def test_edge_variant_rejected():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    with pytest.raises(ValueError):
        approx_auto(inst)


def test_invalid_decomposition_rejected():
    inst = Instance(PATH4, 0, 3, 3, Variant.VERTEX)
    with pytest.raises(InvalidDecomposition):
        approx_vertex_cut(inst, TreeDecomposition(((0, 1),), frozenset()))
    # bag mentions a vertex the graph does not have
    with pytest.raises(InvalidDecomposition):
        approx_vertex_cut(
            Instance(PATH4.without_vertices([1]), 0, 3, 3, Variant.VERTEX),
            TreeDecomposition(((0, 1, 2, 3),), frozenset()))


def test_deterministic_cut_and_trace():
    g = grid_graph(3, 4)
    inst = Instance(g, 0, 11, 5, Variant.VERTEX)
    a = approx_auto(inst)
    b = approx_auto(inst)
    assert a.cut == b.cut and a.trace == b.trace


def test_ratio_and_certificate_on_small_corpus():
    # every connected graph up to 5 vertices, all non-adjacent terminal
    # pairs, L in 1..4, both construction heuristics
    for g in atlas_graphs(5):
        if g.n < 3:
            continue
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if g.has_edge(s, t):
                    continue
                for L in (1, 2, 3, 4):
                    inst = Instance(g, s, t, L, Variant.VERTEX)
                    opt_cut = brute_force_cut(inst)
                    assert opt_cut is not UNKNOWN
                    opt = opt_cut.size
                    for strategy in Strategy:
                        td = build_heuristic(g, strategy)
                        res = approx_vertex_cut(inst, td)
                        w = width(td)
                        assert verify_cut(inst, res.cut).feasible
                        assert res.lower_bound <= opt
                        assert res.cut.size <= w * opt
                        assert res.cut.size <= w * max(res.lower_bound, 1)
                        if res.lower_bound == 0:
                            assert res.cut.size == 0


def test_prune_events_destroy_a_short_path_disjointly():
    # For every prune event: the subtree subgraph it fired on has at least
    # one s-t path within the bound, and all such paths run through the
    # removed vertices.  This is the fact the lower-bound increment uses.
    rng = random.Random(71)
    checked = 0
    for g in atlas_graphs(6):
        if g.n < 4:
            continue
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if g.has_edge(s, t) or rng.random() < 0.6:
                    continue
                L = rng.randint(2, 4)
                inst = Instance(g, s, t, L, Variant.VERTEX)
                res = approx_auto(inst)
                for ev in res.trace:
                    if ev.kind != "prune":
                        continue
                    # subtree_vertices are live vertices, so this is the
                    # subtree subgraph the step saw
                    sub = inst.graph.induced(ev.subtree_vertices)
                    paths = enumerate_short_paths(sub, s, t, L)
                    assert paths, "prune fired on a subtree without a short path"
                    for p in paths:
                        assert set(p[1:-1]) & set(ev.removed)
                    checked += 1
    assert checked > 50


def test_long_fan_runs_without_recursion():
    # s = 0 and t = 1 adjacent to every vertex of the path 2..k+1: with
    # L = 2 the optimum is the whole path.  The approximation takes k - 1
    # steps (the first deletes two path vertices), far more than the
    # default recursion limit.
    k = 1500
    path = list(range(2, k + 2))
    edges = [(0, p) for p in path] + [(1, p) for p in path]
    edges += list(zip(path, path[1:]))
    inst = Instance(Graph.from_edges(k + 2, edges), 0, 1, 2, Variant.VERTEX)
    start = time.perf_counter()
    res = approx_auto(inst, Strategy.MIN_DEGREE)
    elapsed = time.perf_counter() - start
    assert res.cut.members == tuple(path)
    assert res.lower_bound == k - 1
    assert elapsed < 30.0, f"k={k} took {elapsed:.1f}s"
