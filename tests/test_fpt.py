import random

import pytest

from lbcut import (Graph, Instance, NoVertexCut, UNKNOWN, Variant,
                   bfs_distances, brute_force_cut, build_heuristic,
                   hop_distance, prune_to_relevant, solve_exact_cut,
                   solve_fpt)

from conftest import grid_graph, subdivide

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_prune_drops_pendant_off_short_paths():
    # path 0-1-2-3 with pendant 4 hanging off vertex 1
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    pr = prune_to_relevant(Instance(g, 0, 3, 3, Variant.EDGE))
    assert pr.kept == (0, 1, 2, 3)
    assert pr.subgraph.m == 3


def test_prune_keeps_everything_for_large_L():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    pr = prune_to_relevant(Instance(g, 0, 3, 10, Variant.EDGE))
    assert pr.kept == (0, 1, 2, 3, 4)
    assert pr.subgraph.edges == g.edges


def test_short_circuit_when_terminals_far():
    inst = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    cut = solve_fpt(inst)
    assert cut.members == () and cut.width_used is None
    assert prune_to_relevant(inst).kept == ()
    disconnected = Instance(Graph.from_edges(2, []), 0, 1, 5, Variant.EDGE)
    assert solve_fpt(disconnected).members == ()


def test_fpt_grid_matches_oracle():
    g = grid_graph(4, 4)
    inst = Instance(g, 0, 15, 6, Variant.EDGE)
    oracle = brute_force_cut(inst)
    cut = solve_fpt(inst)
    assert cut.size == oracle.size == 2


def test_fpt_star_vertex_cut():
    # star: center 0, leaves 1..5; terminals are two leaves
    g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    inst = Instance(g, 1, 2, 2, Variant.VERTEX)
    cut = solve_fpt(inst)
    assert cut.members == (0,)
    assert brute_force_cut(inst).size == 1


def test_fpt_rejects_adjacent_terminals_for_vertex_variant():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(NoVertexCut):
        solve_fpt(Instance(g, 0, 1, 1, Variant.VERTEX))


def _random_grid_subgraph(rng: random.Random, max_n=20):
    rows = rng.randint(2, 4)
    cols = rng.randint(2, max_n // rows)
    g = grid_graph(rows, cols)
    keep = [e for e in sorted(g.edges) if rng.random() < 0.85]
    return Graph.from_edges(g.n, keep), 0, g.n - 1


def _instance_with_reachable_bound(rng, g, s, t):
    d = hop_distance(g, s, t)
    if d is None:
        return Instance(g, s, t, rng.randint(1, 4), Variant.EDGE)
    L = min(d + rng.randint(0, 2), 7)
    variant = Variant.VERTEX if (rng.random() < 0.5
                                 and not g.has_edge(s, t)) else Variant.EDGE
    return Instance(g, s, t, max(L, 1), variant)


def test_prune_optimality_on_random_planar():
    rng = random.Random(2024)
    for trial in range(100):
        g, s, t = _random_grid_subgraph(rng, max_n=14)
        inst = _instance_with_reachable_bound(rng, g, s, t)
        cut = solve_fpt(inst)  # re-verified on the original graph internally
        oracle = brute_force_cut(inst, max_size=6)
        if oracle is not UNKNOWN:
            assert cut.size == oracle.size, (trial, inst.L, inst.variant)


def test_pruned_radius_claim_on_planar_instances():
    rng = random.Random(88)
    for _ in range(40):
        g, s, t = _random_grid_subgraph(rng)
        d = hop_distance(g, s, t)
        if d is None:
            continue
        L = d + rng.randint(0, 2)
        pr = prune_to_relevant(Instance(g, s, t, L, Variant.EDGE))
        sub_dist = bfs_distances(pr.subgraph, pr.to_sub[s])
        for v in range(pr.subgraph.n):
            assert sub_dist[v] is not None and sub_dist[v] <= L


def test_pruned_equals_unpruned_exact():
    rng = random.Random(4242)
    for _ in range(30):
        g, s, t = _random_grid_subgraph(rng, max_n=16)
        inst = _instance_with_reachable_bound(rng, g, s, t)
        if inst.variant is Variant.VERTEX and g.has_edge(s, t):
            continue
        pruned = solve_fpt(inst)
        unpruned = solve_exact_cut(inst)
        assert pruned.size == unpruned.size


def test_pipeline_is_graph_agnostic_on_nonplanar_inputs():
    # K5 and K3,3 subdivisions are non-planar; the pipeline has no
    # planarity-specific code path and must still match the oracle.
    rng = random.Random(13)
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    for base in (k5, k33):
        for _ in range(10):
            g = subdivide(base, rng, max_extra=1)
            s, t = 0, base.n - 1
            d = hop_distance(g, s, t)
            L = d + rng.randint(0, 1)
            for variant in (Variant.EDGE, Variant.VERTEX):
                if variant is Variant.VERTEX and g.has_edge(s, t):
                    continue
                inst = Instance(g, s, t, L, variant)
                oracle = brute_force_cut(inst, max_size=6)
                if oracle is UNKNOWN:
                    continue
                assert solve_fpt(inst).size == oracle.size


def test_supplied_decomposition_is_pruned_and_used():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    td = build_heuristic(g)
    inst = Instance(g, 0, 3, 3, Variant.EDGE)
    cut = solve_fpt(inst, td)
    assert cut.size == 1
    assert prune_to_relevant(inst).kept == (0, 1, 2, 3)
    assert cut.width_used == 1
