import random
import time
from itertools import combinations

import pytest

import lbcut.dp
import lbcut.fpt
import lbcut.graph
import lbcut.treedec
from lbcut import (Graph, Instance, InvalidDecomposition, TreeDecomposition,
                   UNKNOWN, Variant, bfs_distances, brute_force_cut, generate,
                   hop_distance, parse_instance, prune_to_relevant,
                   solve_exact_cut, solve_fpt)

from conftest import atlas_graphs, grid_graph, grid_with_holes, subdivide

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_prune_drops_pendant_off_short_paths():
    # path 0-1-2-3 with pendant 4 hanging off vertex 1
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    pr = prune_to_relevant(Instance(g, 0, 3, 3, Variant.EDGE))
    assert pr.kept == (0, 1, 2, 3)
    assert g.induced(pr.kept).m == 3


def test_prune_keeps_everything_for_large_L():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    pr = prune_to_relevant(Instance(g, 0, 3, 10, Variant.EDGE))
    assert pr.kept == (0, 1, 2, 3, 4)
    assert g.induced(pr.kept).edges == g.edges


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
        sub_dist = bfs_distances(g.induced(pr.kept), s)
        for v in pr.kept:
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
    # The 6-cycle 0-1-2-3-6-5 with a pendant 4 off vertex 1, which the
    # prune drops.  One bag of all 7 vertices (the heuristic's width is
    # 2) is restricted to the 6 kept ones, so the DP ran on width 5.
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (5, 6),
                             (6, 3)])
    td = TreeDecomposition((tuple(range(7)),), frozenset())
    inst = Instance(g, 0, 3, 3, Variant.EDGE)
    cut = solve_fpt(inst, td)
    assert cut.size == 2
    assert prune_to_relevant(inst).kept == (0, 1, 2, 3, 5, 6)
    assert cut.width_used == 5


def test_supplied_decomposition_must_decompose_the_instance_graph():
    # The 6-cycle 0..5 with isolated vertex 6, s = 0 and t = 3.  Each bad
    # decomposition fails treedec.validate on the instance graph, and both
    # solvers raise its message whatever L asks for: no short path (L = 2),
    # the DP (L = 3) or a max-flow (L = 10).  The prune keeps no isolated
    # vertex, so only the check on the instance graph finds vertex 6.
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)])
    tree = frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    good = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (6,))
    bad = {
        "bag vertex 9 at node 0 is not a vertex of the graph":
            ((0, 1, 2, 9),) + good[1:],
        "vertex 6 appears in no bag": good[:4] + ((5,),),
        "edge (0,5) is covered by no bag":
            good[:3] + ((4, 5), (6,)),
    }
    for variant in Variant:
        for L in (2, 3, 10):
            inst = Instance(g, 0, 3, L, variant)
            for solve in (solve_fpt, solve_exact_cut):
                want = solve(inst).size
                assert solve(inst, TreeDecomposition(good, tree)).size == want
                for message, bags in bad.items():
                    with pytest.raises(InvalidDecomposition) as exc:
                        solve(inst, TreeDecomposition(bags, tree))
                    assert str(exc.value) == message


def _check_prune_distances(inst: Instance) -> bool:
    """The prune's d_s and d_t are the pruned subgraph's own distances
    from s and t (within L of both); False when nothing was kept."""
    pr = prune_to_relevant(inst)
    if not pr.kept:
        assert all(d is None for d in pr.d_t)
        return False
    sub = inst.graph.induced(pr.kept)
    for dist, x in ((pr.d_s, inst.s), (pr.d_t, inst.t)):
        want = bfs_distances(sub, x, cap=inst.L)
        assert [dist[v] for v in pr.kept] == [want[v] for v in pr.kept]
    return True


def test_prune_distances_are_the_subgraphs_on_the_atlas():
    # The encoder takes its label ranges from these distances instead of
    # searching the subgraph again; this is the claim that makes it sound.
    kept = 0
    for g in atlas_graphs(6):
        for s in range(g.n):
            for t in range(s + 1, g.n):
                for L in (1, 2, 3, 4):
                    kept += _check_prune_distances(
                        Instance(g, s, t, L, Variant.EDGE))
    assert kept > 1000


def test_prune_distances_are_the_subgraphs_on_partial_3_trees():
    rng = random.Random(5)
    for seed in range(4):
        g = parse_instance(generate("partial-ktree", [80, 3, 0.7], seed=seed))
        for _ in range(10):
            s, t = rng.sample(range(g.n), 2)
            d = hop_distance(g, s, t)
            if d is None:
                continue
            for L in (d, d + 1, d + 2):
                assert _check_prune_distances(
                    Instance(g, s, t, L, Variant.EDGE))


def _prune_reference(inst: Instance):
    """(kept, d_s, d_t) from two full searches and the d_s + d_t <= L filter."""
    ds = bfs_distances(inst.graph, inst.s)
    dt = bfs_distances(inst.graph, inst.t)
    kept = tuple(v for v in inst.graph.sorted_vertices()
                 if ds[v] is not None and dt[v] is not None
                 and ds[v] + dt[v] <= inst.L)
    return kept, tuple(ds[v] for v in kept), tuple(dt[v] for v in kept)


def test_prune_keeps_what_two_full_searches_keep():
    # The search from t enters only the vertices it keeps; the reference
    # searches the whole graph twice and filters.
    rng = random.Random(31)
    graphs = [grid_graph(rng.randint(2, 6), rng.randint(3, 7))
              for _ in range(4)]
    graphs += [grid_with_holes(rng, rng.randint(4, 7), rng.randint(4, 7),
                               rng.randint(1, 6)) for _ in range(8)]
    graphs += [parse_instance(generate("partial-ktree", [30, k, 0.6],
                                       seed=seed))
               for k in (2, 3, 4) for seed in range(2)]
    empty = nonempty = 0
    for g in graphs:
        # Two isolated extra vertices: a t there is out of reach.
        far = g.n
        g = Graph(g.n + 2, g.vertices | {far, far + 1}, g.edges)
        vertices = g.sorted_vertices()
        diameter = max(d for v in vertices for d in bfs_distances(g, v)
                       if d is not None)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(3)]
        pairs.append((vertices[0], far))
        for s, t in pairs:
            for L in range(1, 2 * diameter + 1):
                inst = Instance(g, s, t, L, Variant.EDGE)
                pr = prune_to_relevant(inst)
                assert (pr.kept, tuple(pr.d_s[v] for v in pr.kept),
                        tuple(pr.d_t[v] for v in pr.kept)
                        ) == _prune_reference(inst)
                assert [v for v, d in enumerate(pr.d_t)
                        if d is not None] == list(pr.kept)
                if pr.kept:
                    nonempty += 1
                else:
                    empty += 1
    assert empty > 100 and nonempty > 100


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_fpt_searches_three_times(monkeypatch, variant):
    # Two searches in the prune, whose distances the encoder reuses, and
    # one verification of the cut on the instance given.
    searches = []
    real = lbcut.graph.flat_bfs

    def counting(g, source, *args, **kwargs):
        searches.append(source)
        return real(g, source, *args, **kwargs)

    monkeypatch.setattr(lbcut.graph, "flat_bfs", counting)
    cut = solve_fpt(Instance(grid_graph(4, 4), 0, 15, 7, variant))
    assert cut.size == 2
    assert len(searches) == 3


def test_large_L_solves_like_the_longest_simple_path():
    # Every simple s-t path in a graph of n vertices has at most n-1 edges,
    # so any L from there on asks for an s-t separator: solve_fpt answers
    # it with a max-flow cut of the kept region, and solve_exact_cut
    # encodes L = n-1 instead of labels up to L+1, whose edge relations
    # alone would hold about L**2 pairs.  Every L here is at least n-1, so
    # no 5x5 solve runs the DP (at L = 24 it took about 1 s per solve).
    start = time.perf_counter()
    for side in (3, 5):
        g = grid_graph(side, side)
        n = side * side
        for variant in Variant:
            for L in (n - 1, 100, 10 ** 4, 10 ** 6):
                inst = Instance(g, 0, n - 1, L, variant)
                size = brute_force_cut(inst).size
                assert solve_fpt(inst).size == size == 2
                if side == 3:
                    assert solve_exact_cut(inst).size == size
    assert time.perf_counter() - start < 60


def test_large_L_cut_is_a_max_flow_cut():
    # From L = len(kept) - 1 on, every simple s-t path in the kept region
    # is short, so a minimum s-t separator is optimal and no DP runs;
    # below that the DP does.  solve_exact_cut, whose region is every
    # vertex, does the same from L = |V| - 1 on.  Connected atlas graphs
    # up to 6 vertices and grids up to 4x4, s and t at the two ends, at
    # L = k-3 to k+1 (from 1) and 10**6, with k the count kept at 10**6.
    graphs = list(atlas_graphs(6)[1:])
    graphs += [grid_graph(r, c) for r in (2, 3, 4) for c in (2, 3, 4)]
    flows = dps = exact_flows = exact_dps = 0
    for g in graphs:
        s, t = 0, g.n - 1
        for variant in Variant:
            if variant is Variant.VERTEX and g.has_edge(s, t):
                continue
            k = len(prune_to_relevant(Instance(g, s, t, 10 ** 6, variant)).kept)
            for L in (k - 3, k - 2, k - 1, k, k + 1, 10 ** 6):
                if L < 1:
                    continue
                inst = Instance(g, s, t, L, variant)
                by_flow = L >= len(prune_to_relevant(inst).kept) - 1
                size = brute_force_cut(inst).size
                cut = solve_fpt(inst)
                assert cut.size == cut.lower_bound == size
                assert (cut.width_used is None) == by_flow
                flows += by_flow
                dps += not by_flow
                exact_by_flow = L >= len(g.vertices) - 1
                cut = solve_exact_cut(inst)
                assert cut.size == cut.lower_bound == size
                assert (cut.width_used is None) == exact_by_flow
                exact_flows += exact_by_flow
                exact_dps += not exact_by_flow
    assert flows > 500 and dps > 100
    assert exact_flows > 700 and exact_dps > 350


def _is_simplicial(g: Graph, v: int) -> bool:
    return all(g.has_edge(a, b) for a, b in combinations(g.neighbors(v), 2))


def _simplicial_kernel(g: Graph, s: int, t: int) -> Graph:
    """g after deleting, one at a time, vertices other than s and t whose
    neighbours are pairwise adjacent, until none is left."""
    while True:
        v = next((v for v in g.sorted_vertices()
                  if v not in (s, t) and _is_simplicial(g, v)), None)
        if v is None:
            return g
        g = g.induced(g.vertices - {v})


def _compact(g: Graph, keep) -> Graph:
    """The subgraph of g induced by ``keep``, its vertices relabelled
    0..len(keep)-1 in ascending order."""
    index = {v: i for i, v in enumerate(sorted(keep))}
    return Graph.from_edges(len(index), [(index[u], index[v])
                                         for u, v in g.edges
                                         if u in index and v in index])


def _recording_encoders(monkeypatch) -> list[Instance]:
    """Patch the encoders the exact solver calls to record the instance
    each receives; returns the list they append to."""
    received = []
    for name in ("encode_edge_cut", "encode_vertex_cut"):
        real = getattr(lbcut.dp, name)

        def recording(inst, *args, real=real, **kwargs):
            received.append(inst)
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(lbcut.dp, name, recording)
    return received


def _representatives(g: Graph, s: int, t: int) -> frozenset[int]:
    """s, t and the least vertex of each class of other vertices with the
    same neighbours."""
    first: dict = {}
    for v in g.sorted_vertices():
        if v not in (s, t):
            first.setdefault(g.neighbors(v), v)
    return frozenset({s, t, *first.values()})


def _twin_instances():
    """(graph, s, t) with twins: diamonds (k middles between s and t),
    K_{2,m} with both terminals on one side, and small partial k-trees."""
    for k in range(2, 7):
        yield parse_instance(generate("diamond", [k])), 0, k + 1
    for m in range(3, 7):
        g = Graph.from_edges(m + 2, [(a, c) for a in (0, 1)
                                     for c in range(2, m + 2)])
        yield g, 2, 3
        yield g, 0, 1
    rng = random.Random(24)
    for seed in range(20):
        n, k = rng.randint(7, 11), rng.choice((2, 3))
        g = parse_instance(generate("partial-ktree", [n, k, 0.8], seed=seed))
        yield g, *rng.sample(range(n), 2)


def test_twins_are_contracted_before_the_dp(monkeypatch):
    # The DP encodes only the representatives of the kept subgraph's twin
    # classes, relabelled 0..r-1 in ascending order, and its expanded cut
    # is optimal in both variants, with and without a supplied
    # decomposition.  In the vertex variant, simplicial vertices are
    # deleted before and after the contraction.
    received = _recording_encoders(monkeypatch)
    contracted = solved = 0
    for g, s, t in _twin_instances():
        for variant in Variant:
            if variant is Variant.VERTEX and g.has_edge(s, t):
                continue
            for L in range(1, 6):
                inst = Instance(g, s, t, L, variant)
                want = brute_force_cut(inst)
                pr = prune_to_relevant(inst)
                sub = g.induced(pr.kept)
                if variant is Variant.VERTEX:
                    sub = _simplicial_kernel(sub, s, t)
                reps = _representatives(sub, s, t)
                if variant is Variant.VERTEX:
                    reps = _simplicial_kernel(sub.induced(reps), s,
                                              t).vertices
                ordered = sorted(reps)
                for td in (None, lbcut.treedec.build_heuristic(g)):
                    received.clear()
                    cut = solve_fpt(inst, td)
                    if want is not UNKNOWN:
                        assert cut.size == want.size, (g.edges, s, t, L,
                                                       variant)
                    if cut.width_used is None:
                        assert received == []
                        continue
                    [got] = received
                    assert got.graph == _compact(g, reps)
                    assert (got.s, got.t) == (ordered.index(s),
                                              ordered.index(t))
                    contracted += len(reps) < len(pr.kept)
                solved += want is not UNKNOWN
    assert solved > 250 and contracted > 160


def _two_path(g: Graph, a: int, b: int, k: int) -> Graph:
    """g with k new vertices grown from its edge a-b, each adjacent to the
    two before it (a and b first): only the last is simplicial until it is
    deleted, and then the one before it is."""
    chain, edges = [a, b], set(g.edges)
    for v in range(g.n, g.n + k):
        edges |= {(chain[-2], v), (chain[-1], v)}
        chain.append(v)
    return Graph.from_edges(g.n + k, edges)


def _simplicial_instances():
    """(graph, s, t) for vertex cuts: small partial k-trees, and cycles and
    partial k-trees with a 2-path grown from one of their edges."""
    rng = random.Random(25)
    for seed in range(30):
        n, k = rng.randint(7, 11), rng.choice((2, 3))
        g = parse_instance(generate("partial-ktree", [n, k, 0.8], seed=seed))
        s, t = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            g = _two_path(g, *rng.choice(sorted(g.edges)), rng.randint(1, 4))
        yield g, s, t
    for m in range(4, 9):
        cycle = Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
        for a in range(m // 2):
            yield _two_path(cycle, a, a + 1, rng.randint(1, 4)), 0, m // 2


def test_simplicial_vertices_are_deleted_before_the_dp(monkeypatch):
    # Vertex variant: the graph the DP encodes, in its own compact ids,
    # has no vertex other than its s and t that is simplicial there, and
    # the cut is optimal, with and without a supplied decomposition.  Some
    # deleted vertices were simplicial only once another had been deleted.
    received = _recording_encoders(monkeypatch)
    real = lbcut.treedec.build_heuristic
    solved = cascades = 0
    for g, s, t in _simplicial_instances():
        if g.has_edge(s, t):
            continue
        kernel = _simplicial_kernel(g, s, t)
        cascades += any(not _is_simplicial(g, v)
                        for v in g.vertices - kernel.vertices)
        for L in range(1, 6):
            inst = Instance(g, s, t, L, Variant.VERTEX)
            want = brute_force_cut(inst)
            assert want is not UNKNOWN
            for solve in (solve_exact_cut, solve_fpt):
                for td in (None, real(g)):
                    received.clear()
                    cut = solve(inst, td)
                    assert cut.size == want.size, (sorted(g.edges), s, t, L)
                    assert len(received) == (cut.width_used is not None)
                    for got in received:
                        h = got.graph
                        assert h.vertices == frozenset(range(h.n))
                        assert not any(_is_simplicial(h, v) for v in h.vertices
                                       if v not in (got.s, got.t))
            solved += 1
    assert solved > 140 and cascades > 15
