import random

import networkx as nx
import pytest
from networkx.algorithms.flow import edmonds_karp

from lbcut import (CutSet, Graph, GraphError, Instance, InvalidCut,
                   NoVertexCut, Variant, bfs_distances, hop_distance,
                   min_edge_cut, min_vertex_cut, verify_cut)
from lbcut.graph import flat_bfs, norm_edge
from lbcut.oracle import enumerate_short_paths

from conftest import (atlas_graphs, brute_min_edge_cut_size,
                      brute_min_vertex_cut_size, random_graph, without_edges,
                      without_vertices)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])


def test_bfs_distances_path():
    assert bfs_distances(PATH4, 0) == (0, 1, 2, 3)


def test_bfs_distances_single_vertex():
    g = Graph.from_edges(1, [])
    assert bfs_distances(g, 0) == (0,)


def test_bfs_distances_disconnected():
    g = Graph.from_edges(2, [])
    d = bfs_distances(g, 0)
    assert d[0] == 0 and d[1] is None


def test_bfs_triangle_step_property():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        d = bfs_distances(g, rng.randrange(n))
        for u, v in g.edges:
            if d[u] is not None and d[v] is not None:
                assert abs(d[u] - d[v]) <= 1


def test_hop_distance_cap():
    assert hop_distance(PATH4, 0, 3) == 3
    assert hop_distance(PATH4, 0, 3, cap=2) is None
    assert hop_distance(PATH4, 0, 3, cap=3) == 3
    assert hop_distance(Graph.from_edges(2, []), 0, 1) is None
    assert hop_distance(PATH4, 2, 2) == hop_distance(PATH4, 2, 2, cap=0) == 0


def test_hop_distance_within_matches_induced_subgraph():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        s, t = rng.sample(range(n), 2)
        within = {s, t} | {v for v in range(n) if rng.random() < 0.6}
        sub = g.induced(within)
        for cap in (None, 1, 2, rng.randint(0, n)):
            assert (hop_distance(g, s, t, cap, within=within)
                    == hop_distance(sub, s, t, cap))
    # Vertex 0 is a hub adjacent to every other vertex, as s and t are in
    # a fan: a search from or through it meets a `within` much smaller than
    # its adjacency.  The distance is the full scan's depth of t.
    rng = random.Random(29)
    small = 0
    for _ in range(300):
        n = rng.randint(3, 30)
        g = _hub_graph(rng, n)
        s = rng.choice([0, rng.randrange(n)])
        t = rng.choice([v for v in range(n) if v != s])
        within = {s, t} | set(rng.sample(range(n), rng.randint(0, min(n, 6))))
        if rng.random() < 0.3:
            within = {s, t} | (set(range(n)) - set(rng.sample(range(n), n // 3)))
        small += len(within) < max(map(g.degree, within))
        sub = g.induced(within)
        for cap in (None, 1, 2, rng.randint(0, n)):
            want = _full_scan_bfs(g, s, cap, within, t).get(t, (None,))[0]
            assert hop_distance(g, s, t, cap, within=within) == want
            assert hop_distance(sub, s, t, cap) == want
            assert hop_distance(g, s, t, cap) == _full_scan_bfs(
                g, s, cap, stop=t).get(t, (None,))[0]
    assert small > 100
    with pytest.raises(GraphError, match="terminals must lie in `within`"):
        hop_distance(PATH4, 0, 3, within={0, 1, 2})


def _full_scan_bfs(g, source, cap, within=None, stop=None, marked=(),
                   blocked=frozenset(), offset=None):
    """The searches' contract, scanning every neighbour of every vertex:
    ``{reached vertex: (depth, parent)}``."""
    reached = {source: (0, None)}
    frontier = [source]
    depth = 0
    while frontier and (cap is None or depth < cap):
        depth += 1
        nxt = []
        for u in frontier:
            for w in sorted(g.neighbors(u)):
                if (w in reached or w in marked
                        or (within is not None and w not in within)
                        or norm_edge(u, w) in blocked
                        or (offset is not None
                            and (offset[w] is None
                                 or offset[w] + depth > cap))):
                    continue
                reached[w] = (depth, u)
                if w == stop:
                    return reached
                nxt.append(w)
        frontier = nxt
    return reached


def _hub_graph(rng, n):
    """A random graph plus a hub, vertex 0, adjacent to every other."""
    g = random_graph(rng, n, rng.randint(0, 3 * n))
    return Graph.from_edges(n, set(g.edges) | {(0, v) for v in range(1, n)})


def _reached(depth, parent):
    return {v: (d, parent[v]) for v, d in enumerate(depth)
            if d is not None and d >= 0}


def test_flat_bfs_matches_full_scan():
    # Depths and parents of the whole-graph search, with every filter it
    # takes, against the full scan; vertex 0 is a hub.
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(3, 30)
        g = _hub_graph(rng, n)
        source = rng.choice([0, rng.randrange(n)])
        stop = rng.choice([None, rng.randrange(n)])
        others = [v for v in range(n) if v != source]
        marked = set(rng.sample(others, rng.randint(0, n // 3)))
        edges = sorted(g.edges)
        blocked = frozenset(rng.sample(edges, rng.randint(0, len(edges) // 4)))
        cut_at = {}
        for u, w in blocked:
            cut_at.setdefault(u, set()).add(w)
            cut_at.setdefault(w, set()).add(u)
        offset = [rng.choice([None, rng.randint(0, 4)]) for _ in range(n)]
        for cap in (None, 1, 2, rng.randint(0, n)):
            depth, parent = flat_bfs(g, source, cap, stop, marked=marked,
                                     cut_at=cut_at)
            assert all(depth[v] == -1 for v in marked)
            assert _reached(depth, parent) == _full_scan_bfs(
                g, source, cap, stop=stop, marked=marked, blocked=blocked)
            assert _reached(*flat_bfs(g, source, cap)) == _full_scan_bfs(
                g, source, cap)
            if cap is not None:
                assert _reached(*flat_bfs(g, source, cap, offset=offset)) \
                    == _full_scan_bfs(g, source, cap, offset=offset)


def test_verify_cut_witness_is_the_full_scan_path():
    rng = random.Random(37)
    infeasible = 0
    for _ in range(300):
        n = rng.randint(3, 25)
        g = random_graph(rng, n, rng.randint(n - 1, 3 * n))
        s, t = rng.sample(range(n), 2)
        L = rng.randint(1, n)
        for variant in Variant:
            if variant is Variant.EDGE:
                pool = sorted(g.edges)
            elif g.has_edge(s, t):
                continue
            else:
                pool = [v for v in range(n) if v not in (s, t)]
            members = tuple(rng.sample(pool, rng.randint(0, len(pool) // 3)))
            res = verify_cut(Instance(g, s, t, L, variant),
                             CutSet(variant, members))
            if variant is Variant.EDGE:
                ref = _full_scan_bfs(g, s, L, stop=t,
                                     blocked=frozenset(members))
            else:
                ref = _full_scan_bfs(g, s, L, stop=t, marked=set(members))
            assert res.feasible == (t not in ref)
            if t in ref:
                path = [t]
                while path[-1] != s:
                    path.append(ref[path[-1]][1])
                assert res.witness == tuple(reversed(path))
                infeasible += 1
    assert infeasible > 100


def test_verify_cut_examples():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    res = verify_cut(inst, CutSet(Variant.EDGE, ()))
    assert not res.feasible
    assert res.witness == (0, 1, 2, 3)
    assert verify_cut(inst, CutSet(Variant.EDGE, ((1, 2),))).feasible
    inst2 = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    assert verify_cut(inst2, CutSet(Variant.EDGE, ())).feasible


def test_verify_cut_rejects_terminals_in_vertex_cut():
    inst = Instance(PATH4, 0, 3, 2, Variant.VERTEX)
    with pytest.raises(InvalidCut, match="may not contain s or t"):
        verify_cut(inst, CutSet(Variant.VERTEX, (0,)))
    inst = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    with pytest.raises(InvalidCut, match=r"edge \(0, 2\) is not in the graph"):
        verify_cut(inst, CutSet(Variant.EDGE, ((0, 2),)))
    inst = Instance(without_vertices(PATH4, [1]), 0, 3, 2, Variant.VERTEX)
    with pytest.raises(InvalidCut, match="vertex 1 is not in the graph"):
        verify_cut(inst, CutSet(Variant.VERTEX, (1,)))


def test_verify_cut_variant_mismatch():
    inst = Instance(PATH4, 0, 3, 2, Variant.VERTEX)
    with pytest.raises(InvalidCut):
        verify_cut(inst, CutSet(Variant.EDGE, ()))


def test_verify_witness_avoids_cut_and_is_short():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        s, t = rng.sample(range(n), 2)
        L = rng.randint(1, 4)
        variant = rng.choice([Variant.EDGE, Variant.VERTEX])
        if variant is Variant.EDGE:
            pool = sorted(g.edges)
        else:
            pool = [v for v in range(n) if v not in (s, t)]
        members = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
        if variant is Variant.VERTEX and g.has_edge(s, t):
            with pytest.raises(NoVertexCut):
                Instance(g, s, t, L, variant)
            continue
        inst = Instance(g, s, t, L, variant)
        res = verify_cut(inst, CutSet(variant, members))
        if not res.feasible:
            w = res.witness
            assert w[0] == s and w[-1] == t and len(w) - 1 <= L
            for u, v in zip(w, w[1:]):
                assert g.has_edge(u, v)
                if variant is Variant.EDGE:
                    assert (min(u, v), max(u, v)) not in members
            if variant is Variant.VERTEX:
                assert not set(w) & set(members)


def test_feasibility_equals_hitting_all_short_paths():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)))
        s, t = rng.sample(range(n), 2)
        L = rng.randint(1, 5)
        paths = enumerate_short_paths(g, s, t, L)
        for variant in (Variant.EDGE, Variant.VERTEX):
            if variant is Variant.EDGE:
                pool = sorted(g.edges)
            else:
                pool = [v for v in range(n) if v not in (s, t)]
            members = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
            if variant is Variant.VERTEX and g.has_edge(s, t):
                with pytest.raises(NoVertexCut):
                    Instance(g, s, t, L, variant)
                continue
            inst = Instance(g, s, t, L, variant)
            feasible = verify_cut(inst, CutSet(variant, members)).feasible
            if variant is Variant.EDGE:
                pairs = [set(zip(p, p[1:])) | set(zip(p[1:], p)) for p in paths]
                hits = all(any((u, v) in p for u, v in members) for p in pairs)
            else:
                hits = all(set(p) & set(members) for p in paths)
            assert feasible == hits


def test_enumerate_short_paths_on_long_path_runs_without_recursion():
    n = 1200
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    assert enumerate_short_paths(g, 0, n - 1, n) == [tuple(range(n))]
    assert enumerate_short_paths(g, 0, n - 1, n - 2) == []


def test_feasible_cut_stays_feasible_after_adding_members():
    rng = random.Random(5)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    inst = Instance(c5, 0, 2, 3, Variant.EDGE)
    base = ((0, 1), (2, 3))
    assert verify_cut(inst, CutSet(Variant.EDGE, base)).feasible
    rest = [e for e in sorted(c5.edges) if e not in base]
    for _ in range(10):
        extra = tuple(rng.sample(rest, rng.randint(0, len(rest))))
        assert verify_cut(inst, CutSet(Variant.EDGE, base + extra)).feasible


def test_min_vertex_cut_diamond():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert min_vertex_cut(g, 0, 3).members == (1, 2)


def test_min_vertex_cut_path_tie_break():
    # both {1} and {2} are minimum cuts; ascending-id scanning returns {1}
    assert min_vertex_cut(PATH4, 0, 3).members == (1,)


def test_min_vertex_cut_disconnected():
    g = Graph.from_edges(2, [])
    assert min_vertex_cut(g, 0, 1).members == ()


def test_min_vertex_cut_adjacent_raises():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(NoVertexCut):
        min_vertex_cut(g, 0, 1)


def test_min_vertex_cut_matches_brute_force_on_atlas():
    for g in atlas_graphs(7, False):
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if g.has_edge(s, t):
                    continue
                cut = min_vertex_cut(g, s, t)
                assert cut.size == brute_min_vertex_cut_size(g, s, t)
                g2 = without_vertices(g, cut.members)
                assert hop_distance(g2, s, t) is None


def test_min_vertex_cut_matches_brute_force_random():
    rng = random.Random(97)
    done = 0
    while done < 200:
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.randint(n, min(3 * n, n * (n - 1) // 2)))
        s, t = rng.sample(range(n), 2)
        if g.has_edge(s, t):
            continue
        assert min_vertex_cut(g, s, t).size == brute_min_vertex_cut_size(g, s, t)
        done += 1


def test_min_edge_cut_examples():
    assert min_edge_cut(PATH4, 0, 3).size == 1
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert min_edge_cut(c5, 0, 2).size == brute_min_edge_cut_size(c5, 0, 2) == 2
    assert min_edge_cut(Graph.from_edges(2, []), 0, 1).members == ()


def _reference_source_side(arcs, source: int, sink: int) -> set[int]:
    """Nodes the source reaches in the residual graph of a networkx max flow.

    ``arcs`` holds (a, b, capacity) triples; capacity None is unbounded.
    """
    net = nx.DiGraph()
    net.add_nodes_from((source, sink))
    for a, b, cap in arcs:
        if cap is None:
            net.add_edge(a, b)
        else:
            net.add_edge(a, b, capacity=cap)
    res = edmonds_karp(net, source, sink)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for w, arc in res[u].items():
            if w not in seen and arc["capacity"] - arc["flow"] > 0:
                seen.add(w)
                stack.append(w)
    return seen


def _reference_vertex_cut(g: Graph, s: int, t: int) -> tuple[int, ...]:
    # vertex v splits into in = 2v and out = 2v + 1; s and t stay whole (2v)
    def out(v):
        return 2 * v if v in (s, t) else 2 * v + 1
    arcs = [(2 * v, 2 * v + 1, 1) for v in g.sorted_vertices()
            if v not in (s, t)]
    arcs += [(out(a), 2 * b, None) for u, v in g.edges
             for a, b in ((u, v), (v, u))]
    side = _reference_source_side(arcs, 2 * s, 2 * t)
    return tuple(v for v in g.sorted_vertices()
                 if v not in (s, t) and 2 * v in side and out(v) not in side)


def _reference_edge_cut(g: Graph, s: int, t: int) -> tuple:
    arcs = [(a, b, 1) for u, v in g.edges for a, b in ((u, v), (v, u))]
    side = _reference_source_side(arcs, s, t)
    return tuple(e for e in sorted(g.edges) if (e[0] in side) != (e[1] in side))


def test_min_cut_members_match_networkx_source_side():
    rng = random.Random(41)
    cases = []
    for _ in range(150):
        n = rng.randint(20, 120)
        g = random_graph(rng, n, rng.randint(n, 3 * n))
        cases.append((g, *rng.sample(range(n), 2)))
    for _ in range(20):
        n = rng.randint(20, 60)
        g = random_graph(rng, n, rng.randint(n, 3 * n))
        s, t = rng.sample(range(n), 2)
        keep = {s, t} | {v for v in range(n) if rng.random() < 0.7}
        cases.append((g.induced(keep), s, t))
    vertex_cases = 0
    for g, s, t in cases:
        assert min_edge_cut(g, s, t).members == _reference_edge_cut(g, s, t)
        if not g.has_edge(s, t):
            assert (min_vertex_cut(g, s, t).members
                    == _reference_vertex_cut(g, s, t))
            vertex_cases += 1
    assert vertex_cases > 100


def test_min_edge_cut_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        s, t = rng.sample(range(n), 2)
        cut = min_edge_cut(g, s, t)
        assert cut.size == brute_min_edge_cut_size(g, s, t)
        g2 = without_edges(g, cut.members)
        assert hop_distance(g2, s, t) is None


def test_instance_validation():
    with pytest.raises(GraphError):
        Instance(PATH4, 0, 0, 3, Variant.EDGE)
    with pytest.raises(GraphError):
        Instance(PATH4, 0, 3, 0, Variant.EDGE)
    with pytest.raises(GraphError):
        Instance(PATH4, 0, 9, 3, Variant.EDGE)
    with pytest.raises(NoVertexCut, match="s and t are adjacent"):
        Instance(PATH4, 1, 2, 3, Variant.VERTEX)
    assert Instance(PATH4, 1, 2, 3, Variant.EDGE).variant is Variant.EDGE


def test_cutset_normalizes_and_rejects_duplicates():
    c = CutSet(Variant.EDGE, ((3, 2), (0, 1)))
    assert c.members == ((0, 1), (2, 3))
    with pytest.raises(InvalidCut):
        CutSet(Variant.VERTEX, (1, 1))
