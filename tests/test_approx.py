import random
import time

import pytest

from lbcut import (Graph, Instance, InvalidDecomposition, TreeDecomposition,
                   UNKNOWN, Variant, approx_auto, approx_vertex_cut,
                   brute_force_cut, build_heuristic, enumerate_short_paths,
                   generate, parse_instance, prune_to_relevant, validate,
                   verify_cut, width)
from lbcut.approx import LiveSubtrees
from lbcut.treedec import subtree_vertex_sets

from conftest import (atlas_graphs, fan_instance, grid_graph, random_graph,
                      without_vertices)
from test_approx_golden import golden_instances

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def _two_shapes(g: Graph, rng: random.Random) -> tuple[TreeDecomposition, ...]:
    """The heuristic decomposition at its own root 0 and at a random other
    node (g has at least two vertices, so at least two nodes)."""
    td = build_heuristic(g)
    return td, TreeDecomposition(td.bags, td.tree_edges,
                                 root=rng.randrange(1, td.n_nodes))


def test_path_cut_of_size_one():
    inst = Instance(PATH4, 0, 3, 3, Variant.VERTEX)
    for td in _two_shapes(PATH4, random.Random(17)):
        res = approx_vertex_cut(inst, td)
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
    assert res.width_used is None and res.trace == ()


def test_auto_forces_the_common_neighbours_on_small_corpus():
    # Every connected graph up to 6 vertices, every non-adjacent pair,
    # L in 2..4: the common neighbours of s and t are in every cut, each
    # one certifies a unit of the bound, and the ratio is still stated in
    # the width of the kept graph's decomposition.
    for g in atlas_graphs(6):
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if g.has_edge(s, t):
                    continue
                common = set(g.neighbors(s)) & set(g.neighbors(t))
                for L in (2, 3, 4):
                    inst = Instance(g, s, t, L, Variant.VERTEX)
                    opt = brute_force_cut(inst).size
                    res = approx_auto(inst)
                    lb, size = res.lower_bound, res.cut.size
                    assert verify_cut(inst, res.cut).feasible
                    assert common <= set(res.cut.members)
                    assert set(res.forced) == common
                    assert lb == len(res.forced) + len(res.trace)
                    kept = prune_to_relevant(inst).kept
                    if not kept:
                        assert size == 0 and res.width_used is None
                        continue
                    assert lb <= opt <= size <= res.width_used * max(lb, 1)
                    assert res.width_used == width(
                        build_heuristic(g.induced(kept)))


def test_auto_cuts_a_long_fan_by_its_common_neighbours():
    # Every path vertex is a common neighbour of s and t, and deleting them
    # leaves no short path: the loop does not run at all.
    k = 20_000
    start = time.perf_counter()
    res = approx_auto(fan_instance(k))
    elapsed = time.perf_counter() - start
    assert res.cut.members == res.forced == tuple(range(2, k + 2))
    assert res.lower_bound == k and res.trace == ()
    assert elapsed < 10.0, f"k={k} took {elapsed:.1f}s"


@pytest.mark.parametrize("inst, members, kinds", [
    # 1 is forced, and the path 0-4-3-2 survives it; s and t share no bag
    (Instance(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
              0, 2, 3, Variant.VERTEX), (1, 4), ["leaf-mincut"]),
    # 9 forced, then 3 steps: a cut that meets its bound (the loop alone
    # certifies 8 on this pair)
    (golden_instances()["ktree150-k3-L3"],
     (2, 3, 5, 7, 11, 17, 21, 23, 29, 39, 50, 111), ["prune"] * 3),
], ids=["cycle5", "ktree150-k3-L3"])
def test_auto_runs_the_loop_after_the_forced_vertices(inst, members, kinds):
    g, s, t = inst.graph, inst.s, inst.t
    res = approx_auto(inst)
    forced = set(res.forced)
    assert forced and forced == set(g.neighbors(s)) & set(g.neighbors(t))
    assert [e.kind for e in res.trace] == kinds
    for ev in res.trace:
        assert not forced & set(ev.removed)
    assert res.cut.members == members
    assert res.lower_bound == len(forced) + len(kinds) == len(members)


def _with_unreachable_clique(inst: Instance, size: int = 6) -> Instance:
    """The instance plus a path of L+1 new vertices from s to a new clique
    of ``size`` vertices: no s-t path of length at most L can use them."""
    g, n, L = inst.graph, inst.graph.n, inst.L
    path = [inst.s] + list(range(n, n + L + 1))
    clique = [path[-1]] + list(range(n + L + 1, n + L + size))
    edges = sorted(g.edges) + list(zip(path, path[1:]))
    edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    return Instance(Graph.from_edges(n + L + size, edges), inst.s, inst.t,
                    L, Variant.VERTEX)


@pytest.mark.parametrize("base", [
    fan_instance(12), fan_instance(40),
    Instance(grid_graph(4, 4), 0, 15, 6, Variant.VERTEX),
    Instance(grid_graph(4, 5), 0, 19, 9, Variant.VERTEX),
], ids=["fan12", "fan40", "grid4x4", "grid4x5"])
def test_auto_prunes_what_no_short_path_uses(base):
    # The clique alone has width size-1 = 5, more than the base's width, so
    # decomposing the whole graph would weaken the guarantee.
    base_res = approx_auto(base)
    res = approx_auto(_with_unreachable_clique(base))
    assert res.cut == base_res.cut
    assert res.lower_bound == base_res.lower_bound
    assert res.trace == base_res.trace
    assert res.width_used <= base_res.width_used < 5


def test_grid_ratio():
    g = grid_graph(4, 4)
    inst = Instance(g, 0, 15, 6, Variant.VERTEX)
    opt = brute_force_cut(inst).size
    res = approx_auto(inst)
    assert res.cut.size <= res.width_used * opt
    assert res.lower_bound <= opt


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
            Instance(without_vertices(PATH4, [1]), 0, 3, 3, Variant.VERTEX),
            TreeDecomposition(((0, 1, 2, 3),), frozenset()))


def test_deterministic_cut_and_trace():
    g = grid_graph(3, 4)
    inst = Instance(g, 0, 11, 5, Variant.VERTEX)
    a = approx_auto(inst)
    b = approx_auto(inst)
    assert a.cut == b.cut and a.trace == b.trace


def test_ratio_and_certificate_on_small_corpus():
    # every connected graph up to 5 vertices, all non-adjacent terminal
    # pairs, L in 1..4, the heuristic decomposition at two roots
    rng = random.Random(19)
    for g in atlas_graphs(5):
        if g.n < 3:
            continue
        shapes = _two_shapes(g, rng)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if g.has_edge(s, t):
                    continue
                for L in (1, 2, 3, 4):
                    inst = Instance(g, s, t, L, Variant.VERTEX)
                    opt_cut = brute_force_cut(inst)
                    assert opt_cut is not UNKNOWN
                    opt = opt_cut.size
                    for td in shapes:
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
                res = approx_vertex_cut(inst, build_heuristic(inst.graph))
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


def test_live_subtree_sets_match_materialised_sets():
    # The interval index against the union of the bags below each node,
    # restricted to the vertices alive, on every node after every deletion.
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.randint(0, 3 * n))
        if n > 2 and rng.random() < 0.3:
            g = g.induced(rng.sample(range(n), rng.randint(1, n - 1)))
        td = build_heuristic(g)
        td = TreeDecomposition(td.bags, td.tree_edges,
                               root=rng.randrange(td.n_nodes))
        below = subtree_vertex_sets(td)
        live = LiveSubtrees(td, validate(td, g))
        alive = set(g.vertices)
        doomed = sorted(alive)
        rng.shuffle(doomed)
        while True:
            assert live.alive == alive
            for b in range(td.n_nodes):
                assert live[b] == below[b] & alive
            if not doomed:
                break
            batch = doomed[-rng.randint(1, 3):]
            del doomed[-len(batch):]
            live.delete(batch)
            alive.difference_update(batch)


def test_trace_subtree_sets_are_the_bags_below_minus_earlier_deletions():
    # The loop reads each node's live subtree set once and then shrinks it
    # itself; every event's set must still be the union of the bags below
    # its node minus what earlier events deleted.  The terminals share a
    # bag, so the loop prunes, and a random root makes it fall back.
    rng = random.Random(61)
    kinds = {"prune": 0, "fallback": 0}
    n_instances = 0
    while n_instances < 150:
        n = rng.randint(4, 25)
        g = random_graph(rng, n, rng.randint(n, 3 * n))
        td = build_heuristic(g)
        td = TreeDecomposition(td.bags, td.tree_edges,
                               root=rng.randrange(td.n_nodes))
        pairs = [(u, v) for bag in td.bags for u in bag for v in bag
                 if u < v and not g.has_edge(u, v)]
        if not pairs:
            continue
        n_instances += 1
        s, t = rng.choice(pairs)
        res = approx_vertex_cut(
            Instance(g, s, t, rng.randint(2, 5), Variant.VERTEX), td)
        below = subtree_vertex_sets(td)
        deleted: set[int] = set()
        for ev in res.trace:
            assert set(ev.subtree_vertices) == below[ev.node] - deleted
            kinds[ev.kind] += 1
            deleted.update(ev.removed)
    assert kinds["prune"] > 100 and kinds["fallback"] > 5, kinds


def test_long_fan_runs_without_recursion():
    # s = 0 and t = 1 adjacent to every vertex of the path 2..k+1: with
    # L = 2 the optimum is the whole path.  The loop takes k - 1 steps (the
    # first deletes two path vertices), far more than the default recursion
    # limit.  Each step's short-path test scans only the few live vertices
    # below its node, not the k neighbours of s, so the run is about linear
    # in k.  (approx_auto puts the path in the cut before the loop.)
    k = 20_000
    inst = fan_instance(k)
    start = time.perf_counter()
    res = approx_vertex_cut(inst, build_heuristic(inst.graph))
    elapsed = time.perf_counter() - start
    assert res.cut.members == tuple(range(2, k + 2))
    assert res.lower_bound == k - 1
    assert elapsed < 10.0, f"k={k} took {elapsed:.1f}s"


def test_build_heuristic_on_long_fan_is_fast():
    # The heap computes fill-in only for vertices that reach the least
    # degree, and a step queues again only the eliminated vertex's
    # neighbours and the common neighbours of its new fill edges.  On the
    # fan, once the first step has joined the two hubs, that is the hubs
    # and the path vertex next to the eliminated end, and the hubs'
    # fill-in (quadratic in k) is never computed.
    g = fan_instance(4000).graph
    start = time.perf_counter()
    td = build_heuristic(g)
    elapsed = time.perf_counter() - start
    validate(td, g)
    assert width(td) == 3
    assert elapsed < 2.0, f"k=4000 took {elapsed:.2f}s"


def test_build_heuristic_on_large_partial_3_tree_is_fast():
    g = parse_instance(generate("partial-ktree", [800, 3, 0.8], seed=0))
    start = time.perf_counter()
    td = build_heuristic(g)
    elapsed = time.perf_counter() - start
    validate(td, g)
    assert width(td) <= 3
    assert elapsed < 2.0, f"n=800 took {elapsed:.2f}s"
