import math
import random
from itertools import combinations, product

import pytest

from lbcut import (Constraint, CspInstance, CutSet, Graph, Instance,
                   InvalidAssignment, InvalidCut, NoVertexCut,
                   TreeDecomposition, Variant, bfs_distances,
                   brute_force_csp, brute_force_cut, build_heuristic,
                   decode_edge, decode_vertex, encode_edge_cut,
                   encode_vertex_cut, generate, parse_instance,
                   solve_min_csp, verify_cut)

from conftest import (atlas_graphs, constraint_graph, grid_graph,
                      grid_with_holes, random_csp, random_graph,
                      satisfies_all_hard, violated_soft_count, without_edges,
                      without_vertices)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_encode_edge_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    inst = Instance(g, 0, 1, 1, Variant.EDGE)
    q = encode_edge_cut(inst)
    assert q.domains == ((0,), (2,))
    assert brute_force_csp(q).cost == 1


def test_encode_edge_path_costs():
    q3 = encode_edge_cut(Instance(PATH4, 0, 3, 3, Variant.EDGE))
    assert brute_force_csp(q3).cost == 1
    q2 = encode_edge_cut(Instance(PATH4, 0, 3, 2, Variant.EDGE))
    assert brute_force_csp(q2).cost == 0


def test_encode_edge_soft_relation_closed_form():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    q = encode_edge_cut(inst)
    for c in q.soft:
        du, dv = (q.domains[v] for v in c.scope)
        assert c.allowed == frozenset(
            (a, b) for a in du for b in dv if abs(a - b) <= 1)


def test_encode_vertex_costs():
    qd = encode_vertex_cut(Instance(DIAMOND, 0, 3, 2, Variant.VERTEX))
    assert brute_force_csp(qd).cost == 2
    qp = encode_vertex_cut(Instance(PATH4, 0, 3, 2, Variant.VERTEX))
    assert brute_force_csp(qp).cost == 0
    qc = encode_vertex_cut(Instance(C5, 0, 2, 3, Variant.VERTEX))
    assert brute_force_csp(qc).cost == 2


def test_terminals_take_one_label_and_their_neighbours_few():
    # 4x4 grid, s = 0 in one corner and t = 15 in the other, L = 6: the
    # neighbours 1 and 4 of s have the ranges 1..2, those of t, 11 and 14,
    # the ranges 5..6.
    g = grid_graph(4, 4)
    qe = encode_edge_cut(Instance(g, 0, 15, 6, Variant.EDGE))
    assert (qe.domains[0], qe.domains[15]) == ((0,), (7,))
    assert qe.domains[1] == qe.domains[4] == (1, 2)
    assert qe.domains[11] == qe.domains[14] == (5, 6)
    qv = encode_vertex_cut(Instance(g, 0, 15, 6, Variant.VERTEX))
    assert (qv.domains[0], qv.domains[15]) == ((0,), (7,))
    assert qv.domains[1] == qv.domains[4] == (-1, 1)
    assert qv.domains[11] == qv.domains[14] == (-1, 6)
    assert qv.domains[5] == (-1, 2, 3)  # no terminal neighbour
    # A common neighbour of s and t must be deleted once L >= 2; at L = 1
    # the path through it is too long to matter, and it keeps its label 1.
    for L, want in ((1, (-1, 1)), (2, (-1,)), (3, (-1,))):
        q = encode_vertex_cut(Instance(DIAMOND, 0, 3, L, Variant.VERTEX))
        assert q.domains == ((0,), want, want, (L + 1,))


def _near(du, dv):
    """The edge relation over end domains du and dv, built here apart from
    the encoders."""
    return frozenset((a, b) for a in du for b in dv
                     if a == -1 or b == -1 or abs(a - b) <= 1)


def _is_full(q, u, v):
    """Whether the edge relation holds every pair of u's and v's labels."""
    du, dv = q.domains[u], q.domains[v]
    return len(_near(du, dv)) == len(du) * len(dv)


def test_constraint_graph_equals_input_graph():
    # ... less the edges whose relation every label pair satisfies: the
    # encoders leave those constraints out.  On C5 at L=2 the vertices 3 and
    # 4 lie on no short path, so the three edges at them are left out.
    for inst in (Instance(PATH4, 0, 3, 3, Variant.EDGE),
                 Instance(C5, 0, 2, 2, Variant.EDGE)):
        q = encode_edge_cut(inst)
        assert constraint_graph(q).edges == {
            e for e in inst.graph.edges if not _is_full(q, *e)}
    assert constraint_graph(q).edges == {(0, 1), (1, 2)}
    qv = encode_vertex_cut(Instance(C5, 0, 2, 3, Variant.VERTEX))
    assert constraint_graph(qv).edges == {
        e for e in C5.edges if not _is_full(qv, *e)}


def test_decode_edge_examples():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    assert decode_edge(inst, (0, 1, 2, 4)).members == ((2, 3),)
    inst2 = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    assert decode_edge(inst2, (0, 1, 2, 3)).members == ()
    g = Graph.from_edges(2, [(0, 1)])
    inst3 = Instance(g, 0, 1, 1, Variant.EDGE)
    assert decode_edge(inst3, (0, 2)).members == ((0, 1),)


def test_decode_edge_rejects_hard_violation():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    with pytest.raises(InvalidAssignment):
        decode_edge(inst, (1, 1, 2, 4))  # z_s != 0
    with pytest.raises(InvalidAssignment):
        decode_edge(inst, (0, 1, 2, 3))  # z_t != L+1
    with pytest.raises(InvalidAssignment):
        decode_edge(inst, (0, 9, 2, 4))  # out of domain


def test_decode_vertex_examples():
    inst = Instance(DIAMOND, 0, 3, 2, Variant.VERTEX)
    assert decode_vertex(inst, (0, -1, -1, 3)).members == (1, 2)
    inst_p = Instance(PATH4, 0, 3, 2, Variant.VERTEX)
    assert decode_vertex(inst_p, (0, 1, 2, 3)).members == ()
    inst_p3 = Instance(PATH4, 0, 3, 3, Variant.VERTEX)
    cut = decode_vertex(inst_p3, (0, -1, 4, 4))
    assert cut.members == (1,)
    assert verify_cut(inst_p3, cut).feasible


def test_absent_ids_take_one_label_and_decoding_ignores_them():
    # Vertex 2 of the diamond is the twin of 1; without it, its id is in
    # no constraint.  The diamond's own distances give it a range, yet
    # both encoders give it the one label 0, and decoding reads only the
    # graph's vertices, whatever label the id holds.
    g = DIAMOND.induced({0, 1, 3})
    distances = (bfs_distances(DIAMOND, 0), bfs_distances(DIAMOND, 3))
    for variant, encode, decode in (
            (Variant.EDGE, encode_edge_cut, decode_edge),
            (Variant.VERTEX, encode_vertex_cut, decode_vertex)):
        inst = Instance(g, 0, 3, 2, variant)
        q = encode(inst, distances=distances)
        assert q.domains[2] == (0,)
        z = solve_min_csp(q, build_heuristic(g)).assignment
        cut = decode(inst, z)
        assert z[2] == 0 and cut.size == 1
        for label in (-1, 3):
            assert decode(inst, z[:2] + (label,) + z[3:]) == cut


def test_decode_vertex_rejects_broken_edge_constraint():
    inst = Instance(DIAMOND, 0, 3, 2, Variant.VERTEX)
    with pytest.raises(InvalidAssignment):
        decode_vertex(inst, (0, 3, -1, 3))  # edge (0,1) has |0-3| > 1


def test_decode_vertex_rejects_deleted_terminals_and_wrong_length():
    # A deleted terminal fails the terminal's own label check.
    inst = Instance(DIAMOND, 0, 3, 2, Variant.VERTEX)
    with pytest.raises(InvalidAssignment, match="^s must be labeled 0, got -1$"):
        decode_vertex(inst, (-1, -1, -1, 3))
    with pytest.raises(InvalidAssignment, match="^t must be labeled 3, got -1$"):
        decode_vertex(inst, (0, -1, -1, -1))
    for z in ((0, -1, 3), (0, -1, -1, 3, 3)):
        with pytest.raises(InvalidAssignment,
                           match="^assignment length mismatch$"):
            decode_vertex(inst, z)


def cut_to_assignment(inst, cut):
    """Labels of a feasible cut: each kept vertex's hop distance from s in
    the graph minus the cut (L+1 when farther or unreached), clamped into
    its domain in the instance's encoding; deleted vertices get -1."""
    if not verify_cut(inst, cut).feasible:  # raises on a cut that does not fit
        raise InvalidCut("cut is not feasible, no labeling exists")
    L = inst.L
    if cut.variant is Variant.EDGE:
        rest, q = without_edges(inst.graph, cut.members), encode_edge_cut(inst)
    else:
        rest = without_vertices(inst.graph, cut.members)
        q = encode_vertex_cut(inst)
    dist = bfs_distances(rest, inst.s, cap=L + 1)
    labels = []
    for v, dom in enumerate(q.domains):
        if cut.variant is Variant.VERTEX and v in cut.members:
            labels.append(-1)
            continue
        lo = min(x for x in dom if x != -1)
        labels.append(min(max(L + 1 if dist[v] is None else dist[v], lo),
                          dom[-1]))
    return tuple(labels)


def test_cut_to_assignment_examples():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    z = cut_to_assignment(inst, CutSet(Variant.EDGE, ((1, 2),)))
    assert z == (0, 1, 3, 4)  # vertex 2's domain is 2..3

    disconnected = Instance(Graph.from_edges(3, [(0, 1)]), 0, 2, 2, Variant.EDGE)
    assert cut_to_assignment(disconnected, CutSet(Variant.EDGE, ())) == (0, 0, 3)

    instd = Instance(DIAMOND, 0, 3, 2, Variant.VERTEX)
    z2 = cut_to_assignment(instd, CutSet(Variant.VERTEX, (1, 2)))
    assert z2 == (0, -1, -1, 3)


def test_cut_to_assignment_rejects_infeasible():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    with pytest.raises(InvalidCut):
        cut_to_assignment(inst, CutSet(Variant.EDGE, ()))


def _reference_ranges(inst):
    """Each vertex's (least, greatest) label, from uncapped BFS distances."""
    L = inst.L
    ds = bfs_distances(inst.graph, inst.s)
    dt = bfs_distances(inst.graph, inst.t)
    lo = [L + 1 if d is None else min(d, L + 1) for d in ds]
    hi = [0 if d is None else L + 1 - min(d, L + 1) for d in dt]
    return [(min(a, b), b) for a, b in zip(lo, hi)]


def _reference_labels(inst, cut):
    """BFS labels on a copy of the graph with the cut deleted, clamped into
    the label domains."""
    if cut.variant is Variant.EDGE:
        rest = without_edges(inst.graph, cut.members)
    else:
        rest = without_vertices(inst.graph, cut.members)
    dist = bfs_distances(rest, inst.s)
    if dist[inst.t] is not None and dist[inst.t] <= inst.L:
        raise InvalidCut("cut is not feasible, no labeling exists")
    L = inst.L
    ranges = _reference_ranges(inst)
    return tuple(
        -1 if cut.variant is Variant.VERTEX and v in cut.members
        else min(max(L + 1 if dist[v] is None else dist[v], lo), hi)
        for v, (lo, hi) in enumerate(ranges))


def test_cut_to_assignment_matches_labels_of_the_cut_graph():
    rng = random.Random(61)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(3, 11)
        g = random_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        s, t = rng.sample(range(n), 2)
        g = g.induced({s, t} | {v for v in range(n) if rng.random() < 0.8})
        variant = rng.choice([Variant.EDGE, Variant.VERTEX])
        L = rng.randint(1, 5)
        pool = (sorted(g.edges) if variant is Variant.EDGE
                else sorted(g.vertices - {s, t}))
        cut = CutSet(variant, rng.sample(pool, rng.randint(0, len(pool))))
        if variant is Variant.VERTEX and g.has_edge(s, t):
            with pytest.raises(NoVertexCut):
                Instance(g, s, t, L, variant)
            continue
        inst = Instance(g, s, t, L, variant)
        try:
            expected = _reference_labels(inst, cut)
        except InvalidCut:
            with pytest.raises(InvalidCut, match="cut is not feasible"):
                cut_to_assignment(inst, cut)
            outcomes.add((variant, False))
            continue
        assert cut_to_assignment(inst, cut) == expected
        outcomes.add((variant, True))
    assert len(outcomes) == 4


def test_encodings_share_one_relation_object_per_relation():
    # One constraint per edge whose relation some label pair violates; the
    # edges at a vertex-variant terminal are not among them.
    g = grid_graph(4, 4)
    q = encode_vertex_cut(Instance(g, 0, 15, 6, Variant.VERTEX))
    edges = [e for e in g.edges if not _is_full(q, *e)]
    assert len(edges) == g.m - 4
    edge_hard = [c for c in q.hard if len(c.scope) == 2]
    assert len(edge_hard) == len(q.hard) == len(edges)
    assert (len({id(c.allowed) for c in edge_hard})
            == len({(q.domains[u], q.domains[v]) for u, v in edges}))
    assert len(q.soft) == g.n - 2
    assert (len({id(c.allowed) for c in q.soft})
            == len({q.domains[c.scope[0]] for c in q.soft}))
    q = encode_edge_cut(Instance(g, 0, 15, 6, Variant.EDGE))
    edges = [e for e in g.edges if not _is_full(q, *e)]
    assert len(q.soft) == len(edges) and not q.hard
    assert (len({id(c.allowed) for c in q.soft})
            == len({(q.domains[u], q.domains[v]) for u, v in edges}))


def _grids_and_ktrees(rng):
    """Seeded grids with holes and partial k-trees."""
    graphs = [grid_with_holes(rng, rng.randint(4, 6), rng.randint(4, 6),
                              rng.randint(1, 4)) for _ in range(6)]
    return graphs + [parse_instance(generate("partial-ktree", [24, k, 0.7],
                                             seed=k)) for k in (2, 3, 4)]


def _instances(rng, g):
    """Both variants of a random terminal pair of g, at L = 2 and at one
    more than the pair's distance."""
    vertices = g.sorted_vertices()
    for variant in Variant:
        s, t = rng.sample(vertices, 2)
        while variant is Variant.VERTEX and g.has_edge(s, t):
            s, t = rng.sample(vertices, 2)
        d = bfs_distances(g, s)[t]
        for L in sorted({2, 3 if d is None else d + 1}):
            yield Instance(g, s, t, L, variant)


def test_encoders_emit_no_vacuous_constraint():
    # Every constraint rules some tuple of its scope's labels out, and each
    # edge whose relation does so has its constraint.
    rng = random.Random(2001)
    dropped = kept = 0
    for g in _grids_and_ktrees(rng):
        for inst in _instances(rng, g):
            q = _encode(inst)
            for c in q.hard + q.soft:
                assert len(c.allowed) < math.prod(len(q.domains[v])
                                                  for v in c.scope)
            edges = {c.scope for c in q.hard + q.soft if len(c.scope) == 2}
            assert edges == {e for e in g.edges if not _is_full(q, *e)}
            unary = {c.scope[0] for c in q.hard + q.soft if len(c.scope) == 1}
            assert unary == ((g.vertices - {inst.s, inst.t})
                             if inst.variant is Variant.VERTEX else set())
            dropped += g.m - len(edges)
            kept += len(edges)
    assert dropped and kept


def test_vacuous_constraints_change_no_solve():
    # The encoding with the terminal pins and every full edge constraint put
    # back adds 0 to every table entry the encoders' does not, so under
    # every root the DP returns the same cost and the same assignment.
    rng = random.Random(2002)
    solves = 0
    for g in _grids_and_ktrees(rng):
        base = build_heuristic(g)
        for inst in _instances(rng, g):
            q = _encode(inst)
            padded = _encoding_over(inst, q.domains)
            assert len(padded.hard + padded.soft) > len(q.hard + q.soft)
            for root in range(base.n_nodes):
                td = TreeDecomposition(base.bags, base.tree_edges, root)
                assert solve_min_csp(q, td) == solve_min_csp(padded, td), (
                    sorted(g.edges), inst.s, inst.t, inst.L, inst.variant,
                    root)
                solves += 1
    assert solves >= 700


def test_one_bad_relation_names_the_variable_of_each_scope():
    # Value 5 lies outside the second variable's domain, on either scope.
    bad = frozenset({(0, 5)})
    for scope in ((2, 3), (4, 7)):
        with pytest.raises(InvalidAssignment,
                           match=f"value 5 outside domain of variable "
                                 f"{scope[1]}$"):
            CspInstance(8, ((0,),) * 8, (Constraint(scope, bad),), ())


def test_relation_index_keys_each_relation_and_domains_pair_once():
    g = grid_graph(4, 4)
    rng = random.Random(12)
    for q in (encode_vertex_cut(Instance(g, 0, 15, 6, Variant.VERTEX)),
              encode_edge_cut(Instance(g, 0, 15, 6, Variant.EDGE)),
              *(random_csp(rng) for _ in range(30))):
        cons = q.hard + q.soft
        keys = [(c.allowed, tuple(q.domains[v] for v in c.scope))
                for c in cons]
        assert len(q.relation_index) == len(cons)
        assert [q.relations[r] for r in q.relation_index] == keys
        assert list(q.relations) == list(dict.fromkeys(keys))
    # An equal relation built apart shares the index; other domains do not.
    near = frozenset({(0, 1), (1, 0)})
    q = CspInstance(4, ((0, 1), (0, 1), (0, 1), (0, 1, 2)),
                    (Constraint((0, 1), near),),
                    (Constraint((1, 2), near), Constraint((2, 3), near),
                     Constraint((0, 2), frozenset({(1, 0), (0, 1)}))))
    assert q.relation_index == (0, 0, 1, 0)
    # Derived fields take no part in equality.
    assert q == CspInstance(q.num_vars, q.domains, q.hard, q.soft)
    assert hash(q) == hash(CspInstance(q.num_vars, q.domains, q.hard, q.soft))


def _range_encoding(inst, ranges):
    """Reference encoding in which vertex v takes the labels ranges[v], plus
    -1 for "deleted" at every vertex of the graph but s and t in the vertex
    variant (an absent id takes its range alone); only the hard unary and
    edge constraints rule labels out."""
    deletable = (inst.graph.vertices - {inst.s, inst.t}
                 if inst.variant is Variant.VERTEX else ())
    return _encoding_over(inst, tuple(
        ((-1,) if v in deletable else ()) + tuple(range(lo, hi + 1))
        for v, (lo, hi) in enumerate(ranges)))


def _encoding_over(inst, domains):
    """Reference encoding over the given domains with every constraint: the
    terminals' hard unary pins and one constraint per edge, vacuous or not
    (and the unit costs of deletion in the vertex variant)."""
    L, g = inst.L, inst.graph
    hard = [Constraint((inst.s,), frozenset({(0,)})),
            Constraint((inst.t,), frozenset({(L + 1,)}))]
    edges = [Constraint((u, v), _near(domains[u], domains[v]))
             for u, v in sorted(g.edges)]
    if inst.variant is Variant.EDGE:
        return CspInstance(g.n, domains, hard, edges)
    soft = [Constraint((v,), frozenset((x,) for x in domains[v] if x != -1))
            for v in g.sorted_vertices() if v not in (inst.s, inst.t)]
    return CspInstance(g.n, domains, hard + edges, soft)


def _full_domain_encoding(inst):
    """Every vertex takes every label 0..L+1 (and -1, see _range_encoding)."""
    return _range_encoding(inst, [(0, inst.L + 1)] * inst.graph.n)


def _encode(inst):
    return (encode_edge_cut if inst.variant is Variant.EDGE
            else encode_vertex_cut)(inst)


def test_bounded_domains_keep_the_full_domain_optimum():
    rng = random.Random(1705)
    graphs = [(g, 0, g.n - 1) for g in atlas_graphs(6) if g.n >= 2]
    for _ in range(200):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.randint(0, 2 * n))
        s, t = rng.sample(range(n), 2)
        g = g.induced({s, t} | {v for v in range(n) if rng.random() < 0.8})
        graphs.append((g, s, t))
    seen = set()
    for g, s, t in graphs:
        td = build_heuristic(g)
        ds, dt = bfs_distances(g, s), bfs_distances(g, t)
        for L in range(1, 7):
            for variant in (Variant.EDGE, Variant.VERTEX):
                if variant is Variant.VERTEX and g.has_edge(s, t):
                    continue
                inst = Instance(g, s, t, L, variant)
                want = solve_min_csp(_full_domain_encoding(inst), td).cost
                assert solve_min_csp(_encode(inst), td).cost == want, (
                    sorted(g.edges), s, t, L, variant)
                seen.add((variant, want > 0))
                if ds[t] is None:
                    seen.add("disconnected terminals")
                if len(g.vertices) < g.n:
                    seen.add("absent vertices")
                if any(a is not None and b is not None and a + b > L + 1
                       for a, b in zip(ds, dt)):
                    seen.add("vertices off every short path")
    assert seen == {(v, c) for v in Variant for c in (False, True)} | {
        "disconnected terminals", "absent vertices",
        "vertices off every short path"}


def test_full_domains_build_a_table_over_four_million_entries():
    # The 5x6 grid from corner to corner at L=10, vertex variant: with every
    # label in every domain the DP still builds a table of over 4 M entries.
    g = grid_graph(5, 6)
    inst = Instance(g, 0, 29, 10, Variant.VERTEX)
    td = build_heuristic(g)
    full, bounded = _full_domain_encoding(inst), encode_vertex_cut(inst)
    largest = max(math.prod(len(full.domains[v]) for v in bag)
                  for bag in td.bags)
    assert largest > 4_000_000
    assert solve_min_csp(full, td).cost == solve_min_csp(bounded, td).cost == 2


def _all_assignments(q):
    return product(*q.domains)


def test_round_trip_cost_sandwich_small_corpus():
    # Both directions of the encoding correspondence, on every connected
    # graph with up to 5 vertices (one terminal pair each, L in 1..3):
    #   feasible F -> labeling with at most |F| violations,
    #   hard-feasible z -> feasible cut with exactly the violated count.
    for g in atlas_graphs(5):
        if g.n < 2:
            continue
        s, t = 0, g.n - 1
        for L in (1, 2, 3):
            for variant in (Variant.EDGE, Variant.VERTEX):
                if variant is Variant.VERTEX and g.has_edge(s, t):
                    continue
                inst = Instance(g, s, t, L, variant)
                q = (encode_edge_cut if variant is Variant.EDGE
                     else encode_vertex_cut)(inst)
                decode = (decode_edge if variant is Variant.EDGE
                          else decode_vertex)
                pool = (sorted(g.edges) if variant is Variant.EDGE
                        else [v for v in range(g.n) if v not in (s, t)])
                for k in range(min(2, len(pool)) + 1):
                    for mem in combinations(pool, k):
                        cut = CutSet(variant, mem)
                        if not verify_cut(inst, cut).feasible:
                            continue
                        z = cut_to_assignment(inst, cut)
                        assert satisfies_all_hard(q, z)
                        assert violated_soft_count(q, z) <= cut.size
                if g.n <= 4:
                    for z in _all_assignments(q):
                        if not satisfies_all_hard(q, z):
                            continue
                        cut = decode(inst, z)
                        assert verify_cut(inst, cut).feasible
                        assert cut.size == violated_soft_count(q, z)


def test_min_csp_cost_equals_min_cut_size_spotcheck():
    for g, s, t, L in ((PATH4, 0, 3, 3), (C5, 0, 2, 2), (DIAMOND, 0, 3, 2)):
        for variant in (Variant.EDGE, Variant.VERTEX):
            if variant is Variant.VERTEX and g.has_edge(s, t):
                continue
            inst = Instance(g, s, t, L, variant)
            q = (encode_edge_cut if variant is Variant.EDGE
                 else encode_vertex_cut)(inst)
            assert brute_force_csp(q).cost == brute_force_cut(inst).size


def test_tight_domains_solve_exactly_as_the_wide_ones():
    # The wide encoding has the label ranges alone: the terminals keep
    # their whole ranges and their neighbours every label.  Every label the
    # tight encoding drops is infinite by the time the DP eliminates its
    # variable, so under every root the DP returns the same assignment,
    # hence the same cut.
    rng = random.Random(418)
    pinned = dropped = solves = 0
    for g in _grids_and_ktrees(rng):
        base = build_heuristic(g)
        for inst in _instances(rng, g):
            s, t = inst.s, inst.t
            wide = _range_encoding(inst, _reference_ranges(inst))
            tight = _encode(inst)
            pinned += len(wide.domains[s]) > 1
            dropped += sum(len(wide.domains[v]) - len(tight.domains[v])
                           for v in g.vertices if v not in (s, t))
            decode = (decode_edge if inst.variant is Variant.EDGE
                      else decode_vertex)
            for root in range(base.n_nodes):
                td = TreeDecomposition(base.bags, base.tree_edges, root)
                want = solve_min_csp(wide, td)
                got = solve_min_csp(tight, td)
                assert got == want, (sorted(g.edges), s, t, inst.L,
                                     inst.variant, root)
                assert (decode(inst, got.assignment).members
                        == decode(inst, want.assignment).members)
                solves += 1
    assert pinned and dropped and solves >= 700


def test_csp_instance_checks_each_relation_it_holds():
    # A bare Constraint leaves a frozenset's members alone; the instance
    # that holds it checks them, once per relation.
    with pytest.raises(InvalidAssignment, match="is not a tuple"):
        CspInstance(1, ((0,),), (Constraint((0,), frozenset({0})),), ())
    with pytest.raises(InvalidAssignment, match="arity mismatch"):
        CspInstance(2, ((0,), (0,)), (),
                    (Constraint((0, 1), frozenset({(0, 0), (0,)})),))
    c = Constraint([0, 1], [[0, 1], [1, 0]])
    assert c.scope == (0, 1)
    assert c.allowed == frozenset({(0, 1), (1, 0)})
    q = CspInstance(2, ((0, 1), (0, 1)), (), (c,))
    assert q.relations == ((c.allowed, ((0, 1), (0, 1))),)


def test_csp_instance_rejects_malformed_input():
    shared = frozenset({(0, 1)})
    cases = [
        ("scope may not be empty",
         lambda: Constraint((), frozenset({()}))),
        ("sorted and distinct",
         lambda: Constraint((1, 0), frozenset({(0, 0)}))),
        ("weight must be a positive integer",
         lambda: Constraint((0,), frozenset({(0,)}), 0)),
        ("weight must be a positive integer",
         lambda: Constraint((0,), frozenset({(0,)}), 2.0)),
        ("one domain required",
         lambda: CspInstance(2, ((0,),), (), ())),
        ("sorted and duplicate-free",
         lambda: CspInstance(1, ((1, 0),), (), ())),
        (r"scope \(0, 1\) out of range",
         lambda: CspInstance(1, ((0,),),
                             (Constraint((0, 1), frozenset({(0, 0)})),), ())),
        ("arity mismatch",
         lambda: CspInstance(1, ((0,),),
                             (Constraint((0,), frozenset({(0, 0)})),), ())),
        ("value 5 outside domain of variable 0",
         lambda: CspInstance(1, ((0,),), (),
                             (Constraint((0,), frozenset({(5,)})),))),
        # One relation object on two scopes: valid on (0, 1), and invalid
        # on (1, 2) only because variable 2's domain lacks the value 1.
        ("value 1 outside domain of variable 2",
         lambda: CspInstance(3, ((0,), (0, 1), (0,)),
                             (Constraint((0, 1), shared),),
                             (Constraint((1, 2), shared),))),
    ]
    for message, build in cases:
        with pytest.raises(InvalidAssignment, match=message):
            build()
