import random
from itertools import combinations

import pytest

from lbcut import (Graph, InvalidDecomposition, ParseError, TreeDecomposition,
                   build_heuristic, generate, parse_instance,
                   prune_decomposition, read_td, split_at,
                   subtree_vertex_sets, validate, width, write_td)

from conftest import (exact_treewidth, fan_instance, grid_graph, random_graph,
                      random_tree)

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


# validate raises InvalidDecomposition on any violation, so a bare call
# asserts that the decomposition is valid.
def test_validate_single_bag():
    td = TreeDecomposition(((0, 1, 2),), frozenset())
    validate(td, PATH3)


def test_validate_path_bags():
    td = TreeDecomposition(((0, 1), (1, 2)), frozenset({(0, 1)}))
    validate(td, PATH3)
    assert width(td) == 1


def test_constructor_rejects_non_trees():
    # a forest, k edges over k nodes, k-1 edges that leave a node unreached,
    # and no nodes at all
    for bags, edges, want in (
            (((0, 1), (1, 2)), set(), "tree"),
            (((0,), (1,), (2,)), {(0, 1), (1, 2), (0, 2)}, "tree"),
            (((0,), (1,), (2,), (3,)), {(0, 1), (1, 2), (0, 2)}, "connect"),
            ((), set(), "no nodes")):
        with pytest.raises(InvalidDecomposition, match=want):
            TreeDecomposition(bags, frozenset(edges))
    # and a file that describes one
    for text in ("s td 2 1 3\nb 1 1\nb 2 2\n", "s td 0 0 3\n"):
        with pytest.raises(InvalidDecomposition):
            read_td(text)


def test_validate_missing_vertex_and_edge():
    td = TreeDecomposition(((0, 1),), frozenset())
    with pytest.raises(InvalidDecomposition, match="vertex 2"):
        validate(td, PATH3)
    td2 = TreeDecomposition(((0, 1), (2,)), frozenset({(0, 1)}))
    with pytest.raises(InvalidDecomposition, match=r"edge \(1,2\)"):
        validate(td2, PATH3)
    td3 = TreeDecomposition(((0, 1), (1, 2), (2, 3)), frozenset({(0, 1), (1, 2)}))
    with pytest.raises(InvalidDecomposition, match="vertex 3"):
        validate(td3, PATH3)


def test_validate_names_the_least_vertex_in_no_bag():
    # The README's 3x3 grid example misses vertices 3 and 4; shifting
    # every id up by one must name the same vertex, shifted.
    grid = grid_graph(3, 3)
    bags = ((0, 1, 2), (2, 5, 8), (6, 7, 8))
    path = frozenset({(0, 1), (1, 2)})
    for shift in (0, 1):
        g = Graph(grid.n + shift, frozenset(v + shift for v in grid.vertices),
                  frozenset((u + shift, v + shift) for u, v in grid.edges))
        td = TreeDecomposition(
            tuple(tuple(v + shift for v in bag) for bag in bags), path)
        with pytest.raises(InvalidDecomposition,
                           match=f"^vertex {3 + shift} appears in no bag$"):
            validate(td, g)


def test_validate_names_the_least_uncovered_edge():
    # A 6-cycle whose bags {0,1,2} and {3,4,5} miss the edges (2,3) and
    # (0,5); every shift of the ids must name (0,5), shifted.
    for shift in range(4):
        ids = range(shift, shift + 6)
        edges = {(ids[i], ids[i + 1]) for i in range(5)} | {(ids[0], ids[5])}
        g = Graph(shift + 6, frozenset(ids), frozenset(edges))
        td = TreeDecomposition((tuple(ids[:3]), tuple(ids[3:])),
                               frozenset({(0, 1)}))
        with pytest.raises(
                InvalidDecomposition,
                match=rf"^edge \({shift},{shift + 5}\) is covered by no bag$"):
            validate(td, g)


def test_validate_disconnected_occurrences():
    g = Graph.from_edges(3, [(0, 1)])
    td = TreeDecomposition(((0, 1), (2,), (0,)), frozenset({(0, 1), (1, 2)}))
    with pytest.raises(InvalidDecomposition, match="subtree"):
        validate(td, g)


def _valid(td: TreeDecomposition, g: Graph) -> bool:
    try:
        validate(td, g)
    except InvalidDecomposition:
        return False
    return True


def _axioms_hold(td: TreeDecomposition, g: Graph) -> bool:
    """The decomposition axioms, checked straight from their definitions on
    a decomposition whose tree edges form a tree."""
    bag_sets = td.bag_sets
    if not set().union(*bag_sets) <= g.vertices:
        return False
    if not all(any({u, v} <= bs for bs in bag_sets) for u, v in g.edges):
        return False
    adj: dict[int, set[int]] = {a: set() for a in range(td.n_nodes)}
    for x, y in td.tree_edges:
        adj[x].add(y)
        adj[y].add(x)
    for v in g.vertices:
        occ = {a for a, bs in enumerate(bag_sets) if v in bs}
        if not occ:
            return False
        seen = {min(occ)}
        queue = [min(occ)]
        for a in queue:
            for b in adj[a] & occ - seen:
                seen.add(b)
                queue.append(b)
        if seen != occ:
            return False
    return True


def test_validate_matches_axioms_on_random_decompositions():
    rng = random.Random(29)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        own = build_heuristic(g)
        for td in (own, TreeDecomposition(own.bags, own.tree_edges,
                                          root=rng.randrange(own.n_nodes))):
            bags = [list(b) for b in td.bags]
            a = rng.randrange(td.n_nodes)
            change = rng.choice(("none", "drop", "add", "stray"))
            if change == "drop" and bags[a]:
                bags[a].remove(rng.choice(bags[a]))
            elif change == "add":
                bags[a].append(rng.randrange(n))
            elif change == "stray":
                bags[a].append(n + rng.randrange(3))
            broken = TreeDecomposition(tuple(map(tuple, bags)), td.tree_edges,
                                       root=td.root)
            want = _axioms_hold(broken, g)
            assert _valid(broken, g) == want, (g, broken)
            verdicts[want] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_width_examples():
    assert width(TreeDecomposition(((0, 1, 2, 3),), frozenset())) == 3
    assert width(TreeDecomposition(((0,), (1,)), frozenset({(0, 1)}))) == 0
    td = TreeDecomposition(((0, 1), (0, 1, 2), (1, 2)),
                           frozenset({(0, 1), (1, 2)}))
    assert width(td) == 2


def test_build_heuristic_on_trees_gives_width_one():
    rng = random.Random(3)
    for _ in range(30):
        g = random_tree(rng, rng.randint(2, 50))
        own = build_heuristic(g)
        for td in (own, TreeDecomposition(own.bags, own.tree_edges,
                                          root=rng.randrange(own.n_nodes))):
            validate(td, g)
            assert width(td) == 1


def test_build_heuristic_complete_graph():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    td = build_heuristic(k4)
    validate(td, k4)
    assert width(td) == 3


def test_build_heuristic_grid():
    g = grid_graph(3, 3)
    assert exact_treewidth(g) == 3
    td = build_heuristic(g)
    validate(td, g)
    assert width(td) <= 4


def _reference_elimination(g: Graph) -> TreeDecomposition:
    """The elimination rule written out: repeatedly take the vertex with the
    smallest (degree, fill-in, id) in the graph completed so far; its bag is
    itself plus its neighbors, which then become a clique.  A node's parent
    is the node of its earliest-eliminated other bag member, and a node with
    no other member is joined to the next node."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def key(v):
        fill = sum(1 for x, y in combinations(adj[v], 2) if y not in adj[x])
        return len(adj[v]), fill, v

    order, bags = [], []
    while adj:
        v = min(adj, key=key)
        nbrs = adj.pop(v)
        for x in nbrs:
            adj[x].discard(v)
            adj[x].update(nbrs - {x})
        order.append(v)
        bags.append(tuple(sorted(nbrs | {v})))
    step = {v: i for i, v in enumerate(order)}
    edges = set()
    for i, bag in enumerate(bags):
        others = [step[u] for u in bag if u != order[i]]
        if others:
            edges.add((i, min(others)))
        elif i + 1 < len(bags):
            edges.add((i, i + 1))
    return TreeDecomposition(tuple(bags), frozenset(edges), root=0)


def _assert_follows_rule(g: Graph) -> None:
    td = build_heuristic(g)
    want = _reference_elimination(g)
    assert (td.bags, td.tree_edges, td.root) == \
        (want.bags, want.tree_edges, want.root), g


def test_build_heuristic_follows_degree_fill_in_id_rule():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(1, 16)
        _assert_follows_rule(
            random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
    # The benchmark's graph classes, whole and with about 30% of their
    # vertices absent.
    classes = [fan_instance(k).graph for k in (100, 120)]
    classes += [parse_instance(generate("grid", [r, r])) for r in range(4, 17, 2)]
    classes += [parse_instance(generate("partial-ktree", [300, k, 0.7], seed=seed))
                for k, seed in ((3, 11), (4, 15))]
    for g in classes:
        _assert_follows_rule(g)
        _assert_follows_rule(
            g.induced(v for v in g.sorted_vertices() if rng.random() < 0.7))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_heuristic_meets_partial_ktree_width(k):
    for n in (100, 200, 400):
        for seed in range(5):
            g = parse_instance(generate("partial-ktree", [n, k, 0.8], seed=seed))
            td = build_heuristic(g)
            validate(td, g)
            assert width(td) <= k, (n, k, seed, width(td))


def test_split_at_root_and_leaf():
    g = PATH3
    td = TreeDecomposition(((0, 1), (1, 2)), frozenset({(0, 1)}), root=0)
    sp = split_at(td, g, 0)
    assert sp.below.bags == td.bags
    assert sp.above.bags == ((0, 1),)
    sp_leaf = split_at(td, g, 1)
    assert sp_leaf.below.bags == ((1, 2),)
    assert sp_leaf.above.bags == td.bags


def test_split_at_middle_overlap_is_bag():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(((0, 1), (1, 2), (2, 3)),
                           frozenset({(0, 1), (1, 2)}), root=0)
    sp = split_at(td, g, 1)
    assert sp.below.n_nodes == 2 and sp.above.n_nodes == 2
    overlap = sp.below_graph.vertices & sp.above_graph.vertices
    assert overlap <= set(td.bags[1])
    validate(sp.below, sp.below_graph)
    validate(sp.above, sp.above_graph)


def test_prune_decomposition_examples():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    td = TreeDecomposition(((0, 1, 3), (0, 2, 3)), frozenset({(0, 1)}))
    g0, td0 = prune_decomposition(td, g, ())
    assert g0 == g and td0.bags == td.bags

    g1, td1 = prune_decomposition(td, g, {1})
    assert td1.bags == ((0, 3), (0, 2, 3))
    validate(td1, g1)

    g2, td2 = prune_decomposition(td, g, g.vertices)
    assert td2.bags == ((), ())
    assert not g2.vertices


def test_subtree_vertex_sets():
    td = TreeDecomposition(((0, 1), (1, 2)), frozenset({(0, 1)}), root=0)
    sets = subtree_vertex_sets(td)
    assert sets[0] == {0, 1, 2}
    assert sets[1] == {1, 2}
    leaf_td = TreeDecomposition(((0, 1, 2),), frozenset())
    assert subtree_vertex_sets(leaf_td)[0] == {0, 1, 2}


def test_one_tree_under_two_roots():
    bags, edges = ((0, 1), (1, 2)), frozenset({(0, 1)})
    td = TreeDecomposition(bags, edges, root=0)
    td2 = TreeDecomposition(bags, edges, root=1)
    assert td2.root == 1 and td2.parent[0] == 1 and td2.parent[1] is None
    assert td.root == 0 and td.parent[1] == 0 and td.parent[0] is None
    assert td2.bags == td.bags and td2.tree_edges == td.tree_edges


def test_random_graph_surgery_keeps_validity():
    rng = random.Random(41)
    for trial in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        td = build_heuristic(g)
        if trial % 2:
            td = TreeDecomposition(td.bags, td.tree_edges,
                                   root=rng.randrange(td.n_nodes))
        validate(td, g)

        b = rng.randrange(td.n_nodes)
        sp = split_at(td, g, b)
        validate(sp.below, sp.below_graph)
        validate(sp.above, sp.above_graph)
        assert sp.below_graph.vertices & sp.above_graph.vertices <= set(td.bags[b])

        # Helly property, checked directly: edges of each half's induced
        # subgraph are covered inside the half's own bags.
        for half, hg in ((sp.below, sp.below_graph), (sp.above, sp.above_graph)):
            bag_sets = half.bag_sets
            for u, v in hg.edges:
                assert any({u, v} <= bs for bs in bag_sets)

        drop = rng.sample(sorted(g.vertices), rng.randint(0, len(g.vertices)))
        g2, td2 = prune_decomposition(td, g, drop)
        validate(td2, g2)


def test_pace_round_trip_exact():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    td = build_heuristic(g)
    text = write_td(td, g.n, comments=["five cycle"])
    back, n = read_td(text)
    assert n == g.n
    assert back.bags == td.bags
    assert back.tree_edges == td.tree_edges
    assert write_td(back, n, comments=["five cycle"]) == text


def test_pace_round_trip_empty_bags():
    td = TreeDecomposition(((0,), (), (1,)), frozenset({(0, 1), (1, 2)}))
    text = write_td(td, 2)
    back, n = read_td(text)
    assert back.bags == ((0,), (), (1,))
    assert write_td(back, n) == text


def test_read_td_errors():
    with pytest.raises(ParseError):
        read_td("b 1 2\n")  # data before header
    with pytest.raises(ParseError):
        read_td("s td 2 1 3\nb 1 1\n")  # missing bag
    with pytest.raises(ParseError):
        read_td("s td 1 2 3\nb 1 1\n")  # declared width wrong
    with pytest.raises(ParseError):
        read_td("s td 1 1 3\nb 1 4\n")  # vertex out of range
    with pytest.raises(ParseError):
        read_td("s td 2 1 3\nb 1 1\nb 1 2\n1 2\n")  # duplicate bag id
    with pytest.raises(ParseError):
        read_td("s td 1 1 1\nb 1 1\n\n")  # blank line
