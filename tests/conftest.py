"""Shared helpers: graph corpora, independent brute-force cross-checks."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product

import networkx as nx

from lbcut import Constraint, CspInstance, CutSet, Graph, Instance, Variant, verify_cut
from lbcut.graph import norm_edge

# number of isomorphism classes of (connected) simple graphs per vertex count
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def to_graph(nx_graph) -> Graph:
    n = nx_graph.number_of_nodes()
    assert sorted(nx_graph.nodes()) == list(range(n))
    return Graph.from_edges(n, list(nx_graph.edges()))


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int, connected_only: bool = True) -> tuple[Graph, ...]:
    """Isomorph-free exhaustive enumeration of graphs with 1..max_n vertices,
    taken from the published atlas of all graphs on up to seven vertices."""
    assert max_n <= 7
    out = []
    counts: dict[int, int] = {}
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        if connected_only and not nx.is_connected(G):
            continue
        counts[n] = counts.get(n, 0) + 1
        out.append(to_graph(G))
    expected = CONNECTED_COUNTS if connected_only else ALL_COUNTS
    assert counts == {n: c for n, c in expected.items() if n <= max_n}
    return tuple(out)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(m, len(pairs))
    return Graph.from_edges(n, rng.sample(pairs, m))


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth by Held-Karp style DP over elimination prefixes.

    The bag of a vertex eliminated after exactly the set S is determined by
    (S, v): the vertices outside S reachable from v through S.
    """
    verts = g.sorted_vertices()
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [frozenset(idx[w] for w in g.neighbors(v)) for v in verts]

    def reach_outside(smask: int, v: int) -> int:
        seen = 1 << v
        stack = [v]
        count = 0
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if seen >> y & 1:
                    continue
                seen |= 1 << y
                if smask >> y & 1:
                    stack.append(y)
                else:
                    count += 1
        return count

    best = {0: -1}
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            smask = 0
            for i in combo:
                smask |= 1 << i
            val = min(
                max(best[smask ^ (1 << i)], reach_outside(smask ^ (1 << i), i))
                for i in combo)
            best[smask] = val
    return best[(1 << n) - 1]


def _separates(g: Graph, drop: set[int], s: int, t: int) -> bool:
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in drop or w in seen:
                continue
            if w == t:
                return False
            seen.add(w)
            stack.append(w)
    return True


def brute_min_vertex_cut_size(g: Graph, s: int, t: int) -> int:
    """Smallest vertex set (excluding s, t) disconnecting s from t."""
    assert not g.has_edge(s, t)
    others = [v for v in g.sorted_vertices() if v not in (s, t)]
    for k in range(len(others) + 1):
        for combo in combinations(others, k):
            if _separates(g, set(combo), s, t):
                return k
    raise AssertionError("unreachable: removing all other vertices separates")


def brute_min_edge_cut_size(g: Graph, s: int, t: int) -> int:
    edges = sorted(g.edges)
    for k in range(len(edges) + 1):
        for combo in combinations(edges, k):
            g2 = without_edges(g, combo)
            if _separates(g2, set(), s, t):
                return k
    raise AssertionError("unreachable")


def without_vertices(g: Graph, drop) -> Graph:
    return g.induced(g.vertices - frozenset(drop))


def without_edges(g: Graph, drop) -> Graph:
    dropped = frozenset(norm_edge(u, v) for u, v in drop)
    return Graph(g.n, g.vertices, g.edges - dropped)


def oracle_feasible(inst: Instance, members) -> bool:
    return verify_cut(inst, CutSet(inst.variant, tuple(members))).feasible


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def grid_with_holes(rng: random.Random, rows: int, cols: int, holes: int,
                    edge_keep: float = 0.9) -> Graph:
    """A rows x cols grid without ``holes`` random vertices, keeping each
    remaining edge with probability ``edge_keep``; ids stay grid positions."""
    g = without_vertices(grid_graph(rows, cols),
                         rng.sample(range(rows * cols), holes))
    return without_edges(g, [e for e in sorted(g.edges)
                             if rng.random() >= edge_keep])


def fan_instance(k: int) -> Instance:
    """s = 0 and t = 1 adjacent to every vertex of the path 2..k+1, L = 2."""
    path = list(range(2, k + 2))
    edges = [(0, p) for p in path] + [(1, p) for p in path]
    edges += list(zip(path, path[1:]))
    return Instance(Graph.from_edges(k + 2, edges), 0, 1, 2, Variant.VERTEX)


def random_csp(rng: random.Random, max_vars=10, max_dom=4,
               max_weight=1) -> CspInstance:
    """Random binary-relation CSP with a random hard/soft split.  With
    ``max_weight`` above 1 each constraint draws a weight from 1 to it
    (the hard ones ignore theirs)."""
    nv = rng.randint(1, max_vars)
    domains = tuple(tuple(range(rng.randint(1, max_dom))) for _ in range(nv))
    cons = []
    for _ in range(rng.randint(0, 2 * nv)):
        if nv >= 2 and rng.random() < 0.8:
            scope = tuple(sorted(rng.sample(range(nv), 2)))
        else:
            scope = (rng.randrange(nv),)
        space = [tuple(t) for t in product(*(domains[v] for v in scope))]
        allowed = frozenset(rng.sample(space, rng.randint(0, len(space))))
        weight = rng.randint(1, max_weight) if max_weight > 1 else 1
        cons.append(Constraint(scope, allowed, weight))
    split = rng.randint(0, len(cons))
    return CspInstance(nv, domains, tuple(cons[:split]), tuple(cons[split:]))


def satisfied_by(c: Constraint, z) -> bool:
    return tuple(z[v] for v in c.scope) in c.allowed


def violated_soft_count(q: CspInstance, z) -> int:
    return sum(1 for c in q.soft if not satisfied_by(c, z))


def violated_soft_weight(q: CspInstance, z) -> int:
    return sum(c.weight for c in q.soft if not satisfied_by(c, z))


def satisfies_all_hard(q: CspInstance, z) -> bool:
    return all(satisfied_by(c, z) for c in q.hard)


def constraint_graph(q: CspInstance) -> Graph:
    """Variables of q, adjacent when some constraint's scope holds both."""
    edges = set()
    for c in q.hard + q.soft:
        edges.update(combinations(c.scope, 2))
    return Graph(q.num_vars, frozenset(range(q.num_vars)), frozenset(edges))


def subdivide(g: Graph, rng: random.Random, max_extra: int = 1) -> Graph:
    """Replace each edge by a path with 0..max_extra extra vertices."""
    edges = []
    next_id = g.n
    lengths = {e: rng.randint(0, max_extra) for e in sorted(g.edges)}
    total = g.n + sum(lengths.values())
    for (u, v), extra in lengths.items():
        chain = [u] + [next_id + i for i in range(extra)] + [v]
        next_id += extra
        edges.extend(zip(chain, chain[1:]))
    return Graph.from_edges(total, edges)
