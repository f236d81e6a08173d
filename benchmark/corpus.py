"""Seeded instance corpora for the three benchmark workloads.

Every corpus is a fixed list of instance classes, and the seed picks one
concrete input per class.  On the exact workloads the seed moves the
terminals on a grid of seeded size, or renumbers a generated partial k-tree
away from the terminals; either way pruning leaves the same subproblem, so
optima and the solver's work do not depend on the seed, while the graph
that io, pruning and verification handle does.  On approx-auto the whole
graph is decomposed, so the seed renumbers all of it: the decomposition and
the approximation's answers may then differ a little between seeds.

Graphs are made only through ``lbcut.generate`` + ``lbcut.parse_instance``
and ``lbcut.Graph.from_edges``, looked up on the package at call time so
that a traced run sees those calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import lbcut

# ((smallest, largest) side of the square grid, placement, (a, b) offset
# of t from s).  The placement fixes which grid sides clip the region of
# short paths: "corner" two sides, "side" one, "interior" none.
GRID_CLASSES = (
    ((4, 4), "corner", (3, 3)),
    ((10, 14), "side", (2, 3)),
    ((12, 16), "interior", (2, 3)),
    ((14, 20), "corner", (3, 3)),
    ((14, 20), "side", (2, 3)),
    ((16, 20), "interior", (3, 3)),
)
GRID_L_OFFSETS = (0, 1, 2)

# (n, k, keep probability, generator seed, hop distance of the terminals)
KTREE_CLASSES = (
    (300, 3, 0.7, 11, 5),
    (400, 4, 0.7, 15, 4),
    (500, 4, 0.7, 12, 3),
    (550, 3, 0.7, 16, 6),
    (650, 3, 0.7, 13, 4),
    (700, 4, 0.7, 17, 3),
    (800, 4, 0.7, 14, 3),
    (800, 3, 0.7, 18, 5),
)
KTREE_L_OFFSETS = (0, 1)

FAN_SIZES = (100, 120)
# (n, k, keep probability, generator seed) for approx_auto on whole graphs
APPROX_KTREE_CLASSES = (
    (300, 3, 0.8, 21),
    (500, 3, 0.8, 22),
)

VARIANTS = (lbcut.Variant.EDGE, lbcut.Variant.VERTEX)


@dataclass(frozen=True)
class Case:
    """One solver call of a workload pass.

    ``fan_k`` is set for fan graphs, whose optimum is known from their
    structure; every other optimum comes from the reference ILP.
    """

    name: str
    inst: "lbcut.Instance"
    fan_k: Optional[int] = None


def _grid_terminals(rng: random.Random, size: int, placement: str,
                    a: int, b: int) -> tuple[int, int]:
    """s = (i, j) and t = (i + a, j + b) as vertex ids of the size x size grid.

    The seed moves the pair along the sides it may touch, keeping a margin
    of 2 rows and columns to the others, so the region of paths with up to
    2 detour hops touches exactly the intended sides.  Moving the pair keeps
    the row-major order of the region's ids, so pruning yields the same
    subproblem wherever the pair lands.
    """
    margin = 2
    if placement == "corner":
        i, j = 0, 0
    elif placement == "side":
        i, j = 0, rng.randrange(margin, size - margin - b)
    elif placement == "interior":
        i = rng.randrange(margin, size - margin - a)
        j = rng.randrange(margin, size - margin - b)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    return i * size + j, (i + a) * size + j + b


def grid_exact(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for (smallest, largest), placement, (a, b) in GRID_CLASSES:
        size = rng.randint(smallest, largest)
        g = lbcut.parse_instance(lbcut.generate("grid", [size, size]))
        s, t = _grid_terminals(rng, size, placement, a, b)
        d = a + b
        for off in GRID_L_OFFSETS:
            for variant in VARIANTS:
                name = (f"grid{smallest}to{largest}-{placement}-d{d}"
                        f"-L{d + off}-{variant.value}")
                cases.append(Case(name, lbcut.Instance(g, s, t, d + off, variant)))
    return cases


def _relabel(g: "lbcut.Graph", rng: random.Random,
             keep_order: frozenset = frozenset()) -> tuple["lbcut.Graph", list[int]]:
    """The graph with vertex v renamed perm[v], for a seeded permutation.

    The vertices in ``keep_order`` keep their relative order: they share out
    the ids the permutation gave them in their old order.
    """
    perm = list(range(g.n))
    rng.shuffle(perm)
    kept = sorted(keep_order)
    for v, new in zip(kept, sorted(perm[v] for v in kept)):
        perm[v] = new
    edges = [(perm[u], perm[v]) for u, v in sorted(g.edges)]
    return lbcut.Graph.from_edges(g.n, edges), perm


def _bfs(g: "lbcut.Graph", source: int) -> list[Optional[int]]:
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _far_pair(g: "lbcut.Graph", k: int, d: int) -> tuple[int, int]:
    """The first pair (in id order) of vertices with degree >= k at distance d.

    Chosen on the canonical (unrelabeled) graph, so the pair is the same
    structure for every benchmark seed.
    """
    for s in g.sorted_vertices():
        if g.degree(s) < k:
            continue
        dist = _bfs(g, s)
        for t in g.sorted_vertices():
            if t > s and dist[t] == d and g.degree(t) >= k:
                return s, t
    raise ValueError(f"no pair of degree >= {k} at distance {d}")


def ktree_exact(seed: int) -> list[Case]:
    """Partial k-trees relabeled at random, except that the vertices short
    paths can use keep their relative order: pruning then hands the solver
    the same subproblem for every seed, while the rest of the graph, which
    pruning and verification still walk, is numbered anew."""
    rng = random.Random(seed)
    cases = []
    for n, k, keep, gen_seed, d in KTREE_CLASSES:
        base = lbcut.parse_instance(
            lbcut.generate("partial-ktree", [n, k, keep], seed=gen_seed))
        s0, t0 = _far_pair(base, k, d)
        ds, dt = _bfs(base, s0), _bfs(base, t0)
        reach = d + max(KTREE_L_OFFSETS)
        near = frozenset(v for v in range(n) if ds[v] is not None
                         and dt[v] is not None and ds[v] + dt[v] <= reach)
        g, perm = _relabel(base, rng, near)
        for off in KTREE_L_OFFSETS:
            for variant in VARIANTS:
                name = f"ktree{n}-k{k}-d{d}-L{d + off}-{variant.value}"
                cases.append(Case(name, lbcut.Instance(
                    g, perm[s0], perm[t0], d + off, variant)))
    return cases


def _fan(k: int, rng: random.Random) -> tuple["lbcut.Graph", int, int]:
    """Path p_1..p_k with s and t adjacent to every p_i, relabeled at random.

    Every p_i gives the s-t path s, p_i, t of 2 hops, so with L = 2 the
    optimum vertex cut is the whole path: k vertices.
    """
    perm = list(range(k + 2))
    rng.shuffle(perm)
    s, t = perm[0], perm[1]
    path = perm[2:]
    edges = [(s, p) for p in path] + [(t, p) for p in path]
    edges += list(zip(path, path[1:]))
    return lbcut.Graph.from_edges(k + 2, edges), s, t


def _common_bag_pair(g: "lbcut.Graph", k: int) -> tuple[int, int]:
    """The first non-adjacent pair (in id order) with >= k common neighbours.

    Such a pair shares a bag of any tree decomposition whose bags hold the
    common neighbourhood cliques of a k-tree, so the recursion of the
    approximation, not its min-cut leaf, does the work.
    """
    for s in g.sorted_vertices():
        ns = set(g.neighbors(s))
        for t in g.sorted_vertices():
            if t > s and t not in ns and len(ns & set(g.neighbors(t))) >= k:
                return s, t
    raise ValueError(f"no non-adjacent pair with {k} common neighbours")


def approx_auto(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for k in FAN_SIZES:
        g, s, t = _fan(k, rng)
        cases.append(Case(f"fan{k}-L2", lbcut.Instance(
            g, s, t, 2, lbcut.Variant.VERTEX), fan_k=k))
    for n, k, keep, gen_seed in APPROX_KTREE_CLASSES:
        base = lbcut.parse_instance(
            lbcut.generate("partial-ktree", [n, k, keep], seed=gen_seed))
        s0, t0 = _common_bag_pair(base, k)
        g, perm = _relabel(base, rng)
        cases.append(Case(f"ktree{n}-k{k}-L3", lbcut.Instance(
            g, perm[s0], perm[t0], 3, lbcut.Variant.VERTEX)))
    return cases


WORKLOADS = {
    "grid-exact": grid_exact,
    "ktree-exact": ktree_exact,
    "approx-auto": approx_auto,
}
