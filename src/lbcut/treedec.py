"""Rooted tree decompositions: validation, the elimination heuristic,
surgery.

The elimination heuristic (``build_heuristic``) repeatedly eliminates the
vertex with the least (degree, fill-in, id) key in the graph completed so
far.  It keeps the keys in one heap with lazy deletion, so a step costs
what the elimination touches rather than a scan of every vertex: only the
keys of the eliminated vertex's neighbours and of the common neighbours of
its new fill edges can change, and only those are queued again.  Each key
is one integer packing degree, fill-in + 1 and id, which compares faster
than a tuple, and the per-vertex state sits in lists indexed by id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

from .errors import GraphError, InvalidDecomposition
from .graph import Graph


@dataclass(frozen=True)
class TreeDecomposition:
    """A rooted tree of bags.  Nodes are 0..len(bags)-1.

    Construction checks only the tree: it raises InvalidDecomposition
    unless there is at least one node, the root is a node, and
    ``tree_edges`` form a spanning tree (k-1 edges, every node reached from
    the root).  Whether the bags decompose anything is checked by
    ``scope_owners`` and ``validate``.  parent/children/depth are derived
    from the root (only the root's parent is None); ``order`` lists the
    nodes root first, breadth first, so every parent precedes its children.
    ``bag_sets`` holds each bag as a frozenset, for membership tests.
    """

    bags: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[tuple[int, int]]
    root: int = 0
    parent: tuple[Optional[int], ...] = field(init=False, repr=False, compare=False)
    children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    depth: tuple[int, ...] = field(init=False, repr=False, compare=False)
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    bag_sets: tuple[frozenset[int], ...] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        bags = tuple(tuple(sorted(set(b))) for b in self.bags)
        object.__setattr__(self, "bags", bags)
        k = len(bags)
        if k == 0:
            raise InvalidDecomposition("decomposition has no nodes")
        edges = set()
        for x, y in self.tree_edges:
            if x == y or not (0 <= x < k and 0 <= y < k):
                raise InvalidDecomposition(f"bad tree edge ({x},{y})")
            edges.add((x, y) if x < y else (y, x))
        object.__setattr__(self, "tree_edges", frozenset(edges))
        if not 0 <= self.root < k:
            raise InvalidDecomposition(f"root {self.root} out of range")
        if len(edges) != k - 1:
            raise InvalidDecomposition(
                f"{len(edges)} tree edges over {k} nodes is not a tree")

        adj: list[list[int]] = [[] for _ in range(k)]
        for x, y in edges:
            adj[x].append(y)
            adj[y].append(x)
        parent: list[Optional[int]] = [None] * k
        depth: list[Optional[int]] = [None] * k
        children: list[list[int]] = [[] for _ in range(k)]
        order = [self.root]
        depth[self.root] = 0
        for a in order:  # grows while it is walked: a breadth-first queue
            for b in sorted(adj[a]):
                if depth[b] is None:
                    parent[b] = a
                    depth[b] = depth[a] + 1
                    children[a].append(b)
                    order.append(b)
        if len(order) != k:
            raise InvalidDecomposition("tree edges do not connect all nodes")
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "children", tuple(tuple(c) for c in children))
        object.__setattr__(self, "depth", tuple(depth))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "bag_sets", tuple(map(frozenset, bags)))

    @property
    def n_nodes(self) -> int:
        return len(self.bags)


def width(td: TreeDecomposition) -> int:
    return max(len(b) for b in td.bags) - 1


def top_nodes(td: TreeDecomposition, universe: Container[int]) -> dict[int, int]:
    """Map every bag vertex to its top node: the node whose bag holds it
    while its parent's bag (if it has a parent) does not.

    In a rooted tree, each connected component of a set of nodes has
    exactly one node whose parent lies outside the set (or which is the
    root): its highest node.  So a vertex has one top node per component
    of the nodes whose bags hold it, and these form a subtree exactly when
    it has one top node, which is then an ancestor of all of them.
    Hence two such subtrees meet exactly when the deeper of their top
    nodes lies in both: any common node has both tops as ancestors, and
    the path from the higher top to it passes through the deeper one.

    Raises InvalidDecomposition if a vertex has two top nodes, that is, if
    the bags holding it do not form a subtree, or if a bag vertex lies
    outside ``universe`` (the least such vertex is named).  The tree itself
    was checked when ``td`` was built.
    """
    bag_sets = td.bag_sets
    top: dict[int, int] = {}
    for a in td.order:
        p = td.parent[a]
        for v in td.bags[a]:
            if p is None or v not in bag_sets[p]:
                if v in top:
                    raise InvalidDecomposition(
                        f"bags containing vertex {v} do not form a subtree")
                top[v] = a
    stray = [v for v in top if v not in universe]
    if stray:
        v = min(stray)
        raise InvalidDecomposition(
            f"bag vertex {v} at node {top[v]} is not a vertex of the graph")
    return top


def scope_owners(td: TreeDecomposition, top: dict[int, int],
                 scopes: Iterable[Sequence[int]]) -> list[int]:
    """The one rule by which a decomposition covers the edges of a
    (hyper)graph: ``validate`` applies it to a graph's edges,
    ``dp.solve_min_csp`` to its constraint scopes.

    A scope's owner is the deepest top node of its vertices (``top``, from
    ``top_nodes(td, ...)``); by the argument there it is the topmost node
    whose bag holds the whole scope, if any bag does.  Returns each scope's
    owner.  Raises InvalidDecomposition if no bag holds some scope.
    """
    # Distinct top nodes of equal depth mean that no bag holds the scope;
    # whichever the (depth, node) key picks then fails the bag check.
    depth = td.depth
    key = {v: (depth[a], a) for v, a in top.items()}
    bag_sets = td.bag_sets
    owners = []
    for scope in scopes:
        try:
            a = max(map(key.__getitem__, scope))[1]
        except KeyError as exc:
            raise InvalidDecomposition(
                f"vertex {exc.args[0]} appears in no bag") from None
        if not bag_sets[a].issuperset(scope):
            raise InvalidDecomposition(
                f"edge ({','.join(map(str, scope))}) is covered by no bag")
        owners.append(a)
    return owners


def validate(td: TreeDecomposition, g: Graph) -> dict[int, int]:
    """Check that td is a tree decomposition of g: every bag vertex is a
    vertex of g, every vertex of g is in some bag, and ``scope_owners``
    finds an owner for every edge, checked in that order.  The first
    failure raises InvalidDecomposition; a bag vertex outside g, or a
    vertex of g in no bag, is named by the least such id, and an edge
    covered by no bag by the least such edge.  The tree itself was checked
    when ``td`` was built.  Returns the top-node map (``top_nodes``), whose
    keys are g's vertices."""
    top = top_nodes(td, g.vertices)
    missing = g.vertices - top.keys()
    if missing:
        raise InvalidDecomposition(f"vertex {min(missing)} appears in no bag")
    try:
        scope_owners(td, top, g.edges)
    except InvalidDecomposition:
        # The edge set iterates in no fixed order; the sorted scan, run only
        # on failure, raises at the least uncovered edge.
        scope_owners(td, top, sorted(g.edges))
        raise
    return top


def _fill_in(work: Sequence[set[int]], v: int) -> int:
    """Missing edges among v's neighbours: each neighbour x misses
    nbrs - work[x], which counts x itself and every missing pair twice."""
    nbrs = work[v]
    return (sum(len(nbrs - work[x]) for x in nbrs) - len(nbrs)) // 2


def build_heuristic(g: Graph) -> TreeDecomposition:
    """Tree decomposition from a greedy elimination ordering.

    Each step eliminates the vertex of least degree in the running chordal
    completion, breaking ties by least fill-in (the number of missing edges
    among its neighbors), then by least id.  Bag of v = v plus its
    not-yet-eliminated neighbors in the completion.  Node i holds the bag
    of the i-th eliminated vertex; its parent is the node of the
    earliest-eliminated other bag member.

    The keys sit in one heap with lazy deletion.  An entry is one integer
    that packs (degree, fill-in + 1, id), each in bits of its own, so
    entries order as those tuples do.  ``key[v]`` holds each live vertex's
    current entry, and a popped entry that differs from it is dropped.  A
    vertex whose fill-in is not yet known is queued with 0 in place of
    fill-in + 1.  Popping it computes the fill-in and queues the full key
    again, so the heap never orders by a stale fill-in, and fill-in is
    only computed for vertices that reach the least degree.  A popped full
    key is the least: every live vertex's entry is at most its true key.

    Eliminating v with neighbourhood N removes v and adds the missing
    edges inside N.  A vertex's degree changes only if it lies in N.  Its
    fill-in changes only if its neighbourhood changed (it lies in N) or a
    new edge (x, y) joins two of its neighbours (it is a common neighbour
    of x and y).  Those vertices are queued again; no other key can change.
    A popped key's fill-in is current, so when it is 0 no edge is added
    and only N is queued again.
    """
    if not g.vertices:
        raise GraphError("cannot decompose an empty graph")
    n = g.n
    # Entry bits, low to high: the id (below n), fill-in + 1 (below n*n),
    # the degree.
    fill_at = n.bit_length()
    deg_at = fill_at + (n * n).bit_length()
    id_mask = (1 << fill_at) - 1
    fill_mask = (1 << (deg_at - fill_at)) - 1
    work = [set(g.neighbors(v)) for v in range(n)]
    key = [-1] * n  # -1: absent or eliminated
    for v in g.vertices:
        key[v] = len(work[v]) << deg_at | v
    heap = [k for k in key if k >= 0]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[tuple[int, ...]] = []
    while len(order) < len(g.vertices):
        entry = heapq.heappop(heap)
        v = entry & id_mask
        if key[v] != entry:
            continue
        fill = (entry >> fill_at & fill_mask) - 1  # -1: not yet known
        if fill < 0:
            key[v] = entry | (_fill_in(work, v) + 1) << fill_at
            heapq.heappush(heap, key[v])
            continue
        key[v] = -1
        nbrs = work[v]
        order.append(v)
        bags.append(tuple(sorted({v} | nbrs)))
        for u in nbrs:
            work[u].discard(v)
        if not fill:  # N is a clique already: only degrees in N drop
            stale = nbrs
        else:
            new_edges = [(x, y) for x in nbrs for y in nbrs - work[x] if x < y]
            for x, y in new_edges:
                work[x].add(y)
                work[y].add(x)
            stale = set(nbrs)
            for x, y in new_edges:
                stale |= work[x] & work[y]
        for u in stale:
            entry = len(work[u]) << deg_at | u
            if key[u] != entry:
                key[u] = entry
                heapq.heappush(heap, entry)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    edges = []
    for i, bag in enumerate(bags):
        later = [pos[u] for u in bag if u != order[i]]
        if later:
            edges.append((i, min(later)))
        elif i + 1 < len(bags):
            edges.append((i, i + 1))  # keep disconnected pieces in one tree
    return TreeDecomposition(tuple(bags), frozenset(edges), root=0)


@dataclass(frozen=True)
class SubtreeSplit:
    """The two halves of a decomposition split at a node b.

    ``below`` is b with its descendants (rooted at b); ``above`` is
    everything except b's strict descendants (original root).  The graphs
    are induced by the respective bag unions; they overlap inside B(b) only.
    """

    below: TreeDecomposition
    above: TreeDecomposition
    below_graph: Graph
    above_graph: Graph


def _subtree_nodes(td: TreeDecomposition, b: int) -> set[int]:
    out = {b}
    stack = [b]
    while stack:
        a = stack.pop()
        for c in td.children[a]:
            out.add(c)
            stack.append(c)
    return out


def _restrict(td: TreeDecomposition, keep: list[int], new_root: int) -> TreeDecomposition:
    index = {orig: i for i, orig in enumerate(keep)}
    bags = tuple(td.bags[a] for a in keep)
    edges = frozenset(
        (min(index[x], index[y]), max(index[x], index[y]))
        for x, y in td.tree_edges if x in index and y in index)
    return TreeDecomposition(bags, edges, root=index[new_root])


def split_at(td: TreeDecomposition, g: Graph, b: int) -> SubtreeSplit:
    if not 0 <= b < td.n_nodes:
        raise InvalidDecomposition(f"node {b} out of range")
    below_set = _subtree_nodes(td, b)
    below_ids = sorted(below_set)
    above_ids = sorted(set(range(td.n_nodes)) - (below_set - {b}))
    below = _restrict(td, below_ids, b)
    above = _restrict(td, above_ids, td.root)
    return SubtreeSplit(below, above, g.induced(set().union(*below.bags)),
                        g.induced(set().union(*above.bags)))


def prune_decomposition(td: TreeDecomposition, g: Graph,
                        cut: Iterable[int]) -> tuple[Graph, TreeDecomposition]:
    """Delete a vertex set from the graph and from every bag (bags may empty)."""
    drop = frozenset(cut)
    if not drop <= g.vertices:
        raise GraphError("prune set contains vertices not in the graph")
    bags = tuple(tuple(v for v in bag if v not in drop) for bag in td.bags)
    return g.induced(g.vertices - drop), TreeDecomposition(bags, td.tree_edges, td.root)


def subtree_vertex_sets(td: TreeDecomposition) -> tuple[frozenset[int], ...]:
    """For every node a, the union of bags over the subtree rooted at a."""
    sets: list[frozenset[int]] = [frozenset()] * td.n_nodes
    for a in reversed(td.order):
        acc = set(td.bags[a])
        for c in td.children[a]:
            acc |= sets[c]
        sets[a] = frozenset(acc)
    return tuple(sets)
