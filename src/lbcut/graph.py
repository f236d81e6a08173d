"""Simple undirected graphs, hop distances, cut feasibility, and s-t min cuts.

Vertices are dense integers 0..n-1.  Induced subgraphs keep the original id
space and mark missing vertices as absent, so cut members stay addressable
in the parent graph.

Two breadth-first searches answer the hop-distance questions.
``flat_bfs`` searches the whole graph, scanning a vertex's neighbours in
ascending id order so that its parents (and a cut's witness path) are
fixed, and keeps each vertex's depth and parent in lists indexed by
vertex id: a search that may reach most of the graph pays one list slot
per vertex and no hashing.  ``bfs_distances``, the prune's search
from t (``fpt.prune_to_relevant``, which enters a vertex only if its
distance from s leaves room) and ``verify_cut`` all call it, so a solve's
four searches (two in the prune, whose distances the exact solver's
encoder reuses, and two checks of the cut) run on lists.  ``verify_cut``
marks a vertex cut's members before the search starts and checks a cut
edge only at its two endpoints, through a small set per endpoint.

``hop_distance``, the approximation's short-path test, is confined to a
set (``within``) that is often a small part of the graph, and it asks for
the distance alone, so it needs neither parents nor an order.  It runs
level by level over ``Graph.adj_sets``, each vertex's neighbours as a
frozenset, built once per graph on first use: each frontier vertex adds
the intersection of its neighbours with the part of ``within`` not reached
yet, a C set intersection over the smaller side.  So a search costs what it
reaches, even from a vertex of high degree, and it returns at t's level.

One flow routine, ``_source_side``, finds both minimum cuts:
``min_vertex_cut`` and ``min_edge_cut`` build a unit-capacity residual
network and read their members off its source side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import AbstractSet, Iterable, Optional, Sequence

from .errors import GraphError, InvalidCut, NoVertexCut


class Variant(Enum):
    EDGE = "edge"
    VERTEX = "vertex"


Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph over the id space 0..n-1.

    ``vertices`` is the set of present ids; ``edges`` holds (u, v) pairs
    with u < v between present vertices only.
    """

    n: int
    vertices: frozenset[int]
    edges: frozenset[Edge]
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for v in self.vertices:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex id {v} out of range for n={self.n}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise GraphError(f"bad edge ({u},{v}) for n={self.n}")
            if u not in self.vertices or v not in self.vertices:
                raise GraphError(f"edge ({u},{v}) touches an absent vertex")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @classmethod
    def from_edges(cls, n: int, edge_list: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on all of 0..n-1, rejecting self-loops and duplicates."""
        seen: set[Edge] = set()
        for u, v in edge_list:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = norm_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(range(n)), frozenset(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: int) -> bool:
        return v in self.vertices

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @cached_property
    def adj_sets(self) -> tuple[frozenset[int], ...]:
        """Each vertex's neighbours as a frozenset, built on first use."""
        return tuple(map(frozenset, self._adj))

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def induced(self, keep: Iterable[int]) -> "Graph":
        kept = frozenset(keep) & self.vertices
        es = frozenset((u, w) for u in kept for w in self._adj[u]
                       if u < w and w in kept)
        return Graph(self.n, kept, es)


@dataclass(frozen=True)
class Instance:
    """An L-bounded cut problem: graph, terminals, hop bound, and variant.

    A vertex instance with adjacent terminals raises NoVertexCut (a vertex
    cut holds neither s nor t, so the edge s-t survives it); the solvers and
    oracles that take an Instance rely on this and do not check again.
    """

    graph: Graph
    s: int
    t: int
    L: int
    variant: Variant

    def __post_init__(self):
        if self.s == self.t:
            raise GraphError("s and t must differ")
        for x in (self.s, self.t):
            if not self.graph.has_vertex(x):
                raise GraphError(f"terminal {x} is not a vertex of the graph")
        if self.L < 1:
            raise GraphError("L must be a positive integer")
        if (self.variant is Variant.VERTEX
                and self.graph.has_edge(self.s, self.t)):
            raise NoVertexCut("s and t are adjacent")


@dataclass(frozen=True)
class CutSet:
    """A set of edges or vertices proposed as an L-bounded cut.

    ``lower_bound``, when set, is a certified lower bound on the optimum of
    the instance the cut was computed for.  ``width_used``, when set, is the
    width of the tree decomposition the solver ran on; the approximation's
    guarantee ``size <= width_used * lower_bound`` is stated in it.  Metadata
    fields do not take part in equality.
    """

    variant: Variant
    members: tuple
    lower_bound: Optional[int] = field(default=None, compare=False)
    algorithm: str = field(default="", compare=False)
    width_used: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if self.variant is Variant.EDGE:
            norm = tuple(sorted(norm_edge(u, v) for u, v in self.members))
        else:
            norm = tuple(sorted(int(v) for v in self.members))
        if len(set(norm)) != len(norm):
            raise InvalidCut("duplicate cut members")
        object.__setattr__(self, "members", norm)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VerifyResult:
    feasible: bool
    witness: Optional[tuple[int, ...]] = None


def flat_bfs(g: Graph, source: int, cap: Optional[int] = None,
             stop: Optional[int] = None,
             offset: Optional[Sequence[Optional[int]]] = None,
             marked: Iterable[int] = (),
             cut_at: Optional[dict[int, AbstractSet[int]]] = None,
             ) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """BFS from ``source`` over the whole graph; returns (depth, parent).

    Both lists are indexed by vertex id, None where the search did not
    reach.  It goes no deeper than ``cap`` hops, never enters a
    ``marked`` vertex (whose depth reads -1), never crosses from u to a
    vertex in ``cut_at[u]`` and returns on reaching ``stop``.  With
    ``offset`` (indexed by vertex id, and needing ``cap``) it enters w at
    depth k only if offset[w] is not None and offset[w] + k <= cap.
    Neighbours are scanned in ascending id order.
    """
    depth: list[Optional[int]] = [None] * g.n
    parent: list[Optional[int]] = [None] * g.n
    for v in marked:
        depth[v] = -1
    depth[source] = 0
    adj = g._adj
    if cap is None:
        cap = g.n  # no search goes that deep
    frontier = [source]
    d = 0
    while frontier and d < cap:
        d += 1
        room = cap - d  # offset[w] <= room
        nxt = []
        for u in frontier:
            skip = cut_at.get(u) if cut_at else None
            for w in adj[u]:
                if (depth[w] is not None
                        or (skip is not None and w in skip)
                        or (offset is not None
                            and ((o := offset[w]) is None or o > room))):
                    continue
                depth[w] = d
                parent[w] = u
                if w == stop:
                    return depth, parent
                nxt.append(w)
        frontier = nxt
    return depth, parent


def bfs_distances(g: Graph, source: int,
                  cap: Optional[int] = None) -> tuple[Optional[int], ...]:
    """Hop distance from source to every vertex (None if unreachable, or
    farther than ``cap``)."""
    if not g.has_vertex(source):
        raise GraphError(f"source {source} is not a vertex of the graph")
    return tuple(flat_bfs(g, source, cap)[0])


def hop_distance(g: Graph, s: int, t: int, cap: Optional[int] = None,
                 within: Optional[AbstractSet[int]] = None) -> Optional[int]:
    """Distance from s to t, or None if unreachable or larger than ``cap``.

    With ``within``, the search is confined to that vertex set, which gives
    the distance in ``g.induced(within)`` without building that graph.
    Only the distance is asked for, so the search needs no order and no
    parents: each level is the union of ``rest & g.adj_sets[u]`` over its
    frontier, where ``rest`` is what ``within`` holds that the search has
    not reached yet, and it returns at t's level.
    """
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise GraphError("terminals must be vertices of the graph")
    if within is not None and not (s in within and t in within):
        raise GraphError("terminals must lie in `within`")
    if s == t:
        return 0
    adj = g.adj_sets
    rest = set(g.vertices if within is None else within)
    rest.discard(s)
    frontier = (s,)
    depth = 0
    while frontier and (cap is None or depth < cap):
        depth += 1
        nxt: set[int] = set()
        for u in frontier:
            nxt |= rest & adj[u]
        if t in nxt:
            return depth
        rest -= nxt
        frontier = nxt
    return None


def cut_blocks(inst: Instance, cut: CutSet
               ) -> tuple[tuple[int, ...], dict[int, set[int]]]:
    """What a cut takes out of ``flat_bfs``'s reach: the vertices it marks
    and, for each endpoint u of a cut edge, the vertices u may not step to.

    Raises InvalidCut when the cut does not fit the instance: another
    variant, a terminal in a vertex cut, or a member missing from the graph.
    """
    if cut.variant is not inst.variant:
        raise InvalidCut("cut variant does not match the instance")
    g = inst.graph
    if cut.variant is Variant.EDGE:
        cut_at: dict[int, set[int]] = {}
        for e in cut.members:
            if e not in g.edges:
                raise InvalidCut(f"edge {e} is not in the graph")
            u, w = e
            cut_at.setdefault(u, set()).add(w)
            cut_at.setdefault(w, set()).add(u)
        return (), cut_at
    if inst.s in cut.members or inst.t in cut.members:
        raise InvalidCut("a vertex cut may not contain s or t")
    for v in cut.members:
        if not g.has_vertex(v):
            raise InvalidCut(f"vertex {v} is not in the graph")
    return cut.members, {}


def verify_cut(inst: Instance, cut: CutSet) -> VerifyResult:
    """Check whether the cut leaves no s-t path of length at most L.

    Infeasible results come with a concrete witness path of length <= L
    that avoids the cut.
    """
    marked, cut_at = cut_blocks(inst, cut)
    depth, parent = flat_bfs(inst.graph, inst.s, inst.L, stop=inst.t,
                             marked=marked, cut_at=cut_at)
    if depth[inst.t] is None:
        return VerifyResult(True)
    path = [inst.t]
    while path[-1] != inst.s:
        path.append(parent[path[-1]])
    return VerifyResult(False, tuple(reversed(path)))


def _source_side(res: dict[int, dict[int, int]], source: int,
                 sink: int) -> set[int]:
    """Run a maximum flow on the residual network ``res``; return the source side.

    ``res[a][b]`` is the residual capacity of arc a -> b, and every arc's
    reverse must be present (capacity 0 if it has none).  Each round pushes
    one unit along a shortest residual path, scanning neighbours in
    ascending order; capacities are integers, so every residual arc holds at
    least that unit.  When the search no longer reaches ``sink``, the nodes
    it visited are the source side of the minimum cut closest to the source,
    which is the same for every maximum flow.
    """
    res = {u: dict(sorted(arcs.items())) for u, arcs in res.items()}
    while True:
        parent: dict[int, Optional[int]] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for w, cap in res[u].items():
                if cap > 0 and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if sink not in parent:
            return set(parent)
        w = sink
        while w != source:
            u = parent[w]
            res[u][w] -= 1
            res[w][u] += 1
            w = u


def min_vertex_cut(g: Graph, s: int, t: int) -> CutSet:
    """Minimum vertex s-t cut via unit-capacity flow on the split digraph.

    Vertex v other than s and t becomes in-node 2v and out-node 2v+1, joined
    by a unit arc; s and t stay whole as node 2s and node 2t.  Each edge
    u-v gives arcs out(u) -> 2v and out(v) -> 2u of effectively infinite
    capacity.  The cut is every v whose in-node lies on the source side and
    whose out-node does not.  Taking a bare graph, it checks itself that s
    and t are not adjacent.
    """
    if s == t:
        raise GraphError("s and t must differ")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise GraphError("terminals must be vertices of the graph")
    if g.has_edge(s, t):
        raise NoVertexCut("s and t are adjacent")

    out = {v: 2 * v if v in (s, t) else 2 * v + 1 for v in g.vertices}
    res: dict[int, dict[int, int]] = {}
    for v in g.vertices:
        res[2 * v] = {}
        if out[v] != 2 * v:
            res[2 * v][out[v]] = 1
            res[out[v]] = {2 * v: 0}
    inf = len(g.vertices) + 1
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            res[out[a]][2 * b] = inf
            res[2 * b][out[a]] = 0
    side = _source_side(res, 2 * s, 2 * t)
    members = tuple(v for v in g.sorted_vertices()
                    if 2 * v in side and out[v] not in side)
    return CutSet(Variant.VERTEX, members, algorithm="min-vertex-cut")


def min_edge_cut(g: Graph, s: int, t: int) -> CutSet:
    """Minimum edge s-t cut via unit-capacity max-flow (Edmonds-Karp)."""
    if s == t:
        raise GraphError("s and t must differ")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise GraphError("terminals must be vertices of the graph")
    res = {v: dict.fromkeys(g.neighbors(v), 1) for v in g.vertices}
    side = _source_side(res, s, t)
    members = tuple(e for e in sorted(g.edges)
                    if (e[0] in side) != (e[1] in side))
    return CutSet(Variant.EDGE, members, algorithm="min-edge-cut")
