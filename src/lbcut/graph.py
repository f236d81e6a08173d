"""Simple undirected graphs, hop distances, cut feasibility, and s-t min cuts.

Vertices are dense integers 0..n-1.  Induced subgraphs keep the original id
space and mark missing vertices as absent, so cut members stay addressable
in the parent graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Iterable, Optional

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

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def induced(self, keep: Iterable[int]) -> "Graph":
        kept = frozenset(keep) & self.vertices
        es = frozenset(e for e in self.edges if e[0] in kept and e[1] in kept)
        return Graph(self.n, kept, es)

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        return self.induced(self.vertices - frozenset(drop))

    def without_edges(self, drop: Iterable[tuple[int, int]]) -> "Graph":
        dropped = frozenset(norm_edge(u, v) for u, v in drop)
        return Graph(self.n, self.vertices, self.edges - dropped)


@dataclass(frozen=True)
class Instance:
    """An L-bounded cut problem: graph, terminals, hop bound, and variant."""

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
class DistanceVector:
    """Hop distances from ``source``; None marks unreachable or absent ids."""

    source: int
    dist: tuple[Optional[int], ...]

    def __getitem__(self, v: int) -> Optional[int]:
        return self.dist[v]


@dataclass(frozen=True)
class VerifyResult:
    feasible: bool
    witness: Optional[tuple[int, ...]] = None


def bfs_distances(g: Graph, source: int) -> DistanceVector:
    """Hop distance from source to every vertex (None if unreachable)."""
    if not g.has_vertex(source):
        raise GraphError(f"source {source} is not a vertex of the graph")
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return DistanceVector(source, tuple(dist))


def hop_distance(g: Graph, s: int, t: int, cap: Optional[int] = None,
                 within: Optional[AbstractSet[int]] = None) -> Optional[int]:
    """Distance from s to t, or None if unreachable or larger than ``cap``.

    With ``within``, the search is confined to that vertex set, which gives
    the distance in ``g.induced(within)`` without building that graph.
    """
    if not (g.has_vertex(s) and g.has_vertex(t)) or (
            within is not None and not (s in within and t in within)):
        raise GraphError("terminals must be vertices of the graph")
    if s == t:
        return 0
    seen = {s}
    frontier = [s]
    depth = 0
    while frontier and (cap is None or depth < cap):
        depth += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in seen or (within is not None and w not in within):
                    continue
                if w == t:
                    return depth
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return None


def remove(g: Graph, cut: CutSet) -> Graph:
    """The graph with cut members deleted (edges, or vertices with incident edges)."""
    if cut.variant is Variant.EDGE:
        for e in cut.members:
            if e not in g.edges:
                raise InvalidCut(f"edge {e} is not in the graph")
        return g.without_edges(cut.members)
    for v in cut.members:
        if not g.has_vertex(v):
            raise InvalidCut(f"vertex {v} is not in the graph")
    return g.without_vertices(cut.members)


def verify_cut(inst: Instance, cut: CutSet) -> VerifyResult:
    """Check whether the cut leaves no s-t path of length at most L.

    Infeasible results come with a concrete witness path of length <= L
    that avoids the cut.
    """
    if cut.variant is not inst.variant:
        raise InvalidCut("cut variant does not match the instance")
    g, s, t, L = inst.graph, inst.s, inst.t, inst.L
    if cut.variant is Variant.VERTEX:
        members = set(cut.members)
        if s in members or t in members:
            raise InvalidCut("a vertex cut may not contain s or t")
        for v in members:
            if not g.has_vertex(v):
                raise InvalidCut(f"vertex {v} is not in the graph")
        blocked_vertices = members
        blocked_edges: frozenset[Edge] = frozenset()
    else:
        for e in cut.members:
            if e not in g.edges:
                raise InvalidCut(f"edge {e} is not in the graph")
        blocked_vertices = set()
        blocked_edges = frozenset(cut.members)

    # Depth-capped BFS: feasible iff t is not reached within L hops.
    parent: dict[int, Optional[int]] = {s: None}
    frontier = [s]
    depth = 0
    while frontier and depth < L:
        depth += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in blocked_vertices or w in parent:
                    continue
                if blocked_edges and norm_edge(u, w) in blocked_edges:
                    continue
                parent[w] = u
                if w == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return VerifyResult(False, tuple(reversed(path)))
                nxt.append(w)
        frontier = nxt
    return VerifyResult(True)


def _augment(res: dict[int, dict[int, int]], source: int, sink: int) -> bool:
    """One BFS augmentation on the residual network; returns False if none."""
    parent = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in sorted(res[u]):
            if w not in parent and res[u][w] > 0:
                parent[w] = u
                if w == sink:
                    # unit bottleneck everywhere we care about, but compute it
                    bottleneck = None
                    x = sink
                    while x != source:
                        p = parent[x]
                        c = res[p][x]
                        bottleneck = c if bottleneck is None else min(bottleneck, c)
                        x = p
                    x = sink
                    while x != source:
                        p = parent[x]
                        res[p][x] -= bottleneck
                        res[x][p] += bottleneck
                        x = p
                    return True
                queue.append(w)
    return False


def _residual_reachable(res: dict[int, dict[int, int]], source: int) -> set[int]:
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in sorted(res[u]):
            if w not in seen and res[u][w] > 0:
                seen.add(w)
                queue.append(w)
    return seen


def min_vertex_cut(g: Graph, s: int, t: int) -> CutSet:
    """Minimum vertex s-t cut via unit-capacity flow on the split digraph.

    Every vertex other than s and t is split into an in/out pair joined by
    a unit arc; edge arcs get effectively infinite capacity.  Deterministic:
    arcs are built and scanned in ascending id order.
    """
    if s == t:
        raise GraphError("s and t must differ")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise GraphError("terminals must be vertices of the graph")
    if g.has_edge(s, t):
        raise NoVertexCut(f"vertices {s} and {t} are adjacent")

    inf = len(g.vertices) + 1
    res: dict[int, dict[int, int]] = {}

    def node_in(v: int) -> int:
        return 2 * v

    def node_out(v: int) -> int:
        return 2 * v if v in (s, t) else 2 * v + 1

    def add_arc(a: int, b: int, cap: int) -> None:
        res.setdefault(a, {})
        res.setdefault(b, {})
        res[a][b] = res[a].get(b, 0) + cap
        res[b].setdefault(a, 0)

    for v in g.sorted_vertices():
        if v not in (s, t):
            add_arc(node_in(v), node_out(v), 1)
    for u, v in sorted(g.edges):
        add_arc(node_out(u), node_in(v), inf)
        add_arc(node_out(v), node_in(u), inf)

    source, sink = node_out(s), node_in(t)
    if source not in res or sink not in res:
        return CutSet(Variant.VERTEX, (), algorithm="min-vertex-cut")
    while _augment(res, source, sink):
        pass
    reach = _residual_reachable(res, source)
    members = tuple(v for v in g.sorted_vertices()
                    if v not in (s, t)
                    and node_in(v) in reach and node_out(v) not in reach)
    return CutSet(Variant.VERTEX, members, algorithm="min-vertex-cut")


def min_edge_cut(g: Graph, s: int, t: int) -> CutSet:
    """Minimum edge s-t cut via unit-capacity max-flow (Edmonds-Karp)."""
    if s == t:
        raise GraphError("s and t must differ")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise GraphError("terminals must be vertices of the graph")
    res: dict[int, dict[int, int]] = {v: {} for v in g.sorted_vertices()}
    for u, v in sorted(g.edges):
        res[u][v] = 1
        res[v][u] = 1
    while _augment(res, s, t):
        pass
    reach = _residual_reachable(res, s)
    members = tuple(e for e in sorted(g.edges)
                    if (e[0] in reach) != (e[1] in reach))
    return CutSet(Variant.EDGE, members, algorithm="min-edge-cut")
