"""Encoding of L-bounded cut instances as minimum-cost CSPs, and decoding back.

One variable per vertex holds a distance-like label.  Labels run over
0..L+1 with s pinned to 0 and t to L+1; a kept edge forces its endpoint
labels within 1 of each other, so any surviving s-t path needs more than L
edges.  The vertex variant adds a label -1 meaning "deleted" and moves the
cost onto unary constraints.

A soft constraint costs its weight, a positive integer, when violated, and
a solution costs the summed weights of those it violates.  The encoders
weigh each constraint 1 unless given ``sizes``, the size of the twin class
each vertex stands for (``dp.solve_exact_cut`` contracts twins before it
encodes): a "kept" constraint then weighs its vertex's class size, and an
edge constraint the product of its ends' sizes.

Each vertex v gets only the labels an optimum can need, the BFS layers of
the paper's planar algorithm.  With lo = min(d(s,v), L+1) and
hi = L+1 - min(d(v,t), L+1), where a terminal farther than L or out of
reach counts as L+1 away, v's labels are min(lo, hi)..hi (and -1 in the
vertex variant).  Nothing is lost: for any labeling z, the labeling
min(max(z, lo), hi) on the kept vertices still has s at 0 and t at L+1,
lies in these ranges, and, because lo and hi change by at most 1 along an
edge, keeps every edge that z kept within 1; so it costs no more.  A vertex
on no s-t path of length at most L (d(s,v) + d(v,t) > L) has one label
besides -1.

The ranges then lose every label that a hard constraint rules out once
the terminals are pinned (node and arc consistency), so again no optimum
is lost:

- s has the one label 0 and t the one label L+1, in both variants; their
  unary constraints then hold every label left and are not emitted (see
  below).
- In the vertex variant, a neighbour of s keeps -1 and its labels up to 1,
  and a neighbour of t keeps -1 and its labels from L on: the hard edge
  constraint to the pinned terminal allows no other.  For L >= 2 a common
  neighbour of s and t keeps -1 alone.

The DP's answers do not depend on these removals.  The constraint that
rules a label out (the terminal's unary constraint, or the edge to the
pinned terminal) holds its variable, so it is owned at or below that
variable's top node and added before the variable is eliminated; every
table entry the traceback reads is finite, so the removed label was never
picked there.  The surviving labels keep their order, so every first
minimum lands on the same label.

Once the domains are cut, no constraint is emitted that every tuple over
its scope's domains satisfies: not the terminals' unary constraints, whose
domains are already (0,) and (L+1,), nor an edge constraint whose relation
holds every pair of its end domains (every vertex-variant edge at a
terminal, and edges whose end labels all lie within 1).  Such a constraint
adds 0 to every table entry, soft or hard, and inf to none, so every
table, every first minimum and the traceback are the same bit for bit
without it.  The decomposition is still built on the graph, so the bags
and table shapes do not change either.

A ``CspInstance`` keys its constraints by relation when it is built: each
distinct (allowed tuples, scope domains) pair is listed once in
``relations``, and ``relation_index`` gives every constraint its pair's
position there.  An encoding has thousands of constraints but few pairs
(the edge constraints share one relation per pair of end domains), so the
work per constraint is a scope check and one lookup, keyed by the relation
and the numbers of its scope's domains (each distinct domain is checked
and numbered once).  Each pair's tuples are checked: every member is a
tuple of the scope's arity whose values lie in the domains.  A bare
``Constraint`` checks only its scope; it turns ``allowed`` into a frozenset
of tuples unless it is a frozenset already, whose members it leaves to the
instance's check.

Three loops over a relation's tuples run once per process, not once per
encoding: building an edge relation (keyed by its two end domains), the
vertex variant's unary "kept" relation (keyed by its domain), and the
instance's tuple check (keyed by the relation and its scope's domains; the
variable a failure names is taken from each constraint's own scope).  Each
is a ``functools.lru_cache`` of at most 512 entries; for the cut
encodings an entry holds at most (L+3)**2 pairs, and a benchmark pass
meets 89 (grids) to 137 (partial k-trees) distinct relations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InvalidAssignment
from .graph import CutSet, Graph, Instance, Variant, bfs_distances

Assignment = tuple[int, ...]
# Hop distances (d_s, d_t) from s and from t, indexed by vertex id.
Distances = tuple[Sequence[Optional[int]], Sequence[Optional[int]]]


@dataclass(frozen=True)
class Constraint:
    """A relational constraint: sorted variable scope and its allowed tuples.

    ``weight``, a positive integer, is what violating it costs when it is
    soft; a hard constraint ignores it.
    """

    scope: tuple[int, ...]
    allowed: frozenset[tuple[int, ...]]
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        # Encoders share one frozenset across thousands of constraints; its
        # members are checked once per relation, by CspInstance.
        if not isinstance(self.allowed, frozenset):
            object.__setattr__(self, "allowed",
                               frozenset(tuple(t) for t in self.allowed))
        if not self.scope:
            raise InvalidAssignment("constraint scope may not be empty")
        if any(map(operator.ge, self.scope, self.scope[1:])):
            raise InvalidAssignment("constraint scope must be sorted and distinct")
        if type(self.weight) is not int or self.weight < 1:
            raise InvalidAssignment("constraint weight must be a positive integer")


@dataclass(frozen=True)
class CspInstance:
    """Finite-domain minimization CSP with hard and weighted soft constraints.

    An assignment costs the summed weights of the soft constraints it
    violates.  ``relations`` lists each distinct (allowed tuples, scope
    domains) pair once, in order of first use, and ``relation_index[i]`` is
    the position there of constraint i of ``hard + soft``.  Both are
    derived when the instance is built and take no part in equality.  Each
    distinct domain is checked once per instance, each distinct pair once
    per process (a cache, see the module docstring), and the DP builds one
    penalty array per pair and cost of a violation.
    """

    num_vars: int
    domains: tuple[tuple[int, ...], ...]
    hard: tuple[Constraint, ...]
    soft: tuple[Constraint, ...]
    relations: tuple[tuple[frozenset[tuple[int, ...]],
                           tuple[tuple[int, ...], ...]], ...] = field(
        init=False, repr=False, compare=False)
    relation_index: tuple[int, ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        domains = tuple(tuple(d) for d in self.domains)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "hard", tuple(self.hard))
        object.__setattr__(self, "soft", tuple(self.soft))
        if len(domains) != self.num_vars:
            raise InvalidAssignment("one domain required per variable")
        dom_id: dict = {}  # each distinct domain -> its number
        ids = []  # each variable's domain number
        for d in domains:
            i = dom_id.get(d)
            if i is None:
                if list(d) != sorted(set(d)):
                    raise InvalidAssignment(
                        "domains must be sorted and duplicate-free")
                i = dom_id[d] = len(dom_id)
            ids.append(i)
        index: dict = {}  # (relation, scope domain ids) -> its position
        relations = []
        relation_index = []
        for c in self.hard + self.soft:
            scope = c.scope
            if scope[0] < 0 or scope[-1] >= self.num_vars:
                raise InvalidAssignment(f"scope {scope} out of range")
            key = (c.allowed, tuple([ids[v] for v in scope]))
            r = index.get(key)
            if r is None:
                r = index[key] = len(relations)
                doms = tuple(domains[v] for v in scope)
                fault = _relation_fault(c.allowed, doms)
                if fault is not None:
                    message, i = fault
                    raise InvalidAssignment(
                        message if i is None else f"{message}{scope[i]}")
                relations.append((c.allowed, doms))
            relation_index.append(r)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "relation_index", tuple(relation_index))


@lru_cache(maxsize=512)
def _relation_fault(allowed, doms) -> Optional[tuple[str, Optional[int]]]:
    """The first fault of a relation over the scope domains ``doms``, or
    None: every member must be a tuple of the scope's arity whose values
    lie in the domains.  A fault is (message, None), or (message, i) when
    the message ends by naming the variable at scope position i."""
    for t in allowed:
        if type(t) is not tuple:
            return f"allowed member {t!r} is not a tuple", None
        if len(t) != len(doms):
            return "allowed tuple arity mismatch", None
        for i, (d, x) in enumerate(zip(doms, t)):
            if x not in d:
                return f"allowed value {x} outside domain of variable ", i
    return None


@dataclass(frozen=True)
class CspSolution:
    """An optimal assignment and its cost: the summed weights of the soft
    constraints it violates."""

    cost: int
    assignment: Assignment


def _label_ranges(inst: Instance,
                  distances: Optional[Distances] = None) -> list[tuple[int, int]]:
    """Each vertex's (least, greatest) label, see the module docstring: s
    has (0, 0) and t has (L+1, L+1).

    ``distances`` gives every vertex's hop distances from s and from t when
    the caller already has them; otherwise two L-capped searches find them.
    Distances past L (None) count as L+1.  An id absent from the graph gets
    (0, 0) whatever its distances say: it is in no constraint, and decoding
    reads only the graph's vertices.
    """
    g, L = inst.graph, inst.L
    if distances is None:
        distances = (bfs_distances(g, inst.s, cap=L),
                     bfs_distances(g, inst.t, cap=L))
    ds, dt = distances
    ranges = []
    for a, b in zip(ds, dt):
        lo = L + 1 if a is None else a
        hi = 0 if b is None else L + 1 - b
        ranges.append((min(lo, hi), hi))
    if len(g.vertices) < g.n:
        for v in range(g.n):
            if v not in g.vertices:
                ranges[v] = (0, 0)
    ranges[inst.s] = (0, 0)
    ranges[inst.t] = (L + 1, L + 1)
    return ranges


@lru_cache(maxsize=512)
def _near(du: tuple[int, ...],
          dv: tuple[int, ...]) -> Optional[frozenset[tuple[int, int]]]:
    """The edge relation over end domains du and dv: the labels lie within
    1 of each other unless one is -1 ("deleted", in vertex-variant domains
    only).  None when it holds every pair of the two domains."""
    rel = frozenset((a, b) for a in du for b in dv
                    if a == -1 or b == -1 or abs(a - b) <= 1)
    return None if len(rel) == len(du) * len(dv) else rel


@lru_cache(maxsize=512)
def _kept(d: tuple[int, ...]) -> frozenset[tuple[int]]:
    """The vertex variant's unary relation over domain d: not deleted."""
    return frozenset((x,) for x in d if x != -1)


def _edge_constraints(g: Graph, domains,
                      sizes: Optional[Sequence[int]] = None) -> list[Constraint]:
    """One constraint per edge whose relation (``_near``) rules some pair of
    its end labels out, weighted by the product of its ends' ``sizes``
    (1 without them).  Edges with the same pair of end domains share the
    cached relation object."""
    out = []
    for u, v in sorted(g.edges):
        rel = _near(domains[u], domains[v])
        if rel is not None:
            out.append(Constraint((u, v), rel, 1 if sizes is None
                                  else sizes[u] * sizes[v]))
    return out


def encode_edge_cut(inst: Instance, *,
                    distances: Optional[Distances] = None,
                    sizes: Optional[Sequence[int]] = None) -> CspInstance:
    """Edge-cut encoding: soft near-constraints on edges, cost = cut size.

    The domains pin s and t, so no unary constraint is emitted, nor any
    edge constraint that every pair of its end labels satisfies (module
    docstring).  ``distances``, when given, must be the instance graph's
    hop distances from s and t capped at L (``fpt.prune_to_relevant`` has
    them); they set the label domains.  ``sizes``, when given, is the
    size of the twin class each vertex stands for (``dp.solve_exact_cut``),
    and an edge's constraint weighs the product of its ends' sizes: the
    edges between two classes, which are joined completely.
    """
    if inst.variant is not Variant.EDGE:
        raise ValueError("encode_edge_cut requires an edge-cut instance")
    domains = tuple(tuple(range(lo, hi + 1))
                    for lo, hi in _label_ranges(inst, distances))
    soft = _edge_constraints(inst.graph, domains, sizes)
    return CspInstance(inst.graph.n, domains, (), tuple(soft))


def encode_vertex_cut(inst: Instance, *,
                      distances: Optional[Distances] = None,
                      sizes: Optional[Sequence[int]] = None) -> CspInstance:
    """Vertex-cut encoding: -1 wildcard on hard edge constraints, unary costs.

    A neighbour of s keeps -1 and its labels up to 1, a neighbour of t -1
    and its labels from L on, so no edge at a terminal is emitted (module
    docstring).  An id absent from the graph has the one label 0.
    ``distances`` is as in ``encode_edge_cut``; with ``sizes``, a vertex's
    unary "kept" constraint weighs its class size.
    """
    if inst.variant is not Variant.VERTEX:
        raise ValueError("encode_vertex_cut requires a vertex-cut instance")
    g, s, t, L = inst.graph, inst.s, inst.t, inst.L
    ranges = _label_ranges(inst, distances)
    for v in g.neighbors(s):
        ranges[v] = (ranges[v][0], min(ranges[v][1], 1))
    for v in g.neighbors(t):
        ranges[v] = (max(ranges[v][0], L), ranges[v][1])
    present = g.vertices
    domains = tuple(
        (() if v == s or v == t or v not in present else (-1,))
        + tuple(range(lo, hi + 1)) for v, (lo, hi) in enumerate(ranges))
    hard = _edge_constraints(g, domains)
    soft = tuple(Constraint((v,), _kept(domains[v]), 1 if sizes is None
                            else sizes[v])
                 for v in g.sorted_vertices() if v not in (s, t))
    return CspInstance(g.n, domains, tuple(hard), soft)


def _check_labels(inst: Instance, z: Assignment) -> None:
    if len(z) != inst.graph.n:
        raise InvalidAssignment("assignment length mismatch")
    L = inst.L
    if z[inst.s] != 0:
        raise InvalidAssignment(f"s must be labeled 0, got {z[inst.s]}")
    if z[inst.t] != L + 1:
        raise InvalidAssignment(f"t must be labeled {L + 1}, got {z[inst.t]}")
    lo = 0 if inst.variant is Variant.EDGE else -1
    for v in inst.graph.sorted_vertices():
        if not lo <= z[v] <= L + 1:
            raise InvalidAssignment(f"label {z[v]} of vertex {v} out of domain")


def decode_edge(inst: Instance, z: Assignment) -> CutSet:
    """Edges whose labels differ by more than 1; always a feasible cut."""
    if inst.variant is not Variant.EDGE:
        raise ValueError("decode_edge requires an edge-cut instance")
    _check_labels(inst, z)
    members = tuple(e for e in sorted(inst.graph.edges)
                    if abs(z[e[0]] - z[e[1]]) > 1)
    return CutSet(Variant.EDGE, members, algorithm="csp-decode")


def decode_vertex(inst: Instance, z: Assignment) -> CutSet:
    """Vertices labeled -1; hard edge constraints are re-checked first."""
    if inst.variant is not Variant.VERTEX:
        raise ValueError("decode_vertex requires a vertex-cut instance")
    _check_labels(inst, z)
    for u, v in sorted(inst.graph.edges):
        if z[u] != -1 and z[v] != -1 and abs(z[u] - z[v]) > 1:
            raise InvalidAssignment(
                f"edge ({u},{v}) violates its hard constraint")
    members = tuple(v for v in inst.graph.sorted_vertices()
                    if v not in (inst.s, inst.t) and z[v] == -1)
    return CutSet(Variant.VERTEX, members, algorithm="csp-decode")

