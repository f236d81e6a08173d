"""Encoding of L-bounded cut instances as minimum-cost CSPs, and decoding back.

One variable per vertex holds a distance-like label.  Labels run over
0..L+1 with s pinned to 0 and t to L+1; a kept edge forces its endpoint
labels within 1 of each other, so any surviving s-t path needs more than L
edges.  The vertex variant adds a label -1 meaning "deleted" and moves the
unit cost onto unary constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAssignment, InvalidCut, NoVertexCut
from .graph import (CutSet, Graph, Instance, Variant, bfs_distances, remove,
                    verify_cut)

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class Constraint:
    """A relational constraint: sorted variable scope and its allowed tuples."""

    scope: tuple[int, ...]
    allowed: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "allowed",
                           frozenset(tuple(t) for t in self.allowed))
        if not self.scope:
            raise InvalidAssignment("constraint scope may not be empty")
        if list(self.scope) != sorted(set(self.scope)):
            raise InvalidAssignment("constraint scope must be sorted and distinct")

    def satisfied_by(self, values: Assignment) -> bool:
        return tuple(values[v] for v in self.scope) in self.allowed


@dataclass(frozen=True)
class CspInstance:
    """Finite-domain minimization CSP with hard and unit-weight soft constraints."""

    num_vars: int
    domains: tuple[tuple[int, ...], ...]
    hard: tuple[Constraint, ...]
    soft: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "domains",
                           tuple(tuple(d) for d in self.domains))
        object.__setattr__(self, "hard", tuple(self.hard))
        object.__setattr__(self, "soft", tuple(self.soft))
        if len(self.domains) != self.num_vars:
            raise InvalidAssignment("one domain required per variable")
        for d in self.domains:
            if list(d) != sorted(set(d)):
                raise InvalidAssignment("domains must be sorted and duplicate-free")
        for c in self.hard + self.soft:
            if c.scope[0] < 0 or c.scope[-1] >= self.num_vars:
                raise InvalidAssignment(f"scope {c.scope} out of range")
            for t in c.allowed:
                if len(t) != len(c.scope):
                    raise InvalidAssignment("allowed tuple arity mismatch")
                for v, x in zip(c.scope, t):
                    if x not in self.domains[v]:
                        raise InvalidAssignment(
                            f"allowed value {x} outside domain of variable {v}")


@dataclass(frozen=True)
class CspSolution:
    cost: int
    assignment: Assignment


def violated_soft_count(q: CspInstance, z: Assignment) -> int:
    return sum(1 for c in q.soft if not c.satisfied_by(z))


def satisfies_all_hard(q: CspInstance, z: Assignment) -> bool:
    return all(c.satisfied_by(z) for c in q.hard)


def constraint_graph(q: CspInstance) -> Graph:
    edges = set()
    for c in q.hard + q.soft:
        for i in range(len(c.scope)):
            for j in range(i + 1, len(c.scope)):
                edges.add((c.scope[i], c.scope[j]))
    return Graph(q.num_vars, frozenset(range(q.num_vars)), frozenset(edges))


def encode_edge_cut(inst: Instance) -> CspInstance:
    """Edge-cut encoding: soft near-constraints on edges, cost = cut size."""
    if inst.variant is not Variant.EDGE:
        raise ValueError("encode_edge_cut requires an edge-cut instance")
    L = inst.L
    dom = tuple(range(L + 2))
    domains = tuple(dom for _ in range(inst.graph.n))
    hard = (Constraint((inst.s,), frozenset({(0,)})),
            Constraint((inst.t,), frozenset({(L + 1,)})))
    near = frozenset((a, b) for a in dom for b in dom if abs(a - b) <= 1)
    soft = tuple(Constraint(e, near) for e in sorted(inst.graph.edges))
    return CspInstance(inst.graph.n, domains, hard, soft)


def encode_vertex_cut(inst: Instance) -> CspInstance:
    """Vertex-cut encoding: -1 wildcard on hard edge constraints, unary costs."""
    if inst.variant is not Variant.VERTEX:
        raise ValueError("encode_vertex_cut requires a vertex-cut instance")
    if inst.graph.has_edge(inst.s, inst.t):
        raise NoVertexCut(f"vertices {inst.s} and {inst.t} are adjacent")
    L = inst.L
    base = tuple(range(L + 2))
    wild = (-1,) + base
    domains = tuple(base if v in (inst.s, inst.t) else wild
                    for v in range(inst.graph.n))
    hard = [Constraint((inst.s,), frozenset({(0,)})),
            Constraint((inst.t,), frozenset({(L + 1,)}))]
    for u, v in sorted(inst.graph.edges):
        allowed = frozenset(
            (a, b) for a in domains[u] for b in domains[v]
            if a == -1 or b == -1 or abs(a - b) <= 1)
        hard.append(Constraint((u, v), allowed))
    kept = frozenset((x,) for x in base)
    soft = tuple(Constraint((v,), kept)
                 for v in inst.graph.sorted_vertices() if v not in (inst.s, inst.t))
    return CspInstance(inst.graph.n, domains, tuple(hard), soft)


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
    if inst.variant is Variant.VERTEX and (z[inst.s] == -1 or z[inst.t] == -1):
        raise InvalidAssignment("terminals cannot be deleted")


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


def cut_to_assignment(inst: Instance, cut: CutSet) -> Assignment:
    """Truncated shortest-path labels of the graph minus a feasible cut.

    Labels are min(d(s, v), L+1) in the remainder; deleted vertices (vertex
    variant) get -1, unreachable and absent vertices get L+1.
    """
    if not verify_cut(inst, cut).feasible:
        raise InvalidCut("cut is not feasible, no labeling exists")
    g2 = remove(inst.graph, cut)
    dist = bfs_distances(g2, inst.s)
    L = inst.L
    deleted = set(cut.members) if inst.variant is Variant.VERTEX else set()
    values = []
    for v in range(inst.graph.n):
        if v in deleted:
            values.append(-1)
        elif not g2.has_vertex(v) or dist[v] is None:
            values.append(L + 1)
        else:
            values.append(min(dist[v], L + 1))
    return tuple(values)
