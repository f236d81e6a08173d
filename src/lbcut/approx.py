"""Width-factor approximation for L-bounded vertex cuts.

Given a rooted tree decomposition of width w, the returned cut is feasible,
at most w times the optimum, and comes with a certified lower bound on the
optimum.  One loop runs over the original graph and decomposition with a
shrinking set of alive vertices; a node's live bag (live subtree set) is its
bag (the union of the bags in its subtree) restricted to them.  While an s-t
path of length <= L (a short path) remains among the alive vertices:

  1. if no bag holds both s and t, add a minimum vertex cut (at most w
     vertices: some bag minus the terminals separates them) and stop;
  2. else let b be the deepest node (then smallest id) whose bag holds both
     terminals and whose live subtree set has a short path, and delete its
     live bag minus the terminals: every short path there runs through it,
     disjointly from the short paths that remain;
  3. if there is no such b, delete the live bag of the topmost node holding
     both terminals, minus the terminals, and stop: all short paths would
     otherwise lie in that node's subtree, which has none.

Each step adds 1 to the lower bound.

Negative cache.  Steps delete vertices but never s or t, so the nodes
holding both terminals never change, and a node whose live subtree set has
no short path never gets one again.  Scanning them deepest first, every
node before b has none, so one pass over them in that order does all the
steps, and each node tests negative once.  A test is a depth-capped BFS
restricted to the live subtree set; no subgraph is built.

No split case.  If b's live bag were {s, t}, a short path in its subtree
would have internal vertices (s and t are not adjacent) outside B(b).  By
the running-intersection property they, and the path edges joining them,
lie in the subtree of one child c, and so do the edges from s and t to the
path; then s and t are in B(c), and c is a deeper node with a short path.
So the deleted set is never empty on a valid decomposition; if it is, the
loop raises InvalidDecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidDecomposition, LbcutError, NoVertexCut
from .graph import (CutSet, Instance, Variant, hop_distance, min_vertex_cut,
                    verify_cut)
# split_at, prune_decomposition: unused, kept for the benchmark's tracer
from .treedec import (Strategy, TreeDecomposition, build_heuristic,
                      prune_decomposition, split_at, subtree_vertex_sets,
                      validate, width)


@dataclass(frozen=True)
class TraceEvent:
    """One step of the loop: leaf-mincut, prune, or fallback.

    ``bag`` is the node's live bag and ``subtree_vertices`` its live
    subtree set when the step fired.
    """

    kind: str
    node: Optional[int] = None
    bag: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    subtree_vertices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ApproxResult:
    cut: CutSet
    trace: tuple[TraceEvent, ...]

    # Read through to the cut; the benchmark still reads them here.
    @property
    def lower_bound(self) -> int:
        return self.cut.lower_bound

    @property
    def width_used(self) -> int:
        return self.cut.width_used


def approx_vertex_cut(inst: Instance, td: TreeDecomposition) -> ApproxResult:
    """Run the approximation on a validated decomposition of the instance graph."""
    if inst.variant is not Variant.VERTEX:
        raise ValueError("the approximation handles vertex cuts only")
    if inst.graph.has_edge(inst.s, inst.t):
        raise NoVertexCut(f"vertices {inst.s} and {inst.t} are adjacent")
    check = validate(td, inst.graph)
    if not check.ok:
        raise InvalidDecomposition(check.violation)
    bag_sets = td.bag_sets()
    if not set().union(*bag_sets) <= inst.graph.vertices:
        raise InvalidDecomposition(
            "bags contain vertices that are not in the graph")

    g, s, t, L = inst.graph, inst.s, inst.t, inst.L
    both = sorted((a for a in range(td.n_nodes) if {s, t} <= bag_sets[a]),
                  key=lambda a: (-td.depth[a], a))
    subtree_sets = subtree_vertex_sets(td)
    alive = set(g.vertices)
    members: set[int] = set()
    trace: list[TraceEvent] = []

    def delete_live_bag(kind: str, a: int) -> None:
        live_bag = bag_sets[a] & alive
        removed = tuple(sorted(live_bag - {s, t}))
        if not removed:
            raise InvalidDecomposition(
                f"the live bag of node {a} holds only the terminals, so "
                "deleting it would not shrink the graph; the decomposition "
                "is inconsistent")
        trace.append(TraceEvent(
            kind, node=a, bag=tuple(sorted(live_bag)), removed=removed,
            subtree_vertices=tuple(sorted(subtree_sets[a] & alive))))
        alive.difference_update(removed)
        members.update(removed)

    # One pass, deepest first (see "Negative cache").  A node with a short
    # path implies one in the graph, so the graph is tested only after it.
    for b in both:
        while hop_distance(g, s, t, cap=L,
                           within=subtree_sets[b] & alive) is not None:
            delete_live_bag("prune", b)
    if hop_distance(g, s, t, cap=L, within=alive) is not None:
        if both:
            delete_live_bag("fallback",
                            min(both, key=lambda a: (td.depth[a], a)))
        else:
            cut = min_vertex_cut(g, s, t)
            trace.append(TraceEvent("leaf-mincut", removed=cut.members))
            members.update(cut.members)

    cut = CutSet(Variant.VERTEX, tuple(sorted(members)),
                 lower_bound=len(trace), algorithm="approx",
                 width_used=width(td))
    if not verify_cut(inst, cut).feasible:
        raise LbcutError("approximation returned an infeasible cut; solver bug")
    return ApproxResult(cut, tuple(trace))


def approx_auto(inst: Instance,
                strategy: Strategy = Strategy.MIN_FILL) -> ApproxResult:
    """Build a heuristic decomposition, then approximate with it."""
    if inst.variant is not Variant.VERTEX:
        raise ValueError("the approximation handles vertex cuts only")
    td = build_heuristic(inst.graph, strategy)
    return approx_vertex_cut(inst, td)
