"""Width-factor approximation for L-bounded vertex cuts.

Given a rooted tree decomposition of width w, the returned cut is feasible,
at most w times the optimum, and comes with a certified lower bound on the
optimum.  ``approx_vertex_cut`` runs the loop below on the decomposition it
is given.  ``approx_auto`` is the front end:

  1. it prunes to the vertices some short s-t path can use, with the exact
     solver's front end (``fpt.prune_to_relevant``), and decomposes only
     them, so w is the width of the kept graph's decomposition, never of
     the parts no short path reaches;
  2. it puts the common neighbours of s and t in the cut (``forced``).
     With L >= 2 each such c is the only inner vertex of the short path
     s-c-t, so every cut holds it, and these paths are internally
     disjoint;
  3. if no short path avoids them, they are the cut, optimal, with lower
     bound |forced| and an empty trace; otherwise the loop runs with them
     already deleted.  The loop's paths avoid them, so the lower bound is
     ``len(forced) + len(trace)``, and the cut, at most |forced| plus w per
     step, is at most w times that bound (w >= 1 when an s-t path exists).

The decomposition is built in step 1 even when the forced vertices alone
are a cut: ``width_used`` states the factor the cut is checked against.

One loop runs over the instance graph and decomposition with a shrinking
set of alive vertices; a node's live bag (live subtree set) is its bag (the
union of the bags in its subtree) restricted to them.  While an s-t
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
(``graph.hop_distance``) confined to the live subtree set that asks for
t's distance alone.  No subgraph is built: each level intersects the
frontier's neighbour sets (``Graph.adj_sets``) with the part of the set
not reached yet, in C and over the smaller side, so a test costs what it
reaches even where s has many deleted neighbours.

Interval index (``LiveSubtrees``).  No union of a subtree's bags is stored.
A vertex v lies in the subtree set of node b exactly when v is in B(b) or
top[v], the highest node whose bag holds v (``treedec.top_nodes``), lies in
b's subtree: the nodes holding v form a subtree below top[v], so if top[v]
is outside b's subtree and some node below b holds v, the tree path from
top[v] down to that node passes through b.  Listing the live vertices by
the depth-first preorder position of their top node, in one list with
their keys in a parallel one, makes the vertices of the second kind one
contiguous slice per node, found by bisecting the keys.  A live subtree set
is then b's live bag plus b's slice, and building it costs about its own
size; a deletion finds the vertex from its key and removes it from both
lists, a memmove of the entries after it.

No split case.  If b's live bag were {s, t}, a short path in its subtree
would have internal vertices (s and t are not adjacent) outside B(b).  By
the running-intersection property they, and the path edges joining them,
lie in the subtree of one child c, and so do the edges from s and t to the
path; then s and t are in B(c), and c is a deeper node with a short path.
So the deleted set is never empty on a valid decomposition; if it is, the
loop raises InvalidDecomposition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidDecomposition, LbcutError
from .fpt import prune_to_relevant
from .graph import (CutSet, Instance, Variant, hop_distance, min_vertex_cut,
                    verify_cut)
# split_at, prune_decomposition, subtree_vertex_sets: unused, kept for the
# benchmark's tracer
from .treedec import (TreeDecomposition, build_heuristic, prune_decomposition,
                      split_at, subtree_vertex_sets, validate, width)


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


class LiveSubtrees:
    """Every node's live subtree set, under deletion of vertices (the
    interval index of the module docstring).

    ``top`` is the decomposition's top-node map; its keys start out alive.
    Node a's subtree holds the preorder positions ``pre[a]`` to
    ``pre[a] + size[a] - 1``; ``verts`` lists the live vertices ascending
    by ``keys``, the positions of their top nodes.
    """

    def __init__(self, td: TreeDecomposition, top: dict[int, int]):
        self.alive = set(top)
        self._bag_sets = td.bag_sets
        self._top = top
        self._pre = pre = [0] * td.n_nodes
        stack, n_seen = [td.root], 0
        while stack:
            a = stack.pop()
            pre[a], n_seen = n_seen, n_seen + 1
            stack.extend(td.children[a])
        self._size = size = [1] * td.n_nodes
        for a in reversed(td.order):
            if td.parent[a] is not None:
                size[td.parent[a]] += size[a]
        self._verts = sorted(top, key=lambda v: pre[top[v]])
        self._keys = [pre[top[v]] for v in self._verts]

    def delete(self, vertices) -> None:
        verts, keys, pre, top = self._verts, self._keys, self._pre, self._top
        for v in vertices:
            self.alive.remove(v)
            i = verts.index(v, bisect_left(keys, pre[top[v]]))
            del verts[i], keys[i]

    def __getitem__(self, a: int) -> set[int]:
        """The live subtree set of node a: a fresh set."""
        live = self.alive.intersection(self._bag_sets[a])
        keys, first = self._keys, self._pre[a]
        live.update(self._verts[bisect_left(keys, first):
                                bisect_left(keys, first + self._size[a])])
        return live


@dataclass(frozen=True)
class ApproxResult:
    """The cut and the loop's steps.

    ``forced`` lists the vertices deleted before the loop: the common
    neighbours of s and t, each the only inner vertex of a short path.
    Those paths and the one each step certifies are internally disjoint,
    so ``cut.lower_bound`` is ``len(forced) + len(trace)``.
    """

    cut: CutSet
    trace: tuple[TraceEvent, ...]
    forced: tuple[int, ...] = ()

    # Read through to the cut; the benchmark still reads them here.
    @property
    def lower_bound(self) -> int:
        return self.cut.lower_bound

    @property
    def width_used(self) -> int:
        return self.cut.width_used


def _checked(inst: Instance, res: ApproxResult) -> ApproxResult:
    if not verify_cut(inst, res.cut).feasible:
        raise LbcutError("approximation returned an infeasible cut; solver bug")
    return res


def approx_vertex_cut(inst: Instance, td: TreeDecomposition) -> ApproxResult:
    """Run the approximation on a decomposition of the instance graph;
    ``treedec.validate`` raises InvalidDecomposition if it is not one."""
    if inst.variant is not Variant.VERTEX:
        raise ValueError("the approximation handles vertex cuts only")
    return _checked(inst, _deletion_loop(inst, td, frozenset()))


def _deletion_loop(inst: Instance, td: TreeDecomposition,
                   forced: frozenset[int]) -> ApproxResult:
    """The loop of the module docstring, on ``inst.graph`` minus ``forced``
    (vertices other than s and t, already in the cut); the cut is not
    verified here."""
    live = LiveSubtrees(td, validate(td, inst.graph))
    live.delete(forced)
    bag_sets, alive = td.bag_sets, live.alive

    g, s, t, L = inst.graph, inst.s, inst.t, inst.L
    both = sorted((a for a in range(td.n_nodes) if {s, t} <= bag_sets[a]),
                  key=lambda a: (-td.depth[a], a))
    members: set[int] = set(forced)
    trace: list[TraceEvent] = []

    def delete_live_bag(kind: str, a: int, subtree: set[int]) -> None:
        """Delete node a's live bag minus the terminals; ``subtree`` is a's
        live subtree set, which loses the deleted vertices too."""
        live_bag = bag_sets[a] & alive
        removed = tuple(sorted(live_bag - {s, t}))
        if not removed:
            raise InvalidDecomposition(
                f"the live bag of node {a} holds only the terminals, so "
                "deleting it would not shrink the graph; the decomposition "
                "is inconsistent")
        trace.append(TraceEvent(
            kind, node=a, bag=tuple(sorted(live_bag)), removed=removed,
            subtree_vertices=tuple(sorted(subtree))))
        live.delete(removed)
        subtree.difference_update(removed)
        members.update(removed)

    # One pass, deepest first (see "Negative cache").  Only b's own steps
    # delete vertices while b is tested, so its live subtree set is read off
    # the index once and loses each step's deleted vertices.  A node with a
    # short path implies one in the graph, so the graph is tested after it.
    for b in both:
        within = live[b]
        while hop_distance(g, s, t, cap=L, within=within) is not None:
            delete_live_bag("prune", b, within)
    if hop_distance(g, s, t, cap=L, within=alive) is not None:
        if both:
            b = min(both, key=lambda a: (td.depth[a], a))
            delete_live_bag("fallback", b, live[b])
        else:
            # No step ran, so the live vertices are the graph minus forced.
            cut = min_vertex_cut(g.induced(alive) if forced else g, s, t)
            trace.append(TraceEvent("leaf-mincut", removed=cut.members))
            members.update(cut.members)

    cut = CutSet(Variant.VERTEX, tuple(members),
                 lower_bound=len(forced) + len(trace), algorithm="approx",
                 width_used=width(td))
    return ApproxResult(cut, tuple(trace), tuple(sorted(forced)))


def approx_auto(inst: Instance) -> ApproxResult:
    """Prune to the short-path region, decompose it, put the common
    neighbours of s and t in the cut, and run the loop on what is left.

    The front end is ``fpt.prune_to_relevant``.  With no short path the
    empty cut is returned (``lower_bound`` 0, ``width_used`` None).  When
    pruning drops nothing the instance runs as given; otherwise on the
    induced subgraph of the kept vertices, which keeps the original ids, so
    the trace names original vertices.  Every short path lies in that
    subgraph, so its cut is a cut of the original graph and its disjoint
    short paths certify the same lower bound.  The factor ``width_used`` is
    the width of the kept graph's decomposition, built even when the
    common neighbours alone are a cut.  The cut is verified on the
    instance given.
    """
    if inst.variant is not Variant.VERTEX:
        raise ValueError("the approximation handles vertex cuts only")
    kept = prune_to_relevant(inst).kept
    if not kept:
        return ApproxResult(CutSet(Variant.VERTEX, (), lower_bound=0,
                                   algorithm="approx"), ())
    g, s, t, L = inst.graph, inst.s, inst.t, inst.L
    sub = inst if len(kept) == len(g.vertices) else Instance(
        g.induced(kept), s, t, L, Variant.VERTEX)
    td = build_heuristic(sub.graph)
    # Something is kept, so t is within L >= 2 of s (they are not adjacent),
    # and each common neighbour c is kept: s-c-t is a short path.
    forced = frozenset(g.neighbors(s)).intersection(g.neighbors(t))
    if forced and hop_distance(sub.graph, s, t, cap=L,
                               within=set(kept).difference(forced)) is None:
        cut = CutSet(Variant.VERTEX, tuple(forced), lower_bound=len(forced),
                     algorithm="approx", width_used=width(td))
        return _checked(inst, ApproxResult(cut, (), cut.members))
    return _checked(inst, _deletion_loop(sub, td, forced))
