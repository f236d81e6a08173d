"""One front end for every solver: prune to the vertices short s-t paths can use.

A vertex can lie on an s-t path of length at most L only if
d(s,v) + d(t,v) <= L.  ``prune_to_relevant`` runs two L-capped BFS
searches once per solve and keeps those vertices: one from s over the
whole graph, and one from t that enters only vertices it keeps.
Solving on their induced subgraph is optimal for the original instance: no
short path can leave the subgraph, and the subgraph optimum is a lower
bound.  When t is more than L from s nothing is kept: no short path exists
and the empty cut is optimal.

The prune's distances are the subgraph's own: if v is kept, every vertex u
on a shortest s-v path has d(s,u) + d(u,t) <= d(s,v) + d(v,t) <= L, so u is
kept too (likewise towards t).  ``solve_fpt`` therefore hands the prune to
``dp.solve_exact_cut``, which solves the kept region and gives the
distances to the CSP encoder instead of searching again; ``approx_auto``
decomposes only the kept region.  The prune builds no graph: which
vertices the DP solves, and under which ids, is decided in
``dp.solve_exact_cut`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import graph
from .dp import TABLE_BUDGET, solve_exact_cut
# hop_distance, build_heuristic and verify_cut: unused, kept for the
# benchmark's tracer
from .graph import CutSet, Instance, bfs_distances, hop_distance, verify_cut
from .treedec import TreeDecomposition, build_heuristic


@dataclass(frozen=True)
class PruneResult:
    """The vertices short s-t paths can use, with their distances.

    ``kept`` lists the surviving ids ascending, and is empty when t is more
    than L from s.  ``d_s`` and ``d_t`` are indexed by vertex id, as
    ``graph.bfs_distances`` and ``graph.flat_bfs`` return them: for a kept
    v, d_s[v] and d_t[v] are its hop distances from s and t, which are also
    its distances in the kept vertices' induced subgraph.  d_t[v] is None
    exactly when v is not kept.
    """

    kept: tuple[int, ...]
    d_s: Sequence[Optional[int]]
    d_t: Sequence[Optional[int]]


def prune_to_relevant(inst: Instance) -> PruneResult:
    """Keep the vertices v with d(s,v) + d(v,t) <= L (none if t is out of reach).

    The search from t enters v at depth k only if d(s,v) + k <= L.  Every
    vertex on a shortest t-v path of a kept v is kept (module docstring),
    so it reaches exactly the kept vertices, each at its distance from t.
    """
    g, L = inst.graph, inst.L
    ds = bfs_distances(g, inst.s, cap=L)
    if ds[inst.t] is None:
        return PruneResult((), ds, [None] * g.n)
    dt = graph.flat_bfs(g, inst.t, L, offset=ds)[0]
    return PruneResult(tuple([v for v, d in enumerate(dt) if d is not None]),
                       ds, dt)


def solve_fpt(inst: Instance, td: Optional[TreeDecomposition] = None, *,
              table_budget: int = TABLE_BUDGET) -> CutSet:
    """Prune, then solve the kept region exactly (``dp.solve_exact_cut``).

    A supplied decomposition must decompose the instance graph
    (InvalidDecomposition otherwise, naming the graph's own vertex ids,
    also when no short path exists).  The cut is in the instance's ids and
    verified on the instance; its ``width_used`` is None when no DP runs:
    no short path exists, or L >= len(kept) - 1 and the cut came from a
    max-flow.
    """
    return solve_exact_cut(inst, td, table_budget=table_budget,
                           prune=prune_to_relevant(inst))
