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
kept too (likewise towards t).  ``solve_fpt`` therefore hands them to the
CSP encoder instead of searching the subgraph again, and ``approx_auto``
decomposes only the kept region.  Cuts are verified on the original graph
anyway, as defense in depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import graph
from .dp import TABLE_BUDGET, solve_exact_cut
from .errors import LbcutError
# hop_distance and build_heuristic: unused, kept for the benchmark's tracer
from .graph import (CutSet, Graph, Instance, Variant, bfs_distances,
                    hop_distance, min_edge_cut, min_vertex_cut, norm_edge,
                    verify_cut)
from .treedec import TreeDecomposition, build_heuristic, validate


@dataclass(frozen=True)
class PruneResult:
    """The vertices short s-t paths can use, with their distances.

    ``kept`` lists the surviving original ids ascending, and is empty when t
    is more than L from s.  New id i corresponds to original id kept[i], and
    ``to_sub`` maps the other way.  ``d_s[i]`` and ``d_t[i]`` are the hop
    distances of kept[i] from s and t, which are also its distances in
    ``subgraph``, the induced subgraph of ``graph`` (the instance graph)
    relabeled to 0..len(kept)-1.  The subgraph is built on first use.
    """

    kept: tuple[int, ...]
    to_sub: dict[int, int]
    d_s: tuple[int, ...]
    d_t: tuple[int, ...]
    graph: Graph = field(repr=False, compare=False)

    @cached_property
    def subgraph(self) -> Graph:
        g = self.graph
        index = [-1] * g.n  # new id by original id, -1 if not kept
        for i, v in enumerate(self.kept):
            index[v] = i
        edges = frozenset((i, j) for i, v in enumerate(self.kept)
                          for w in g.neighbors(v) if (j := index[w]) > i)
        return Graph(len(self.kept), frozenset(range(len(self.kept))), edges)


def prune_to_relevant(inst: Instance) -> PruneResult:
    """Keep the vertices v with d(s,v) + d(v,t) <= L (none if t is out of reach).

    The search from t enters v at depth k only if d(s,v) + k <= L.  Every
    vertex on a shortest t-v path of a kept v is kept (module docstring),
    so it reaches exactly the kept vertices, each at its distance from t.
    """
    g, L = inst.graph, inst.L
    ds = bfs_distances(g, inst.s, cap=L)
    if ds[inst.t] is None:
        return PruneResult((), {}, (), (), g)
    dt = graph.flat_bfs(g, inst.t, L, offset=ds)[0]
    kept = tuple([v for v, d in enumerate(dt) if d is not None])
    return PruneResult(kept, {v: i for i, v in enumerate(kept)},
                       tuple([ds[v] for v in kept]),
                       tuple([dt[v] for v in kept]), g)


def solve_fpt(inst: Instance, td: Optional[TreeDecomposition] = None, *,
              table_budget: int = TABLE_BUDGET) -> CutSet:
    """Prune, solve exactly on the subgraph, translate back, and re-verify.

    A supplied decomposition must decompose the instance graph
    (``treedec.validate`` raises InvalidDecomposition otherwise, naming
    the graph's own vertex ids); it is then pruned to the kept vertices and
    relabeled.  Otherwise ``dp.solve_exact_cut`` builds one heuristically
    on the subgraph's twin representatives.

    When L >= len(kept) - 1, every simple s-t path of the subgraph is
    short, so the bounded cuts are its s-t separators, and a max-flow
    minimum cut is optimal (Menger's theorem): no decomposition or DP runs.
    Below that, ``dp.solve_exact_cut`` solves the subgraph's instance,
    which keeps L, and contracts its twins before it decomposes.  The cut's
    ``width_used`` is None when no DP runs: no short path exists, or the
    cut came from the flow.
    """
    if td is not None:
        validate(td, inst.graph)
    pr = prune_to_relevant(inst)
    if not pr.kept:
        return CutSet(inst.variant, (), lower_bound=0, algorithm="fpt")

    s, t = pr.to_sub[inst.s], pr.to_sub[inst.t]
    if inst.L >= len(pr.kept) - 1:
        if inst.variant is Variant.EDGE:
            sub_cut = min_edge_cut(pr.subgraph, s, t)
        else:
            sub_cut = min_vertex_cut(pr.subgraph, s, t)
    else:
        sub_td = None
        if td is not None:
            bags = tuple(
                tuple(pr.to_sub[v] for v in bag if v in pr.to_sub)
                for bag in td.bags)
            sub_td = TreeDecomposition(bags, td.tree_edges, td.root)
        sub_cut = solve_exact_cut(
            Instance(pr.subgraph, s, t, inst.L, inst.variant), sub_td,
            table_budget=table_budget, distances=(pr.d_s, pr.d_t))

    if inst.variant is Variant.EDGE:
        members = tuple(norm_edge(pr.kept[u], pr.kept[v])
                        for u, v in sub_cut.members)
    else:
        members = tuple(pr.kept[v] for v in sub_cut.members)
    cut = CutSet(inst.variant, members, lower_bound=len(members),
                 algorithm="fpt", width_used=sub_cut.width_used)
    if not verify_cut(inst, cut).feasible:
        raise LbcutError(
            "cut optimal for the pruned subgraph failed verification "
            "on the original graph; solver bug")
    return cut
