"""Exact solving after pruning to the vertices that short s-t paths can use.

A vertex can lie on an s-t path of length at most L only if
d(s,v) + d(t,v) <= L.  Solving on the induced subgraph of those vertices is
optimal for the original instance: no short path can leave the subgraph, and
the subgraph optimum is a lower bound.  Cuts are verified on the original
graph anyway, as defense in depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dp import TABLE_BUDGET, solve_exact_cut
from .errors import LbcutError, NoVertexCut
from .graph import (CutSet, Graph, Instance, Variant, bfs_distances,
                    hop_distance, norm_edge, verify_cut)
from .treedec import TreeDecomposition, build_heuristic


@dataclass(frozen=True)
class PruneResult:
    """Induced relevant subgraph with a dense relabeling.

    ``kept`` lists surviving original ids ascending; new id i corresponds to
    original id kept[i], and ``to_sub`` maps the other way.
    """

    subgraph: Graph
    kept: tuple[int, ...]
    to_sub: dict[int, int]


def prune_to_relevant(inst: Instance) -> PruneResult:
    g = inst.graph
    ds = bfs_distances(g, inst.s, cap=inst.L)
    dt = bfs_distances(g, inst.t, cap=inst.L)
    kept = tuple(v for v in g.sorted_vertices()
                 if ds[v] is not None and dt[v] is not None
                 and ds[v] + dt[v] <= inst.L)
    to_sub = {v: i for i, v in enumerate(kept)}
    edges = frozenset(
        norm_edge(to_sub[u], to_sub[v])
        for u, v in g.edges if u in to_sub and v in to_sub)
    sub = Graph(len(kept), frozenset(range(len(kept))), edges)
    return PruneResult(sub, kept, to_sub)


def solve_fpt(inst: Instance, td: Optional[TreeDecomposition] = None, *,
              table_budget: int = TABLE_BUDGET) -> CutSet:
    """Prune, solve exactly on the subgraph, translate back, and re-verify.

    A supplied decomposition is pruned to the kept vertices and relabeled;
    otherwise one is built heuristically on the subgraph.  The cut's
    ``width_used`` is None when no short path exists and nothing is solved.
    """
    g = inst.graph
    if inst.variant is Variant.VERTEX and g.has_edge(inst.s, inst.t):
        raise NoVertexCut(f"vertices {inst.s} and {inst.t} are adjacent")
    if hop_distance(g, inst.s, inst.t, cap=inst.L) is None:
        return CutSet(inst.variant, (), lower_bound=0, algorithm="fpt")

    pr = prune_to_relevant(inst)
    sub_inst = Instance(pr.subgraph, pr.to_sub[inst.s], pr.to_sub[inst.t],
                        inst.L, inst.variant)
    if td is not None:
        bags = tuple(
            tuple(pr.to_sub[v] for v in bag if v in pr.to_sub)
            for bag in td.bags)
        sub_td = TreeDecomposition(bags, td.tree_edges, td.root)
    else:
        sub_td = build_heuristic(pr.subgraph)
    sub_cut = solve_exact_cut(sub_inst, sub_td, table_budget=table_budget)

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
