"""Reference checks computed apart from ``lbcut``.

Feasibility is a hop-bounded BFS written here; exact optima come from a
path-hitting integer program solved with ``scipy.optimize.milp``.  Only the
graph's vertex and edge lists are read from ``lbcut`` objects.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency(graph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def short_path(adj: dict[int, list[int]], s: int, t: int, L: int,
               vertices_gone: Iterable[int] = (),
               edges_gone: Iterable[Edge] = ()) -> Optional[list[int]]:
    """A shortest s-t path of at most L edges avoiding the removed elements."""
    vgone = set(vertices_gone)
    egone = set(edges_gone)
    parent = {s: s}
    frontier = [s]
    for _ in range(L):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w in parent or w in vgone or _edge(u, w) in egone:
                    continue
                parent[w] = u
                if w == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return None


def is_cut(inst, members: set) -> bool:
    """True iff ``members`` are elements of the graph (never s or t) whose
    removal leaves no s-t path of at most L edges."""
    adj = adjacency(inst.graph)
    if inst.variant.value == "vertex":
        if not members <= set(adj) - {inst.s, inst.t}:
            return False
        return short_path(adj, inst.s, inst.t, inst.L, vertices_gone=members) is None
    edges = {_edge(u, v) for u, v in members}
    if not edges <= set(inst.graph.edges):
        return False
    return short_path(adj, inst.s, inst.t, inst.L, edges_gone=edges) is None


def _path_elements(path: list[int], vertex: bool) -> list:
    if vertex:
        return path[1:-1]
    return [_edge(u, v) for u, v in zip(path, path[1:])]


def ilp_optimum(inst) -> tuple[int, tuple]:
    """Minimum L-bounded cut by lazily generated path-hitting constraints.

    Minimise the number of chosen elements subject to "every listed short
    s-t path contains a chosen element".  After each solve, the short paths
    that the solution leaves open are packed greedily (each found path's
    elements are set aside before the next search) and added as rows; when
    none is left the solution is a feasible cut, and it is optimal because
    the program only relaxed the full path list.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_array

    vertex = inst.variant.value == "vertex"
    adj = adjacency(inst.graph)
    s, t, L = inst.s, inst.t, inst.L
    index: dict = {}
    rows: list[list[int]] = []
    chosen: tuple = ()
    while True:
        gone = list(chosen)
        found = 0
        while True:
            path = (short_path(adj, s, t, L, vertices_gone=gone) if vertex
                    else short_path(adj, s, t, L, edges_gone=gone))
            if path is None:
                break
            elems = _path_elements(path, vertex)
            if not elems:
                raise ValueError("s and t are adjacent; no vertex cut exists")
            rows.append([index.setdefault(x, len(index)) for x in elems])
            gone.extend(elems)
            found += 1
        if not found:
            return len(chosen), tuple(sorted(chosen))
        data = np.ones(sum(len(r) for r in rows))
        cols = np.fromiter((c for r in rows for c in r), dtype=np.int64)
        ptr = np.cumsum([0] + [len(r) for r in rows])
        a = csr_array((data, cols, ptr), shape=(len(rows), len(index)))
        res = milp(np.ones(len(index)), integrality=np.ones(len(index)),
                   bounds=(0, 1), constraints=LinearConstraint(a, lb=1))
        if not res.success:
            raise RuntimeError(f"reference ILP failed: {res.message}")
        elements = list(index)
        chosen = tuple(elements[i] for i in np.flatnonzero(res.x > 0.5))


def check_exact(inst, members, optimum: int) -> Optional[str]:
    """None if ``members`` is a feasible cut of the optimum size, else why not."""
    if not is_cut(inst, set(members)):
        return "infeasible: a short s-t path survives the cut"
    if len(members) != optimum:
        return f"size {len(members)} differs from the optimum {optimum}"
    return None


def check_approx(inst, members, lower_bound: int, width_used: int,
                 optimum: int) -> Optional[str]:
    """None if lower_bound <= OPT <= |cut| <= width * max(lower_bound, 1)."""
    if not is_cut(inst, set(members)):
        return "infeasible: a short s-t path survives the cut"
    size = len(members)
    if not lower_bound <= optimum <= size:
        return f"bounds out of order: {lower_bound} <= {optimum} <= {size} fails"
    if size > width_used * max(lower_bound, 1):
        return (f"size {size} exceeds width {width_used} times "
                f"the lower bound {lower_bound}")
    return None
