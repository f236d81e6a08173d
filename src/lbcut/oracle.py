"""Brute-force ground truth used to certify the real solvers.

These are deliberately simple: cuts by subset enumeration in increasing
cardinality, CSPs by exhaustive assignment enumeration, plus short-path
listing.  None of it scales; none of it is supposed to.

numpy is imported inside ``brute_force_csp``, the one function that uses it.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Union

from .csp import CspInstance, CspSolution
from .errors import ResourceExceeded
from .graph import CutSet, Graph, Instance, Variant, bfs_distances, verify_cut

DEFAULT_MAX_SIZE = 6
DEFAULT_CSP_BUDGET = 10 ** 7


class Unknown:
    """Marker: enumeration budget exhausted before any feasible cut was found."""

    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = Unknown()


def brute_force_cut(inst: Instance,
                    max_size: int = DEFAULT_MAX_SIZE) -> Union[CutSet, Unknown]:
    """First feasible cut in (cardinality, lexicographic) enumeration order.

    Returns UNKNOWN when no candidate set of size <= max_size is feasible;
    that is an explicit "don't know", not infeasibility.  A vertex
    instance with adjacent terminals, which no subset could cut, cannot be
    built: ``Instance`` raises NoVertexCut.
    """
    g = inst.graph
    if inst.variant is Variant.EDGE:
        candidates: list = sorted(g.edges)
    else:
        candidates = [v for v in g.sorted_vertices() if v not in (inst.s, inst.t)]
    for k in range(0, min(max_size, len(candidates)) + 1):
        for combo in combinations(candidates, k):
            cut = CutSet(inst.variant, combo)
            if verify_cut(inst, cut).feasible:
                return CutSet(inst.variant, combo, lower_bound=k,
                              algorithm="brute-force")
    return UNKNOWN


def brute_force_csp(q: CspInstance,
                    budget: int = DEFAULT_CSP_BUDGET) -> Optional[CspSolution]:
    """Exhaustive minimum over all assignments, each costing the summed
    weights of the soft constraints it violates; None if hard-infeasible.

    Ties go to the lexicographically first assignment under the per-variable
    domain orders.  Raises ResourceExceeded when the assignment space is
    larger than ``budget``.

    All assignments form one array with an axis per variable, indexed by
    position in that variable's domain.  Each constraint becomes a boolean
    lookup over its scope's axes, broadcast over the others.
    """
    import numpy as np

    shape = tuple(len(d) for d in q.domains)
    total = math.prod(shape)
    if total > budget:
        raise ResourceExceeded(
            f"{total} assignments exceed the budget of {budget}")
    if total == 0:
        return None
    if q.num_vars == 0:
        return CspSolution(0, ())

    def allowed(c) -> np.ndarray:
        positions = [{x: i for i, x in enumerate(q.domains[v])}
                     for v in c.scope]
        lut = np.zeros([shape[v] for v in c.scope], dtype=bool)
        for values in c.allowed:
            lut[tuple(pos[x] for pos, x in zip(positions, values))] = True
        scope = set(c.scope)
        return lut.reshape([shape[v] if v in scope else 1
                            for v in range(q.num_vars)])

    hard_ok = np.ones(shape, dtype=bool)
    for c in q.hard:
        hard_ok &= allowed(c)
    violations = np.zeros(shape, dtype=np.int64)
    for c in q.soft:
        violations += c.weight * ~allowed(c)
    if not hard_ok.any():
        return None
    costs = np.where(hard_ok, violations, np.iinfo(np.int64).max)
    best = np.unravel_index(int(np.argmin(costs)), shape)
    assignment = tuple(q.domains[v][i] for v, i in enumerate(best))
    return CspSolution(int(violations[best]), assignment)


def enumerate_short_paths(g: Graph, s: int, t: int, L: int) -> list[tuple[int, ...]]:
    """All simple s-t paths with at most L edges, in DFS order.

    Branches are pruned with the exact hop distance to t, so the search
    only walks prefixes that can still finish within the budget.  The DFS
    keeps an explicit stack of neighbour iterators, one per path vertex, so
    path length is not limited by the recursion limit.
    """
    dist_t = bfs_distances(g, t)
    paths: list[tuple[int, ...]] = []
    path: list[int] = []
    used: set[int] = set()
    # The bottom iterator offers s itself, so s meets the same budget check
    # as every later vertex and is the one path vertex without an iterator.
    stack = [iter((s,))]
    while stack:
        for w in stack[-1]:
            d = dist_t[w]
            if w in used or d is None or len(path) + d > L:
                continue
            if w == t:
                paths.append((*path, w))
                continue
            path.append(w)
            used.add(w)
            stack.append(iter(g.neighbors(w)))
            break
        else:
            stack.pop()
            if path:
                used.discard(path.pop())
    return paths
