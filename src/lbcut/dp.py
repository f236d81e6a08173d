"""Minimum-cost CSP solving by dynamic programming over a tree decomposition.

Every constraint, hard or soft, is charged at exactly one owner node: the
topmost bag containing its whole scope.  Bottom-up over the rooted tree,
each node's table is one numpy array with an axis per bag variable, in bag
order, sized by that variable's domain.  Each owned constraint adds its
penalty array over its scope, broadcast across the bag: 0 where allowed, 1
where a soft constraint is violated, inf where a hard one is.  A child is
folded in by minimizing its table over the variables its parent lacks; the
argmin, shaped like the separator, is kept as the back-pointer and the
child's table is dropped.  A top-down pass over the back-pointers rebuilds
one optimal assignment.

``table_budget`` caps the entry count of any one bag's table: a bag over it
aborts with ResourceExceeded before its table is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csp import (Assignment, Constraint, CspInstance, CspSolution,
                  decode_edge, decode_vertex, encode_edge_cut,
                  encode_vertex_cut)
from .errors import (DecompositionMismatch, LbcutError, NoVertexCut,
                     ResourceExceeded)
from .graph import CutSet, Instance, Variant, verify_cut
from .treedec import Strategy, TreeDecomposition, build_heuristic

TABLE_BUDGET = 1 << 26


def _check_decomposition(q: CspInstance, td: TreeDecomposition) -> None:
    """Raise DecompositionMismatch unless td can drive the DP for q."""
    if td.n_nodes == 0:
        raise DecompositionMismatch("decomposition has no nodes")
    if len(td.tree_edges) != td.n_nodes - 1 or any(d is None for d in td.depth):
        raise DecompositionMismatch("decomposition is not a tree")
    occurrences: dict[int, set[int]] = {}
    for a, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < q.num_vars:
                raise DecompositionMismatch(
                    f"bag {a} references unknown variable {v}")
            occurrences.setdefault(v, set()).add(a)
    for v, occ in occurrences.items():
        seen = set()
        stack = [next(iter(occ))]
        while stack:
            a = stack.pop()
            if a in seen:
                continue
            seen.add(a)
            for b in list(td.children[a]) + ([td.parent[a]] if td.parent[a] is not None else []):
                if b in occ and b not in seen:
                    stack.append(b)
        if seen != occ:
            raise DecompositionMismatch(
                f"bags containing variable {v} do not form a subtree")
    bag_sets = td.bag_sets()
    for c in q.hard + q.soft:
        scope = set(c.scope)
        if not any(scope <= bs for bs in bag_sets):
            raise DecompositionMismatch(
                f"no bag covers constraint scope {c.scope}")


def _owners(td: TreeDecomposition, constraints) -> list[int]:
    """Owner node of each constraint: the topmost bag covering its scope."""
    bag_sets = td.bag_sets()
    owners = []
    for c in constraints:
        scope = set(c.scope)
        covering = [a for a, bs in enumerate(bag_sets) if scope <= bs]
        if not covering:
            raise DecompositionMismatch(
                f"no bag covers constraint scope {c.scope}")
        owners.append(min(covering, key=lambda a: (td.depth[a], a)))
    return owners


def soft_owners(q: CspInstance, td: TreeDecomposition) -> list[int]:
    """Owner node of each soft constraint: the topmost bag covering its scope."""
    return _owners(td, q.soft)


def _penalty(q: CspInstance, c: Constraint, hard: bool,
             cache: dict) -> np.ndarray:
    """Cost over the scope's domain positions: 0 where allowed, else 1 (soft)
    or inf (hard).  Built once per (relation, scope domains, kind) in ``cache``.
    """
    doms = tuple(q.domains[v] for v in c.scope)
    key = (c.allowed, doms, hard)
    pen = cache.get(key)
    if pen is None:
        pos_of = [{x: k for k, x in enumerate(d)} for d in doms]
        pen = np.full([len(d) for d in doms], np.inf if hard else 1.0)
        for t in c.allowed:
            pen[tuple(p[x] for p, x in zip(pos_of, t))] = 0.0
        cache[key] = pen
    return pen


def _spread(bag: tuple[int, ...], shape: tuple[int, ...], sub) -> list[int]:
    """Shape that broadcasts an array over ``sub`` across the bag's table.

    ``sub`` must be a sub-sequence of the bag; bags and scopes are sorted,
    so an array over ``sub`` already has its axes in bag order.
    """
    keep = set(sub)
    return [n if v in keep else 1 for v, n in zip(bag, shape)]


def _message(child: np.ndarray, cbag: tuple[int, ...],
             parent_vars: set[int]) -> tuple[np.ndarray, tuple]:
    """Minimize a child's table over the variables its parent lacks.

    Returns the message, shaped like the separator, and the back-pointer:
    (separator vars, child-only vars, their domain sizes, argmin over the
    child-only positions, shaped like the separator).
    """
    shared = [i for i, v in enumerate(cbag) if v in parent_vars]
    rest = [i for i, v in enumerate(cbag) if v not in parent_vars]
    flat = child.transpose(shared + rest).reshape(
        [child.shape[i] for i in shared] + [-1])
    back = (tuple(cbag[i] for i in shared), tuple(cbag[i] for i in rest),
            tuple(child.shape[i] for i in rest), flat.argmin(axis=-1))
    return flat.min(axis=-1), back


def solve_min_csp(q: CspInstance, td: TreeDecomposition, *,
                  table_budget: int = TABLE_BUDGET) -> Optional[CspSolution]:
    """Minimize violated soft constraints; None iff hard-infeasible.

    ``td`` must be a tree decomposition of the constraint graph covering
    every constraint scope (DecompositionMismatch otherwise).  Variables
    that appear in no bag are unconstrained and get their domain minimum.
    """
    _check_decomposition(q, td)
    if any(len(d) == 0 for d in q.domains):
        return None
    owned: list[list[tuple[Constraint, bool]]] = [[] for _ in range(td.n_nodes)]
    for hard, cons in ((True, q.hard), (False, q.soft)):
        for c, a in zip(cons, _owners(td, cons)):
            owned[a].append((c, hard))

    order = []
    stack = [td.root]
    while stack:
        a = stack.pop()
        order.append(a)
        stack.extend(td.children[a])

    penalties: dict = {}
    costs: dict[int, np.ndarray] = {}
    # Per node, (child, *back-pointer) for each joined child; see _message.
    links: list[list[tuple]] = [[] for _ in range(td.n_nodes)]
    for a in reversed(order):
        bag = td.bags[a]
        shape = tuple(len(q.domains[v]) for v in bag)
        size = math.prod(shape)
        if size > table_budget:
            raise ResourceExceeded(
                f"table at node {a} needs {size} entries "
                f"(budget {table_budget})")
        cost = np.zeros(shape)
        for c, hard in owned[a]:
            cost += _penalty(q, c, hard, penalties).reshape(
                _spread(bag, shape, c.scope))
        for ch in td.children[a]:
            msg, back = _message(costs.pop(ch), td.bags[ch], set(bag))
            cost += msg.reshape(_spread(bag, shape, back[0]))
            links[a].append((ch, *back))
        costs[a] = cost

    root = costs.pop(td.root)
    best = int(root.argmin())
    best_cost = root.flat[best]
    if not np.isfinite(best_cost):
        return None

    pos: list[Optional[int]] = [None] * q.num_vars
    for v, p in zip(td.bags[td.root], np.unravel_index(best, root.shape)):
        pos[v] = p
    walk = [td.root]
    while walk:
        a = walk.pop()
        for ch, sep, rest, rest_shape, arg in links[a]:
            k = arg[tuple(pos[v] for v in sep)]
            for v, p in zip(rest, np.unravel_index(k, rest_shape)):
                pos[v] = p
            walk.append(ch)
    values = tuple(d[0 if p is None else int(p)]
                   for d, p in zip(q.domains, pos))
    return CspSolution(int(best_cost), values)


@dataclass(frozen=True)
class ExactRun:
    cut: CutSet
    width_used: int
    csp_cost: int


def solve_exact_cut_detailed(inst: Instance,
                             td: Optional[TreeDecomposition] = None, *,
                             strategy: Strategy = Strategy.MIN_FILL,
                             table_budget: int = TABLE_BUDGET) -> ExactRun:
    """Encode, solve, decode, and verify; reports the decomposition width used."""
    from .treedec import width as td_width

    if inst.variant is Variant.EDGE:
        q = encode_edge_cut(inst)
    else:
        if inst.graph.has_edge(inst.s, inst.t):
            raise NoVertexCut(
                f"vertices {inst.s} and {inst.t} are adjacent")
        q = encode_vertex_cut(inst)
    if td is None:
        td = build_heuristic(inst.graph, strategy)
    sol = solve_min_csp(q, td, table_budget=table_budget)
    if sol is None:
        raise LbcutError("cut encodings are always hard-feasible; "
                         "infeasibility indicates a bug")
    if inst.variant is Variant.EDGE:
        decoded = decode_edge(inst, sol.assignment)
    else:
        decoded = decode_vertex(inst, sol.assignment)
    cut = CutSet(inst.variant, decoded.members,
                 lower_bound=len(decoded.members), algorithm="exact-dp")
    if not verify_cut(inst, cut).feasible:
        raise LbcutError("decoded cut failed verification; solver bug")
    if len(cut.members) != sol.cost:
        raise LbcutError("decoded cut size disagrees with the CSP cost")
    return ExactRun(cut, td_width(td), sol.cost)


def solve_exact_cut(inst: Instance,
                    td: Optional[TreeDecomposition] = None, *,
                    strategy: Strategy = Strategy.MIN_FILL,
                    table_budget: int = TABLE_BUDGET) -> CutSet:
    """Optimal L-bounded cut of the instance via the CSP route."""
    return solve_exact_cut_detailed(
        inst, td, strategy=strategy, table_budget=table_budget).cut
