"""Minimum-cost CSP solving by dynamic programming over a tree decomposition.

Every constraint, hard or soft, is charged at exactly one owner node: the
topmost bag containing its whole scope, by ``treedec.scope_owners``, the
rule ``treedec.validate`` applies to a graph's edges.  It raises
InvalidDecomposition when a bag vertex is not a variable, a variable's bags
do not form a subtree, or no bag holds some scope; the tree itself is
checked when the TreeDecomposition is built.  Bottom-up over the rooted tree,
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
from typing import Optional

import numpy as np

from .csp import (Constraint, CspInstance, CspSolution, Distances,
                  decode_edge, decode_vertex, encode_edge_cut,
                  encode_vertex_cut)
from .errors import LbcutError, ResourceExceeded
from .graph import CutSet, Instance, Variant, verify_cut
from .treedec import TreeDecomposition, build_heuristic, scope_owners, width

TABLE_BUDGET = 1 << 26


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

    ``td`` must be a tree decomposition of the constraint graph whose bags
    hold every constraint scope (InvalidDecomposition otherwise).  Variables
    that appear in no bag are unconstrained and get their domain minimum.
    """
    cons = q.hard + q.soft
    # Before the empty-domain return: an uncovered scope raises regardless.
    _, owners = scope_owners(td, [c.scope for c in cons], range(q.num_vars))
    owned: list[list[tuple[Constraint, bool]]] = [[] for _ in range(td.n_nodes)]
    for i, (c, a) in enumerate(zip(cons, owners)):
        owned[a].append((c, i < len(q.hard)))
    if any(len(d) == 0 for d in q.domains):
        return None

    penalties: dict = {}
    costs: dict[int, np.ndarray] = {}
    backs: list[tuple] = []  # one per joined child, see _message
    for a in reversed(td.order):
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
            backs.append(back)
        costs[a] = cost

    root = costs.pop(td.root)
    best = int(root.argmin())
    best_cost = root.flat[best]
    if not np.isfinite(best_cost):
        return None

    pos: list[Optional[int]] = [None] * q.num_vars
    for v, p in zip(td.bags[td.root], np.unravel_index(best, root.shape)):
        pos[v] = p
    # Joins ran children before parents, so reversed, every separator's
    # variables are set before its back-pointer is read.
    for sep, rest, rest_shape, arg in reversed(backs):
        k = arg[tuple(pos[v] for v in sep)]
        for v, p in zip(rest, np.unravel_index(k, rest_shape)):
            pos[v] = p
    values = tuple(d[0 if p is None else int(p)]
                   for d, p in zip(q.domains, pos))
    return CspSolution(int(best_cost), values)


def solve_exact_cut(inst: Instance,
                    td: Optional[TreeDecomposition] = None, *,
                    table_budget: int = TABLE_BUDGET,
                    distances: Optional[Distances] = None) -> CutSet:
    """Optimal L-bounded cut via the CSP route, with the width it ran on.

    ``distances`` passes the prune's hop distances on to the encoder, as in
    ``csp.encode_edge_cut``; without them the encoder searches itself.
    """
    if inst.variant is Variant.EDGE:
        q = encode_edge_cut(inst, distances=distances)
    else:
        q = encode_vertex_cut(inst, distances=distances)
    if td is None:
        td = build_heuristic(inst.graph)
    sol = solve_min_csp(q, td, table_budget=table_budget)
    if sol is None:
        raise LbcutError("cut encodings are always hard-feasible; "
                         "infeasibility indicates a bug")
    if inst.variant is Variant.EDGE:
        decoded = decode_edge(inst, sol.assignment)
    else:
        decoded = decode_vertex(inst, sol.assignment)
    cut = CutSet(inst.variant, decoded.members,
                 lower_bound=len(decoded.members), algorithm="exact-dp",
                 width_used=width(td))
    if not verify_cut(inst, cut).feasible:
        raise LbcutError("decoded cut failed verification; solver bug")
    if len(cut.members) != sol.cost:
        raise LbcutError("decoded cut size disagrees with the CSP cost")
    return cut
