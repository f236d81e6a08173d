"""Minimum-cost CSP solving by dynamic programming over a tree decomposition.

Every constraint, hard or soft, is charged at exactly one owner node: the
topmost bag containing its whole scope, by ``treedec.scope_owners``, the
rule ``treedec.validate`` applies to a graph's edges.  It raises
InvalidDecomposition when a bag vertex is not a variable, a variable's bags
do not form a subtree, or no bag holds some scope; the tree itself is
checked when the TreeDecomposition is built.  Bottom-up over the rooted tree,
each node's table is one numpy array with an axis per bag variable, in bag
order, sized by that variable's domain.  Each owned constraint adds its
penalty array over its scope, broadcast across the bag: 0 where allowed,
and where violated the cost of a violation: a soft constraint's weight (a
positive integer, 1 unless set), inf for a hard one.  A solve looks one
array up per relation of ``CspInstance.relations`` and cost, and the loop
that fills it runs once per process: ``_penalty`` is a
``functools.lru_cache`` of at most 512 read-only arrays, keyed by (allowed
tuples, scope domains, cost).  For the cut encodings an array holds at most
(L+3)**2 floats.  A child is folded in by eliminating the variables its
parent lacks, one axis at a time, last axis first (bucket elimination):
``argmin`` and ``min`` over that axis.  Each elimination keeps its own
back-pointer (the variable, the variables still on the axes, the argmin
array), and a child whose bag lies inside its parent's is added unreduced.
The root is reduced the same way down to the optimum.  Eliminating the
last axis first picks, in C order, the first minimum of the flattened
child-only axes.  A top-down pass over the back-pointers sets one variable
per back-pointer and rebuilds one optimal assignment.

``table_budget`` caps the entry count of any one bag's table: a bag over it
aborts with ResourceExceeded before its table is allocated.

``solve_exact_cut`` decides which vertices the DP solves, and under which
ids.  ``fpt.solve_fpt`` hands it the prune's region (its kept vertices and
their distances); a direct call solves every vertex.  An L of at least
|region| - 1 asks for an s-t separator, answered by a max-flow.  Otherwise
the region is shrunk in the instance graph's own ids.  In the vertex
variant it first deletes simplicial vertices (other than s and t, with
pairwise adjacent neighbours), which no minimum vertex cut needs: a short
path through one has a shortcut past it.  Then it contracts twins:
vertices other than s and t with the same neighbours form a class, and
only the least id of each is decomposed, encoded and solved.  The weights
carry the class sizes: a representative's "kept" constraint (vertex
variant) weighs its class size, an edge's constraint (edge variant) the
product of its ends' sizes.  A vertex that lost a twin neighbour may now
be simplicial, so the vertex variant deletes again from there.  The
representatives are relabelled 0..r-1 in one graph, the only one the solve
builds, and the cut is mapped back, expanded to whole classes and verified
once, on the instance given.  So the cut's ``width_used`` is the width of
the representatives' decomposition.

numpy is imported inside ``_penalty`` and ``solve_min_csp``, the two
functions that build arrays, so importing this module does not load it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, AbstractSet, Iterable, Optional, Sequence

from .csp import (CspInstance, CspSolution, decode_edge, decode_vertex,
                  encode_edge_cut, encode_vertex_cut)
from .errors import LbcutError, ResourceExceeded
from .graph import (CutSet, Graph, Instance, Variant, min_edge_cut,
                    min_vertex_cut, verify_cut)
from .treedec import (TreeDecomposition, build_heuristic, scope_owners,
                      top_nodes, validate, width)

if TYPE_CHECKING:
    import numpy as np

    from .fpt import PruneResult

TABLE_BUDGET = 1 << 26


@lru_cache(maxsize=512)
def _penalty(allowed, doms, cost: float) -> np.ndarray:
    """Cost over the positions of a relation's scope domains ``doms``: 0
    where allowed, else ``cost``, the weight of a soft constraint or inf
    for a hard one.  Read-only, as it is shared by every solve that meets
    the relation."""
    import numpy as np

    pos_of = [{x: k for k, x in enumerate(d)} for d in doms]
    pen = np.full([len(d) for d in doms], float(cost))
    for t in allowed:
        pen[tuple(p[x] for p, x in zip(pos_of, t))] = 0.0
    pen.flags.writeable = False
    return pen


def _eliminate(table: np.ndarray, bag: tuple[int, ...], keep: AbstractSet[int],
               backs: list) -> tuple[np.ndarray, list[int]]:
    """Minimize a table, one axis per variable of ``bag`` outside ``keep``,
    last axis first.

    Each elimination appends its back-pointer to ``backs``: the variable,
    the variables still on the axes, and the argmin over them.  Returns the
    reduced table and its variables, a sub-sequence of ``bag``.
    """
    left = list(bag)
    for i in reversed(range(len(bag))):
        if bag[i] not in keep:
            del left[i]
            backs.append((bag[i], tuple(left), table.argmin(axis=i)))
            table = table.min(axis=i)
    return table, left


def solve_min_csp(q: CspInstance, td: TreeDecomposition, *,
                  table_budget: int = TABLE_BUDGET) -> Optional[CspSolution]:
    """Minimize the summed weights of violated soft constraints; None iff
    hard-infeasible.

    ``td`` must be a tree decomposition of the constraint graph whose bags
    hold every constraint scope (InvalidDecomposition otherwise).  Variables
    that appear in no bag are unconstrained and get their domain minimum.
    """
    import numpy as np

    cons = q.hard + q.soft
    # Before the empty-domain return: an uncovered scope raises regardless.
    owners = scope_owners(td, top_nodes(td, range(q.num_vars)),
                          [c.scope for c in cons])
    owned: list[list[tuple]] = [[] for _ in range(td.n_nodes)]
    for i, (c, a, r) in enumerate(zip(cons, owners, q.relation_index)):
        owned[a].append((c.scope, (r, math.inf if i < len(q.hard)
                                   else c.weight)))
    if any(len(d) == 0 for d in q.domains):
        return None

    penalties: dict[tuple[int, float], np.ndarray] = {}
    costs: dict[int, np.ndarray] = {}
    backs: list[tuple] = []  # (variable, variables left, argmin), see _eliminate
    for a in reversed(td.order):
        bag = td.bags[a]
        shape = tuple(len(q.domains[v]) for v in bag)
        size = math.prod(shape)
        if size > table_budget:
            raise ResourceExceeded(
                f"table at node {a} needs {size} entries "
                f"(budget {table_budget})")
        terms = []  # (array, its variables, a sub-sequence of the bag)
        for scope, key in owned[a]:
            pen = penalties.get(key)
            if pen is None:
                r, cost = key
                pen = penalties[key] = _penalty(*q.relations[r], cost)
            terms.append((pen, scope))
        for ch in td.children[a]:
            terms.append(_eliminate(costs.pop(ch), td.bags[ch],
                                    td.bag_sets[a], backs))
        cost = np.zeros(shape)
        for arr, sub in terms:
            cost += arr.reshape([n if v in sub else 1
                                 for v, n in zip(bag, shape)])
        costs[a] = cost

    best_cost, _ = _eliminate(costs.pop(td.root), td.bags[td.root],
                              frozenset(), backs)
    if not np.isfinite(best_cost):
        return None

    pos: list[Optional[int]] = [None] * q.num_vars
    # Joins ran children before parents and each eliminated its last axis
    # first, so reversed, every back-pointer's variables are set before it
    # is read.
    for v, left, arg in reversed(backs):
        pos[v] = arg[tuple(pos[u] for u in left)]
    values = tuple(d[0 if p is None else int(p)]
                   for d, p in zip(q.domains, pos))
    return CspSolution(int(best_cost), values)


def _delete_simplicial(inst: Instance, alive: set[int],
                       check: Iterable[int]) -> None:
    """Remove simplicial vertices from ``alive``, one at a time: vertices
    other than s and t whose neighbours in ``alive`` are pairwise adjacent.

    ``check`` holds the vertices whose neighbourhoods may have shrunk since
    they were last found not simplicial (every vertex, at first).  Deleting
    a vertex keeps every other simplicial vertex simplicial, so what is
    deleted does not depend on the order, and after each deletion only the
    deleted vertex's neighbours are checked again.  A check looks the
    neighbours' pairs up in the edge set and stops at the first missing
    one.
    """
    g, s, t = inst.graph, inst.s, inst.t
    is_edge = g.edges.__contains__
    stack = [v for v in check if v != s and v != t and v in alive]
    while stack:
        v = stack.pop()
        if v not in alive:
            continue
        nbrs = [w for w in g.neighbors(v) if w in alive]
        if all(map(is_edge, combinations(nbrs, 2))):
            alive.remove(v)
            stack.extend(w for w in nbrs if w != s and w != t)


def _twin_classes(inst: Instance, region: Sequence[int],
                  alive: AbstractSet[int]) -> dict[int, list[int]]:
    """Each class of two or more twins, ascending and keyed by its least
    id: vertices of ``region`` (ascending) other than s and t, and in
    ``alive``, whose neighbours in ``alive`` are the same.  Empty when no
    two vertices are twins."""
    g = inst.graph
    first: dict[tuple[int, ...], int] = {}  # neighbours -> least such vertex
    classes: dict[int, list[int]] = {}
    for v in region:
        if v != inst.s and v != inst.t and v in alive:
            nbrs = tuple([w for w in g.neighbors(v) if w in alive])
            rep = first.setdefault(nbrs, v)
            if rep != v:
                classes.setdefault(rep, [rep]).append(v)
    return classes


def _kernel(inst: Instance, region: Sequence[int]
            ) -> tuple[list[int], dict[int, list[int]]]:
    """The representatives of ``region`` (ascending), and the twin classes,
    after steps 1-3 of ``solve_exact_cut``."""
    vertex = inst.variant is Variant.VERTEX
    alive = set(region)
    if vertex:
        _delete_simplicial(inst, alive, region)
    classes = _twin_classes(inst, region, alive)
    if classes:
        twins = [v for c in classes.values() for v in c[1:]]
        alive.difference_update(twins)
        if vertex:
            nbrs = inst.graph.neighbors
            _delete_simplicial(inst, alive,
                               {w for v in twins for w in nbrs(v)})
    return sorted(alive), classes


def solve_exact_cut(inst: Instance,
                    td: Optional[TreeDecomposition] = None, *,
                    table_budget: int = TABLE_BUDGET,
                    prune: Optional[PruneResult] = None) -> CutSet:
    """Optimal L-bounded cut via the CSP route, with the width it ran on.

    ``prune`` (``fpt.prune_to_relevant``'s result for ``inst``) confines
    the solve to its kept vertices, the region, and hands the prune's
    distances to the encoder.  Without it the region is every vertex and
    the encoder searches itself.  A supplied ``td`` must decompose
    ``inst.graph`` (``treedec.validate``, InvalidDecomposition otherwise);
    it is checked first, even when nothing is kept.  When nothing is kept,
    no short path exists and the cut is empty.

    A simple s-t path in the region has at most |region|-1 edges, so every
    L >= |region|-1 bounds the same cuts: the s-t separators.  Such an L
    gets a max-flow minimum cut of the region (Menger's theorem), and no
    decomposition or DP runs.  Below that, the region is shrunk, in the
    instance graph's own ids; the hop distances of what is left are the
    instance's own.

    1. Vertex variant only: simplicial vertices are deleted.  Every vertex
       other than s and t whose remaining neighbours are pairwise adjacent
       goes, one at a time.  This is exact: a short path x-v-y through a
       simplicial v has the shortcut x-y, so G and G-v have the same cuts
       that avoid v, and a minimum cut of G-v is one of G.  Shortest paths
       avoid v too.  (An edge cut may need v's edges, so the edge variant
       keeps it.)
    2. Twins are contracted: of each class of the remaining vertices other
       than s and t with the same remaining neighbours, only the least id
       (its representative) is decomposed, encoded and solved.  A
       representative's "kept" constraint (vertex variant) weighs its class
       size, and an edge's constraint (edge variant) the product of its
       ends' class sizes, the edges between two classes.  This is exact:

       - vertex variant: a minimum cut never splits a class.  A short path
         through a cut twin u and past an uncut twin v has a shortcut at
         v; one that misses v still runs with v in u's place.
       - edge variant: twins have the same labels to choose from and the
         same cost as a function of their own label, so some optimal
         labelling is constant on each class.
    3. Vertex variant only: a vertex whose neighbours lost a twin in step 2
       may have become simplicial, so step 1 runs again from the dropped
       twins' neighbours.  The shortcut argument holds for the weighted
       instance too, so no vertex the DP sees is simplicial.

    The representatives, ascending, become the vertices 0..r-1 of one
    graph, the only one the solve builds; a supplied ``td``'s bags, the
    distances and the class sizes are mapped through the same index.  Every
    finite distance is at most r-1, so an L above r-1 is lowered to it,
    which keeps the label domains, and so the tables, from growing with L.
    The representatives' cut is mapped back and expanded to whole classes
    (each representative in it, or each cut edge's pairs of class members),
    checked against the weighted cost, and verified once, on ``inst``.
    ``width_used`` is the width of the representatives' decomposition.
    """
    g, s, t = inst.graph, inst.s, inst.t
    edge = inst.variant is Variant.EDGE
    if td is not None:
        validate(td, g)
    if prune is None:
        region: Sequence[int] = g.sorted_vertices()
    elif not prune.kept:
        return CutSet(inst.variant, (), lower_bound=0, algorithm="fpt")
    else:
        region = prune.kept
    if inst.L >= len(region) - 1:
        flow = min_edge_cut if edge else min_vertex_cut
        members = flow(g if prune is None else g.induced(region), s, t).members
        width_used = None
    else:
        reps, classes = _kernel(inst, region)
        index = [-1] * g.n  # position in reps by vertex id, -1 if absent
        for i, v in enumerate(reps):
            index[v] = i
        r = len(reps)
        sub = Instance(
            Graph(r, frozenset(range(r)), frozenset(
                (i, j) for i, v in enumerate(reps)
                for w in g.neighbors(v) if (j := index[w]) > i)),
            index[s], index[t], min(inst.L, r - 1), inst.variant)
        distances = None if prune is None else (
            [prune.d_s[v] for v in reps], [prune.d_t[v] for v in reps])
        whole = [classes.get(v, (v,)) for v in reps]  # class by new id
        sizes = [len(c) for c in whole] if classes else None
        encode = encode_edge_cut if edge else encode_vertex_cut
        q = encode(sub, distances=distances, sizes=sizes)
        if td is None:
            td = build_heuristic(sub.graph)
        else:
            td = TreeDecomposition(
                tuple(tuple(index[v] for v in bag if index[v] >= 0)
                      for bag in td.bags), td.tree_edges, td.root)
        sol = solve_min_csp(q, td, table_budget=table_budget)
        if sol is None:
            raise LbcutError("cut encodings are always hard-feasible; "
                             "infeasibility indicates a bug")
        if edge:
            cut = decode_edge(sub, sol.assignment)
            members = [(a, b) for u, v in cut.members
                       for a in whole[u] for b in whole[v]]
        else:
            cut = decode_vertex(sub, sol.assignment)
            members = [a for v in cut.members for a in whole[v]]
        if len(members) != sol.cost:
            raise LbcutError("decoded cut size disagrees with the CSP cost")
        width_used = width(td)
    cut = CutSet(inst.variant, members, lower_bound=len(members),
                 algorithm="fpt", width_used=width_used)
    if not verify_cut(inst, cut).feasible:
        raise LbcutError("cut failed verification on the instance given; "
                         "solver bug")
    return cut
