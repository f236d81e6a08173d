import math
import random
import time
from collections import Counter

import pytest

from lbcut import (Constraint, CspInstance, Graph, Instance,
                   InvalidDecomposition, ResourceExceeded, TreeDecomposition,
                   Variant, brute_force_csp, brute_force_cut, build_heuristic,
                   encode_edge_cut, encode_vertex_cut, generate,
                   parse_instance, solve_exact_cut, solve_fpt, solve_min_csp)
from lbcut import dp
from lbcut.treedec import scope_owners, top_nodes

from conftest import (constraint_graph, random_csp, satisfied_by,
                      satisfies_all_hard, violated_soft_count,
                      violated_soft_weight)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def decomposition_for(q: CspInstance) -> TreeDecomposition:
    return build_heuristic(constraint_graph(q))


def test_dp_path_encoding_cost():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    q = encode_edge_cut(inst)
    td = build_heuristic(PATH4)
    sol = solve_min_csp(q, td)
    assert sol.cost == brute_force_csp(q).cost == 1


def test_dp_hard_infeasible():
    q = CspInstance(1, ((0,),), (Constraint((0,), frozenset()),), ())
    td = TreeDecomposition(((0,),), frozenset())
    assert solve_min_csp(q, td) is None


def test_dp_no_soft_constraints():
    q = CspInstance(2, ((0, 1), (0, 1)),
                    (Constraint((0, 1), frozenset({(0, 1)})),), ())
    td = TreeDecomposition(((0, 1),), frozenset())
    sol = solve_min_csp(q, td)
    assert sol.cost == 0 and sol.assignment == (0, 1)


def test_dp_scope_not_covered():
    td = TreeDecomposition(((0,), (1,)), frozenset({(0, 1)}))
    # The second input has an empty domain: an uncovered scope must still
    # raise rather than report the CSP infeasible.
    for domains, allowed in ((((0,), (0,)), frozenset({(0, 0)})),
                             (((0,), ()), frozenset())):
        q = CspInstance(2, domains, (Constraint((0, 1), allowed),), ())
        with pytest.raises(InvalidDecomposition, match="covered by no bag"):
            solve_min_csp(q, td)


def test_one_relation_as_hard_and_soft_solves_as_brute_force():
    # The equality relation binds x0 = x1 as a hard constraint and costs 1
    # on (x1, x2) as a soft one, which x1 != x2 always violates.  Its two
    # penalty arrays differ: read as hard on both scopes the CSP has no
    # solution, read as soft on both its optimum is 2, not 3.
    equal = frozenset({(0, 0), (1, 1)})
    zero, one = frozenset({(0,)}), frozenset({(1,)})
    q = CspInstance(3, ((0, 1),) * 3,
                    (Constraint((0, 1), equal),
                     Constraint((1, 2), frozenset({(0, 1), (1, 0)}))),
                    (Constraint((1, 2), equal),
                     Constraint((0,), zero), Constraint((0,), zero),
                     Constraint((1,), one), Constraint((1,), one)))
    assert len(q.relations) == 4
    td = TreeDecomposition(((0, 1, 2),), frozenset())
    assert solve_min_csp(q, td).cost == brute_force_csp(q).cost == 3


def test_cached_penalty_arrays_refuse_writes():
    # Keyed by the cost of a violation: a soft constraint's weight, or inf.
    q = encode_edge_cut(Instance(PATH4, 0, 3, 3, Variant.EDGE))
    allowed, doms = q.relations[0]
    for cost in (1, 3, math.inf):
        pen = dp._penalty(allowed, doms, cost)
        assert pen is dp._penalty(allowed, doms, cost)
        assert sorted(set(pen.flat)) == [0.0, cost]
        with pytest.raises(ValueError, match="read-only"):
            pen[0, 0] = 7.0


def test_dp_rejects_non_tree():
    q = CspInstance(2, ((0,), (0,)), (), ())
    # a forest is no TreeDecomposition at all
    with pytest.raises(InvalidDecomposition, match="tree"):
        TreeDecomposition(((0,), (1,)), frozenset())
    path = frozenset({(0, 1), (1, 2)})
    for td, want in (
            # variable 0's bags are not connected
            (TreeDecomposition(((0,), (1,), (0,)), path), "subtree"),
            # variable 5 is out of range
            (TreeDecomposition(((0,), (1,), (5,)), path), "vertex 5")):
        with pytest.raises(InvalidDecomposition, match=want):
            solve_min_csp(q, td)


def test_dp_resource_budget():
    # The budget caps the largest bag table: one entry short raises, the
    # table's own size solves.
    inst = Instance(C5, 0, 2, 3, Variant.EDGE)
    q = encode_edge_cut(inst)
    td = build_heuristic(C5)
    largest = max(math.prod(len(q.domains[v]) for v in bag)
                  for bag in td.bags)
    assert largest > 1
    with pytest.raises(ResourceExceeded):
        solve_min_csp(q, td, table_budget=largest - 1)
    assert solve_min_csp(q, td, table_budget=largest).cost == 2


def test_dp_isolated_variable_gets_domain_minimum():
    q = CspInstance(3, ((0, 1), (5, 7), (2,)),
                    (Constraint((0,), frozenset({(1,)})),), ())
    td = TreeDecomposition(((0,), (2,)), frozenset({(0, 1)}))  # var 1 in no bag
    sol = solve_min_csp(q, td)
    assert sol.assignment == (1, 5, 2)


def test_scope_owner_partition():
    rng = random.Random(101)
    for _ in range(40):
        q = random_csp(rng, max_vars=8, max_dom=3)
        td = decomposition_for(q)
        # top nodes, and so owners, depend on the root
        td = TreeDecomposition(td.bags, td.tree_edges,
                               root=rng.randrange(td.n_nodes))
        cons = q.hard + q.soft
        owners = scope_owners(td, top_nodes(td, range(q.num_vars)),
                              [c.scope for c in cons])
        assert len(owners) == len(cons)
        bag_sets = td.bag_sets
        for c, a in zip(cons, owners):
            assert set(c.scope) <= bag_sets[a]
            # topmost: no strict ancestor's bag covers the scope too
            p = td.parent[a]
            while p is not None:
                assert not set(c.scope) <= bag_sets[p]
                p = td.parent[p]
        # owner-charged violations sum to the global count for any assignment
        soft_owners = owners[len(q.hard):]
        for _ in range(5):
            z = tuple(rng.choice(d) for d in q.domains)
            per_owner = [0] * td.n_nodes
            for c, a in zip(q.soft, soft_owners):
                if not satisfied_by(c, z):
                    per_owner[a] += 1
            assert sum(per_owner) == violated_soft_count(q, z)


def test_dp_matches_enumeration_on_random_csps():
    # Unit-weight soft constraints, then weights from 1 to 4.
    rng = random.Random(55)
    weighted = 0
    for max_weight in (1, 4):
        for _ in range(80):
            q = random_csp(rng, max_weight=max_weight)
            td = decomposition_for(q)
            got = solve_min_csp(q, td)
            want = brute_force_csp(q)
            if want is None:
                assert got is None
                continue
            assert got.cost == want.cost
            assert satisfies_all_hard(q, got.assignment)
            assert violated_soft_weight(q, got.assignment) == got.cost
            for v, x in enumerate(got.assignment):
                assert x in q.domains[v]
            weighted += got.cost > violated_soft_count(q, got.assignment)
    assert weighted > 10


def test_dp_rerooted_joins_eliminate_several_variables():
    # Under every root, a child's bag can hold 0 to 3 variables its
    # parent's lacks; a join eliminates them one axis at a time.
    rng = random.Random(303)
    eliminated = Counter()
    for _ in range(40):
        q = random_csp(rng, max_vars=8, max_dom=3)
        want = brute_force_csp(q)
        base = decomposition_for(q)
        for root in range(base.n_nodes):
            td = TreeDecomposition(base.bags, base.tree_edges, root=root)
            for a, p in enumerate(td.parent):
                if p is not None:
                    eliminated[len(td.bag_sets[a] - td.bag_sets[p])] += 1
            got = solve_min_csp(q, td)
            if want is None:
                assert got is None
                continue
            assert got.cost == want.cost
            assert satisfies_all_hard(q, got.assignment)
            assert violated_soft_count(q, got.assignment) == got.cost
    assert {0, 1, 2, 3} <= eliminated.keys()


def test_dp_empty_bag_disjoint_children_and_infeasible_child():
    # The root bag is empty (a 0-d table) and neither child shares a
    # variable with it, so each message is a single number.
    td = TreeDecomposition(((), (0, 1), (2,)), frozenset({(0, 1), (0, 2)}))
    soft = (Constraint((0, 1), frozenset({(0, 1), (1, 0)})),
            Constraint((0,), frozenset({(1,)})),
            Constraint((1,), frozenset({(1,)})),
            Constraint((2,), frozenset({(0,)})))
    q = CspInstance(3, ((0, 1), (0, 1), (0, 1, 2)),
                    (Constraint((2,), frozenset({(1,), (2,)})),), soft)
    got = solve_min_csp(q, td)
    assert got.cost == brute_force_csp(q).cost == 2
    assert satisfies_all_hard(q, got.assignment)
    assert violated_soft_count(q, got.assignment) == got.cost

    # The child holding variable 2 admits no value at all.
    stuck = CspInstance(3, q.domains,
                        q.hard + (Constraint((2,), frozenset({(0,)})),), soft)
    assert brute_force_csp(stuck) is None
    assert solve_min_csp(stuck, td) is None


def test_fpt_grid_with_table_over_four_million_entries():
    g = parse_instance(generate("grid", [5, 6]))
    inst = Instance(g, 0, 29, 10, Variant.VERTEX)
    start = time.perf_counter()
    cut = solve_fpt(inst)
    best = time.perf_counter() - start
    assert cut.size == brute_force_cut(inst).size
    assert best < 30.0, f"took {best:.1f}s"


def test_fpt_corner_grids_with_bounded_label_domains():
    # Corner to corner: s has degree 2 and the two border paths are
    # disjoint, so the optimum is 2.  With every label in every domain
    # these instances exceeded the table budget or took seconds.
    for side, L, variant in ((6, 10, Variant.EDGE),
                             (8, 14, Variant.EDGE), (8, 14, Variant.VERTEX),
                             (10, 18, Variant.EDGE), (10, 18, Variant.VERTEX)):
        g = parse_instance(generate("grid", [side, side]))
        inst = Instance(g, 0, side * side - 1, L, variant)
        assert solve_fpt(inst).size == 2, (side, L, variant)


def test_solve_exact_cut_cycle():
    assert solve_exact_cut(Instance(C5, 0, 2, 3, Variant.EDGE)).size == 2
    assert solve_exact_cut(Instance(C5, 0, 2, 2, Variant.EDGE)).size == 1
    far = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    assert solve_exact_cut(far).members == ()


def test_solve_exact_cut_with_supplied_decomposition():
    td = TreeDecomposition(((0, 1, 2), (0, 2, 3), (0, 3, 4)),
                           frozenset({(0, 1), (1, 2)}))
    inst = Instance(C5, 0, 2, 3, Variant.EDGE)
    assert solve_exact_cut(inst, td).size == 2


def test_solve_exact_cut_deterministic():
    inst = Instance(C5, 0, 2, 3, Variant.VERTEX)
    assert solve_exact_cut(inst) == solve_exact_cut(inst)
    q = encode_vertex_cut(inst)
    td = build_heuristic(C5)
    assert solve_min_csp(q, td) == solve_min_csp(q, td)
