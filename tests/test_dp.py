import random
import time

import pytest

from lbcut import (Constraint, CspInstance, DecompositionMismatch, Graph,
                   Instance, ResourceExceeded, TreeDecomposition, Variant,
                   brute_force_csp, brute_force_cut, build_heuristic,
                   constraint_graph, encode_edge_cut, encode_vertex_cut,
                   generate, parse_instance, solve_exact_cut, solve_fpt,
                   solve_min_csp, violated_soft_count)
from lbcut.csp import satisfies_all_hard
from lbcut.dp import soft_owners

from conftest import random_csp

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
        with pytest.raises(DecompositionMismatch):
            solve_min_csp(q, td)


def test_dp_rejects_non_tree():
    q = CspInstance(2, ((0,), (0,)), (), ())
    td = TreeDecomposition(((0,), (1,)), frozenset())
    with pytest.raises(DecompositionMismatch):
        solve_min_csp(q, td)


def test_dp_resource_budget():
    inst = Instance(C5, 0, 2, 3, Variant.EDGE)
    q = encode_edge_cut(inst)
    td = build_heuristic(C5)
    with pytest.raises(ResourceExceeded):
        solve_min_csp(q, td, table_budget=10)


def test_dp_isolated_variable_gets_domain_minimum():
    q = CspInstance(3, ((0, 1), (5, 7), (2,)),
                    (Constraint((0,), frozenset({(1,)})),), ())
    td = TreeDecomposition(((0,), (2,)), frozenset({(0, 1)}))  # var 1 in no bag
    sol = solve_min_csp(q, td)
    assert sol.assignment == (1, 5, 2)


def test_soft_owner_partition():
    rng = random.Random(101)
    for _ in range(40):
        q = random_csp(rng, max_vars=8, max_dom=3)
        td = decomposition_for(q)
        owners = soft_owners(q, td)
        assert len(owners) == len(q.soft)
        bag_sets = td.bag_sets()
        for c, a in zip(q.soft, owners):
            assert set(c.scope) <= bag_sets[a]
            # topmost: no strict ancestor's bag covers the scope too
            p = td.parent[a]
            while p is not None:
                assert not set(c.scope) <= bag_sets[p]
                p = td.parent[p]
        # owner-charged violations sum to the global count for any assignment
        for _ in range(5):
            z = tuple(rng.choice(d) for d in q.domains)
            per_owner = [0] * td.n_nodes
            for c, a in zip(q.soft, owners):
                if not c.satisfied_by(z):
                    per_owner[a] += 1
            assert sum(per_owner) == violated_soft_count(q, z)


def test_dp_matches_enumeration_on_random_csps():
    rng = random.Random(55)
    for _ in range(80):
        q = random_csp(rng)
        td = decomposition_for(q)
        got = solve_min_csp(q, td)
        want = brute_force_csp(q)
        if want is None:
            assert got is None
            continue
        assert got.cost == want.cost
        assert satisfies_all_hard(q, got.assignment)
        assert violated_soft_count(q, got.assignment) == got.cost
        for v, x in enumerate(got.assignment):
            assert x in q.domains[v]


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
