import random

import pytest

from lbcut import (Constraint, CspInstance, CspSolution, Graph, Instance,
                   ResourceExceeded, UNKNOWN, Variant, brute_force_csp,
                   brute_force_cut, encode_edge_cut, enumerate_short_paths)

from conftest import grid_graph, satisfies_all_hard, violated_soft_count

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_brute_force_cut_lexicographic_first():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    assert brute_force_cut(inst).members == ((0, 1),)


def test_brute_force_cut_cycle():
    inst = Instance(C5, 0, 2, 3, Variant.EDGE)
    assert brute_force_cut(inst).size == 2


def test_brute_force_cut_trivial_when_far():
    inst = Instance(PATH4, 0, 3, 2, Variant.EDGE)
    assert brute_force_cut(inst).members == ()


def test_brute_force_cut_unknown_on_budget():
    inst = Instance(PATH4, 0, 3, 3, Variant.EDGE)
    assert brute_force_cut(inst, max_size=0) is UNKNOWN


def test_brute_force_cut_adjacent_terminals_raise():
    # Only the vertex variant has no cut between adjacent terminals (and
    # ``Instance`` rejects it); the edge variant cuts the edge itself.
    g = grid_graph(5, 5)
    assert brute_force_cut(Instance(g, 0, 1, 1, Variant.EDGE)).members == (
        (0, 1),)


def test_brute_force_cut_deterministic():
    inst = Instance(C5, 0, 2, 3, Variant.EDGE)
    assert brute_force_cut(inst) == brute_force_cut(inst)


def test_brute_force_csp_no_constraints():
    q = CspInstance(2, ((0, 1), (0,)), (), ())
    sol = brute_force_csp(q)
    assert sol.cost == 0 and sol.assignment == (0, 0)


def test_brute_force_csp_infeasible():
    q = CspInstance(1, ((0,),), (Constraint((0,), frozenset({(1,)}) - {(1,)}),), ())
    assert brute_force_csp(q) is None


def test_brute_force_csp_sums_weights():
    # x = 0 violates the weight-3 constraint, x = 1 the two of weight 1.
    zero = frozenset({(0,)})
    q = CspInstance(1, ((0, 1),), (),
                    (Constraint((0,), frozenset({(1,)}), 3),
                     Constraint((0,), zero), Constraint((0,), zero)))
    assert brute_force_csp(q) == CspSolution(2, (1,))


def test_brute_force_csp_agrees_with_cut_oracle():
    inst = Instance(C5, 0, 2, 2, Variant.EDGE)
    assert brute_force_csp(encode_edge_cut(inst)).cost == 1
    assert brute_force_cut(inst).size == 1


def test_brute_force_csp_budget():
    q = CspInstance(4, (tuple(range(10)),) * 4, (), ())
    with pytest.raises(ResourceExceeded):
        brute_force_csp(q, budget=100)


def test_brute_force_csp_solution_quality():
    rng = random.Random(17)
    for _ in range(40):
        nv = rng.randint(1, 5)
        domains = tuple(tuple(range(rng.randint(1, 3))) for _ in range(nv))
        cons = []
        for _ in range(rng.randint(0, 5)):
            scope = tuple(sorted(rng.sample(range(nv), min(nv, rng.randint(1, 2)))))
            space = [tuple(t) for t in __import__("itertools").product(
                *(domains[v] for v in scope))]
            allowed = frozenset(rng.sample(space, rng.randint(0, len(space))))
            cons.append(Constraint(scope, allowed))
        cut_point = rng.randint(0, len(cons))
        q = CspInstance(nv, domains, tuple(cons[:cut_point]), tuple(cons[cut_point:]))
        sol = brute_force_csp(q)
        if sol is not None:
            assert satisfies_all_hard(q, sol.assignment)
            assert violated_soft_count(q, sol.assignment) == sol.cost


def test_enumerate_short_paths_examples():
    assert enumerate_short_paths(PATH4, 0, 3, 3) == [(0, 1, 2, 3)]
    assert len(enumerate_short_paths(DIAMOND, 0, 3, 2)) == 2
    assert enumerate_short_paths(PATH4, 0, 3, 2) == []


def test_enumerate_short_paths_simple_and_bounded():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(n - 1, len(pairs))))
        s, t = rng.sample(range(n), 2)
        L = rng.randint(1, 4)
        paths = enumerate_short_paths(g, s, t, L)
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert p[0] == s and p[-1] == t
            assert len(set(p)) == len(p)
            assert len(p) - 1 <= L
            for u, v in zip(p, p[1:]):
                assert g.has_edge(u, v)
