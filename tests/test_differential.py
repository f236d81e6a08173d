"""Exact and approximate cuts against a path-hitting integer program.

The reference reads only the graph's vertex and edge lists: it finds short
paths with its own breadth-first search and solves the hitting problem with
``scipy.optimize.milp``.  Instances have 20 to 60 vertices: grid subgraphs
with holes, partial k-trees and fans, in both variants, with L drawn from 2
to twice the graph's diameter.  Seeds are fixed, so every run checks the
same instances.
"""

import random
from functools import lru_cache
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_array

from lbcut import (Instance, Variant, approx_vertex_cut, bfs_distances,
                   build_heuristic, generate, parse_instance, solve_fpt)

from conftest import fan_instance, grid_with_holes


def _short_path(adj: dict, s: int, t: int, L: int, gone: set,
                vertex: bool) -> Optional[list[int]]:
    """A shortest s-t path of at most L edges that uses no removed vertex
    (``vertex``) or edge, or None."""
    parent = {s: None}
    frontier = [s]
    for _ in range(L):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w in parent:
                    continue
                if (w in gone) if vertex else ((min(u, w), max(u, w)) in gone):
                    continue
                parent[w] = u
                if w == t:
                    path = [t]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def ilp_optimum(inst: Instance) -> int:
    """Least number of elements that meet every s-t path of at most L edges.

    Rows are added lazily: after each solve, the short paths the solution
    leaves open are packed greedily and added.  When none is left the
    solution is a cut, and optimal, since the program relaxes the full
    path list.
    """
    vertex = inst.variant is Variant.VERTEX
    adj: dict[int, list[int]] = {v: [] for v in inst.graph.vertices}
    for u, v in inst.graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    index: dict = {}
    rows: list[list[int]] = []
    chosen: list = []
    while True:
        gone = set(chosen)
        added = 0
        while (path := _short_path(adj, inst.s, inst.t, inst.L, gone,
                                   vertex)) is not None:
            elems = (path[1:-1] if vertex else
                     [(min(u, w), max(u, w)) for u, w in zip(path, path[1:])])
            assert elems, "a vertex instance with adjacent terminals"
            rows.append([index.setdefault(x, len(index)) for x in elems])
            gone.update(elems)
            added += 1
        if not added:
            return len(chosen)
        a = csr_array((np.ones(sum(map(len, rows))),
                       np.array([c for r in rows for c in r]),
                       np.cumsum([0] + [len(r) for r in rows])),
                      shape=(len(rows), len(index)))
        res = milp(np.ones(len(index)), integrality=np.ones(len(index)),
                   bounds=(0, 1), constraints=LinearConstraint(a, lb=1))
        assert res.success, res.message
        elements = list(index)
        chosen = [elements[i] for i in np.flatnonzero(res.x > 0.5)]


def _diameter(g) -> int:
    return max(d for v in g.sorted_vertices() for d in bfs_distances(g, v)
               if d is not None)


def _terminals(rng: random.Random, g) -> tuple[int, int]:
    """Two non-adjacent vertices of one component, at least 2 apart."""
    vertices = g.sorted_vertices()
    while True:
        s = rng.choice(vertices)
        far = [v for v, d in enumerate(bfs_distances(g, s))
               if d is not None and d >= 2]
        if far:
            return s, rng.choice(far)


@lru_cache(maxsize=None)
def instances() -> tuple[Instance, ...]:
    rng = random.Random(2017)
    graphs = []
    for _ in range(8):
        rows, cols = rng.randint(5, 6), rng.randint(5, 10)
        graphs.append(grid_with_holes(rng, rows, cols,
                                      rng.randint(2, rows * cols // 6)))
    for k, seed in ((2, 1), (3, 2), (3, 3), (4, 4), (4, 5), (5, 6)):
        graphs.append(parse_instance(generate(
            "partial-ktree", [rng.randint(20, 60), k, 0.7], seed=seed)))
    out = []
    for g in graphs:
        diameter = _diameter(g)
        for variant in Variant:
            s, t = _terminals(rng, g)
            for _ in range(3):
                out.append(Instance(g, s, t, rng.randint(2, 2 * diameter),
                                    variant))
    for k in (18, 35, 58):
        fan = fan_instance(k)
        for variant in Variant:
            for L in (2, rng.randint(3, 2 * _diameter(fan.graph))):
                out.append(Instance(fan.graph, fan.s, fan.t, L, variant))
    return tuple(out)


def test_instances_span_the_classes():
    sizes = [len(inst.graph.vertices) for inst in instances()]
    assert min(sizes) >= 20 and max(sizes) <= 60
    assert {inst.variant for inst in instances()} == set(Variant)


@pytest.mark.parametrize("i", range(len(instances())))
def test_exact_and_approx_against_the_ilp(i):
    inst = instances()[i]
    opt = ilp_optimum(inst)
    assert solve_fpt(inst).size == opt
    if inst.variant is Variant.VERTEX:
        cut = approx_vertex_cut(inst, build_heuristic(inst.graph)).cut
        lb, w = cut.lower_bound, cut.width_used
        assert lb <= opt <= cut.size <= w * max(lb, 1)
