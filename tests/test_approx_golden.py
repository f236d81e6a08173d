"""Golden answers and traces of the approximation on fixed instances.

``approx_golden.json`` holds, per case, the cut, the lower bound and every
trace event as (kind, node, bag, removed, subtree_vertices), recorded from
the recursive implementation that built one induced subgraph per candidate
node, together with the decomposition (bags, tree edges, root) it ran on.
The cases are keyed by the elimination heuristic that built that
decomposition, min-fill or min-degree; the decomposition is read from the
file, so the cases do not depend on ``build_heuristic``.  The loop over a
live-vertex set must reproduce all of it.
"""

import json
import random
from pathlib import Path

import pytest

from lbcut import (Graph, Instance, TreeDecomposition, Variant,
                   approx_vertex_cut, generate, parse_instance)

from conftest import grid_graph

GOLDEN = Path(__file__).with_name("approx_golden.json")


def _fan(k: int, seed: int) -> tuple[Graph, int, int]:
    """Path p_1..p_k, s and t adjacent to every p_i, ids shuffled by seed."""
    perm = list(range(k + 2))
    random.Random(seed).shuffle(perm)
    s, t, path = perm[0], perm[1], perm[2:]
    edges = [(s, p) for p in path] + [(t, p) for p in path]
    edges += list(zip(path, path[1:]))
    return Graph.from_edges(k + 2, edges), s, t


def _common_neighbour_pair(g: Graph, k: int) -> tuple[int, int]:
    """The first non-adjacent pair (in id order) with >= k common neighbours."""
    for s in g.sorted_vertices():
        ns = set(g.neighbors(s))
        for t in g.sorted_vertices():
            if t > s and t not in ns and len(ns & set(g.neighbors(t))) >= k:
                return s, t
    raise ValueError(f"no non-adjacent pair with {k} common neighbours")


def golden_instances() -> dict[str, Instance]:
    fan, fs, ft = _fan(30, seed=5)
    ktree = parse_instance(generate("partial-ktree", [150, 3, 0.8], seed=21))
    ks, kt = _common_neighbour_pair(ktree, 3)
    return {
        "fan30-L2": Instance(fan, fs, ft, 2, Variant.VERTEX),
        "grid4x5-corner-L9": Instance(grid_graph(4, 5), 0, 19, 9, Variant.VERTEX),
        "ktree150-k3-L3": Instance(ktree, ks, kt, 3, Variant.VERTEX),
    }


def recorded_td(entry: dict) -> TreeDecomposition:
    td = entry["td"]
    return TreeDecomposition(tuple(map(tuple, td["bags"])),
                             frozenset(map(tuple, td["tree_edges"])),
                             root=td["root"])


def snapshot(inst: Instance, td: TreeDecomposition) -> dict:
    res = approx_vertex_cut(inst, td)
    return {
        "cut": list(res.cut.members),
        "lower_bound": res.lower_bound,
        "trace": [[e.kind, e.node, list(e.bag), list(e.removed),
                   list(e.subtree_vertices)] for e in res.trace],
    }


@pytest.mark.parametrize("heuristic", ["min-degree", "min-fill"])
@pytest.mark.parametrize("name", sorted(golden_instances()))
def test_cut_bound_and_trace_match_golden(name, heuristic):
    golden = json.loads(GOLDEN.read_text())[f"{name}/{heuristic}"]
    want = {k: v for k, v in golden.items() if k != "td"}
    assert snapshot(golden_instances()[name], recorded_td(golden)) == want
