"""Self-test of the benchmark's reference checks, corpora and tracer.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import lbcut  # noqa: E402
from lbcut.oracle import brute_force_cut  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402


def _small_instances():
    """Small graphs of every generator family, all terminal pairs, L = 1..4."""
    texts = [lbcut.generate("grid", [3, 3]), lbcut.generate("grid", [2, 4]),
             lbcut.generate("cycle", [6]), lbcut.generate("diamond", [3]),
             lbcut.generate("theta", [3, 4]),
             lbcut.generate("partial-ktree", [8, 2, 0.8], seed=3)]
    for text in texts:
        g = lbcut.parse_instance(text)
        for s, t in combinations(range(g.n), 2):
            for L in range(1, 5):
                yield lbcut.Instance(g, s, t, L, lbcut.Variant.EDGE)
                if not g.has_edge(s, t):
                    yield lbcut.Instance(g, s, t, L, lbcut.Variant.VERTEX)


def test_ilp_matches_brute_force_on_small_instances():
    checked = 0
    for inst in _small_instances():
        optimum, solution = reference.ilp_optimum(inst)
        oracle = brute_force_cut(inst)
        assert oracle is not lbcut.UNKNOWN
        assert optimum == oracle.size, inst
        assert reference.is_cut(inst, set(solution))
        checked += 1
    assert checked > 800


def test_fan_optimum_is_path_length():
    for case in corpus.approx_auto(5):
        if case.fan_k is not None:
            assert reference.ilp_optimum(case.inst)[0] == case.fan_k


def _solved(cases):
    for case in cases:
        if case.fan_k is None and case.inst.graph.n <= 300:
            yield case.inst, lbcut.solve_fpt(case.inst).members


@pytest.mark.parametrize("cases", [corpus.grid_exact(7)[:12],
                                   corpus.ktree_exact(7)[:4]])
def test_exact_check_rejects_a_cut_missing_one_member(cases):
    for inst, members in _solved(cases):
        optimum, _ = reference.ilp_optimum(inst)
        assert reference.check_exact(inst, members, optimum) is None
        for drop in members:
            short = tuple(m for m in members if m != drop)
            assert reference.check_exact(inst, short, optimum) is not None
        assert reference.check_exact(inst, members, optimum - 1) is not None


def test_approx_check_rejects_bad_answers():
    case = next(c for c in corpus.approx_auto(7) if c.fan_k is None)
    res = lbcut.approx_auto(case.inst)
    optimum, _ = reference.ilp_optimum(case.inst)
    members, lb, w = res.cut.members, res.lower_bound, res.width_used
    assert reference.check_approx(case.inst, members, lb, w, optimum) is None
    for drop in members:
        short = tuple(m for m in members if m != drop)
        assert reference.check_approx(case.inst, short, lb, w, optimum) is not None
    assert reference.check_approx(case.inst, members, optimum + 1, w, optimum)
    assert reference.check_approx(case.inst, members, lb, 0, optimum)


def test_is_cut_rejects_terminals_and_foreign_members():
    g = lbcut.parse_instance(lbcut.generate("grid", [3, 3]))
    vertex = lbcut.Instance(g, 0, 8, 4, lbcut.Variant.VERTEX)
    assert reference.is_cut(vertex, {2, 4, 6})
    assert not reference.is_cut(vertex, {0})
    assert not reference.is_cut(vertex, {2, 4, 6, 99})
    edge = lbcut.Instance(g, 0, 8, 4, lbcut.Variant.EDGE)
    assert reference.is_cut(edge, {(0, 1), (0, 3)})
    assert not reference.is_cut(edge, {(0, 1), (0, 3), (0, 8)})


@pytest.mark.parametrize("build", list(corpus.WORKLOADS.values()))
def test_corpus_is_a_function_of_the_seed(build):
    first, again, other = build(3), build(3), build(4)
    assert [(c.name, c.inst) for c in first] == [(c.name, c.inst) for c in again]
    assert [c.inst for c in first] != [c.inst for c in other]
    assert [c.name for c in first] == [c.name for c in other]


def test_tracer_records_nested_spans_and_restores_the_package():
    from tracing import Tracer

    original = lbcut.dp.solve_min_csp
    case = corpus.grid_exact(1)[0]
    expected = lbcut.solve_fpt(case.inst)
    tracer = Tracer()
    tracer.install()
    try:
        assert lbcut.solve_fpt(case.inst) == expected
    finally:
        tracer.restore()
    assert lbcut.dp.solve_min_csp is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "fpt.solve" and "dp.solve" in names
    assert all(parent == 0 for name, _, _, parent in tracer.spans[1:]
               if name in ("fpt.prune", "treedec.decompose"))
    own = tracer.self_ms(0, len(tracer.spans))
    total = (tracer.spans[0][2] - tracer.spans[0][1]) * 1000.0
    assert sum(own.values()) == pytest.approx(total)
    assert tracer.counters["dp.table_entries_max"] > 0
