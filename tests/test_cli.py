import csv
import io
import json
import re

import pytest

from lbcut import CutSet, Variant, build_heuristic, parse_instance, write_td
from lbcut.cli import main
from lbcut.io import generate


@pytest.fixture
def path_graph(tmp_path):
    p = tmp_path / "path.lbcut"
    p.write_text("p lbcut 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    return p


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exact_json(path_graph, capsys):
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "exact", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 1
    assert report["feasible"] is True
    assert report["L"] == 3
    assert report["algorithm"] == "fpt"
    assert report["lower_bound"] == 1
    assert report["elapsed_ms"] >= 0


# Full stdout of `solve` and `bench`, with elapsed_ms masked.
SOLVE_GOLDEN = [
    (["--variant", "edge", "--algo", "exact"],
     "algorithm: fpt\nvariant: edge\nL: 3\ncut: 3-4\nsize: 1\n"
     "feasible: true\nlower_bound: 1\nwidth_used: 1\nelapsed_ms: <ms>\n"),
    (["--variant", "edge", "--algo", "exact", "--json"],
     '{"algorithm": "fpt", "variant": "edge", "L": 3, "cut": [[3, 4]], '
     '"size": 1, "feasible": true, "lower_bound": 1, "width_used": 1, '
     '"elapsed_ms": <ms>}\n'),
    (["--variant", "edge", "--algo", "brute"],
     "algorithm: brute-force\nvariant: edge\nL: 3\ncut: 1-2\nsize: 1\n"
     "feasible: true\nlower_bound: 1\nelapsed_ms: <ms>\n"),
    (["--variant", "edge", "--algo", "brute", "--json"],
     '{"algorithm": "brute-force", "variant": "edge", "L": 3, '
     '"cut": [[1, 2]], "size": 1, "feasible": true, "lower_bound": 1, '
     '"width_used": null, "elapsed_ms": <ms>}\n'),
    (["--variant", "vertex", "--algo", "approx", "--td"],
     "algorithm: approx\nvariant: vertex\nL: 3\ncut: 2\nsize: 1\n"
     "feasible: true\nlower_bound: 1\nwidth_used: 1\nelapsed_ms: <ms>\n"),
    (["--variant", "vertex", "--algo", "approx", "--td", "--json"],
     '{"algorithm": "approx", "variant": "vertex", "L": 3, "cut": [2], '
     '"size": 1, "feasible": true, "lower_bound": 1, "width_used": 1, '
     '"elapsed_ms": <ms>}\n'),
    (["--variant", "edge", "--algo", "mincut-baseline"],
     "algorithm: min-edge-cut\nvariant: edge\nL: 3\ncut: 1-2\nsize: 1\n"
     "feasible: true\nelapsed_ms: <ms>\n"),
]


def _mask_elapsed(out: str) -> str:
    out = re.sub(r'(elapsed_ms"?: )[0-9.e+-]+', r"\1<ms>", out)
    return re.sub(r"^((?:[^,\n]*,){5})[0-9.]+,", r"\1<ms>,", out, flags=re.M)


@pytest.mark.parametrize("flags,expected", SOLVE_GOLDEN,
                         ids=[" ".join(f[1:]) for f, _ in SOLVE_GOLDEN])
def test_solve_output_golden(path_graph, tmp_path, capsys, flags, expected):
    if "--td" in flags:
        td_file = tmp_path / "path.td"
        td_file.write_text("s td 4 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4\n"
                           "1 2\n2 3\n3 4\n")
        i = flags.index("--td") + 1
        flags = flags[:i] + [str(td_file)] + flags[i:]
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", *flags])
    assert code == 0
    assert _mask_elapsed(out) == expected


def test_bench_output_golden(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_cycle5.lbcut").write_text(generate("cycle", [5]))
    code, out, _ = run(capsys, [
        "bench", "--corpus", str(corpus), "--source", "1", "--sink", "3",
        "--length", "2", "--variant", "vertex", "--algos",
        "exact,approx,brute,mincut-baseline"])
    assert code == 0
    assert _mask_elapsed(out).splitlines() == [
        "instance,algo,size,lower_bound,width_used,elapsed_ms,"
        "ratio_vs_oracle,error",
        "a_cycle5.lbcut,exact,1,1,1,<ms>,1.0000,",
        "a_cycle5.lbcut,approx,2,1,2,<ms>,2.0000,",
        "a_cycle5.lbcut,brute,1,1,,<ms>,1.0000,",
        "a_cycle5.lbcut,mincut-baseline,2,,,<ms>,2.0000,",
    ]


def test_solve_large_length_needs_full_disconnection(path_graph, capsys):
    # with L >= any possible path length, the cut must disconnect s from t
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "99", "--variant", "edge", "--json"])
    assert code == 0
    assert json.loads(out)["size"] == 1


def test_solve_trivial_when_terminals_far(tmp_path, capsys):
    p = tmp_path / "two_paths.lbcut"
    p.write_text("p lbcut 4 2\ne 1 2\ne 3 4\n")
    code, out, _ = run(capsys, [
        "solve", "--graph", str(p), "--source", "1", "--sink", "4",
        "--length", "99", "--variant", "edge", "--json"])
    assert code == 0
    assert json.loads(out)["size"] == 0


def test_approx_edge_variant_is_usage_error(path_graph, capsys):
    code, _, err = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "approx"])
    assert code == 1
    assert "vertex variant" in err


def test_solve_vertex_adjacent_exit_code(tmp_path, capsys):
    p = tmp_path / "k2.lbcut"
    p.write_text("p lbcut 2 1\ne 1 2\n")
    code, _, err = run(capsys, [
        "solve", "--graph", str(p), "--source", "1", "--sink", "2",
        "--length", "1", "--variant", "vertex", "--algo", "exact"])
    assert code == 2
    assert "no vertex cut" in err


def test_solve_with_supplied_decomposition(path_graph, tmp_path, capsys):
    g = parse_instance(path_graph.read_text())
    td_file = tmp_path / "path.td"
    td_file.write_text(write_td(build_heuristic(g), g.n))
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "vertex", "--algo", "approx",
        "--td", str(td_file), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 1
    assert report["width_used"] == 1
    assert report["lower_bound"] == 1


def test_solve_brute_and_baseline(path_graph, capsys):
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "brute", "--json"])
    assert code == 0 and json.loads(out)["cut"] == [[1, 2]]
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "mincut-baseline",
        "--json"])
    assert code == 0 and json.loads(out)["size"] == 1


def test_verify_feasible_and_infeasible(path_graph, capsys):
    code, out, _ = run(capsys, [
        "verify", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--cut", "2-3"])
    assert code == 0 and "feasible" in out

    code, out, _ = run(capsys, [
        "verify", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--cut", ""])
    assert code == 2
    assert "infeasible" in out
    assert "witness: 1 2 3 4" in out


def test_verify_vertex_cut(path_graph, capsys):
    code, out, _ = run(capsys, [
        "verify", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "vertex", "--cut", "2", "--json"])
    assert code == 0 and json.loads(out)["feasible"] is True


def test_generate_writes_parseable_file(tmp_path, capsys):
    out_file = tmp_path / "grid.lbcut"
    code, _, _ = run(capsys, [
        "generate", "grid", "3", "3", "--output", str(out_file)])
    assert code == 0
    g = parse_instance(out_file.read_text())
    assert g.n == 9 and g.m == 12


def test_generate_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, ["generate", "partial-ktree", "8", "2", "0.7",
                                  "--seed", "3"])
    code2, out2, _ = run(capsys, ["generate", "partial-ktree", "8", "2", "0.7",
                                  "--seed", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def _write_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_cycle5.lbcut").write_text(generate("cycle", [5]))
    (corpus / "b_diamond3.lbcut").write_text(generate("diamond", [3]))
    (corpus / "c_grid22.lbcut").write_text(generate("grid", [2, 2]))
    return corpus


def test_bench_rows_and_determinism(tmp_path, capsys):
    corpus = _write_corpus(tmp_path)
    argv = ["bench", "--corpus", str(corpus), "--source", "1", "--sink", "3",
            "--length", "2", "--variant", "edge", "--algos",
            "exact,mincut-baseline"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert [r["algo"] for r in rows] == ["exact", "mincut-baseline"] * 3
    for r in rows:
        assert r["error"] == ""
        assert r["size"] != ""
        if r["algo"] == "exact":
            assert r["ratio_vs_oracle"] == "1.0000"

    code2, out2, _ = run(capsys, argv)
    stripped = [{k: v for k, v in r.items() if k != "elapsed_ms"}
                for r in csv.DictReader(io.StringIO(out2))]
    baseline = [{k: v for k, v in r.items() if k != "elapsed_ms"}
                for r in rows]
    assert stripped == baseline


def test_bench_per_row_error_for_bad_instance(tmp_path, capsys):
    corpus = _write_corpus(tmp_path)
    (corpus / "z_broken.lbcut").write_text("p lbcut 2 1\ne 1 1\n")
    code, out, _ = run(capsys, [
        "bench", "--corpus", str(corpus), "--source", "1", "--sink", "3",
        "--length", "2", "--variant", "edge", "--algos", "exact"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    bad = [r for r in rows if r["instance"] == "z_broken.lbcut"]
    assert len(bad) == 1 and "self-loop" in bad[0]["error"]


def test_bench_oracle_over_budget_leaves_ratio_empty(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "grid44.lbcut").write_text(generate("grid", [4, 4]))
    code, out, _ = run(capsys, [
        "bench", "--corpus", str(corpus), "--source", "1", "--sink", "16",
        "--length", "6", "--variant", "edge", "--algos", "exact",
        "--oracle-max-size", "0"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["size"] == "2"
    assert row["ratio_vs_oracle"] == ""


def test_infeasible_solver_output_fails_closed(path_graph, capsys, monkeypatch):
    import lbcut.cli as climod

    def bogus(algo, inst, td, args):
        return CutSet(Variant.EDGE, ())

    monkeypatch.setattr(climod, "_run_algorithm", bogus)
    code, out, err = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "exact", "--json"])
    assert code == 1
    assert json.loads(out)["feasible"] is False
    assert "infeasible" in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, [
        "solve", "--graph", "/nonexistent.lbcut", "--source", "1",
        "--sink", "2", "--length", "1", "--variant", "edge"])
    assert code == 1 and err


def test_out_of_range_terminal_is_error(path_graph, capsys):
    code, _, err = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "9",
        "--length", "3", "--variant", "edge"])
    assert code == 1 and "out of range" in err


def test_brute_unknown_within_budget_exits_2(path_graph, capsys):
    code, _, err = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "brute",
        "--max-size", "0"])
    assert code == 2 and "unknown" in err


def test_auto_falls_back_to_approx_on_blown_budget(path_graph, capsys):
    code, out, _ = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "vertex", "--algo", "auto",
        "--table-budget", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["algorithm"] == "approx"
    assert report["size"] == 1 and report["feasible"] is True


def test_auto_with_edge_variant_cannot_fall_back(path_graph, capsys):
    code, _, err = run(capsys, [
        "solve", "--graph", str(path_graph), "--source", "1", "--sink", "4",
        "--length", "3", "--variant", "edge", "--algo", "auto",
        "--table-budget", "2"])
    assert code == 1 and "budget" in err
