import pytest

from lbcut import (Graph, ParseError, UsageError, parse_instance, read_td,
                   write_instance)
from lbcut.io import generate


def test_parse_k2():
    g = parse_instance("p lbcut 2 1\ne 1 2\n")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_parse_with_comments_and_isolated_vertices():
    g = parse_instance("c hello\np lbcut 4 1\nc mid\ne 2 3\n")
    assert g.n == 4 and g.m == 1 and g.has_edge(1, 2)


def test_parse_self_loop():
    with pytest.raises(ParseError) as exc:
        parse_instance("p lbcut 2 1\ne 1 1\n")
    assert "self-loop" in str(exc.value) and exc.value.line == 2


def test_parse_count_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_instance("p lbcut 3 2\ne 1 2\n")
    assert "declares 2 edges" in str(exc.value)


def test_parse_duplicate_edge():
    with pytest.raises(ParseError):
        parse_instance("p lbcut 2 2\ne 1 2\ne 2 1\n")


def test_parse_out_of_range_and_header_errors():
    with pytest.raises(ParseError):
        parse_instance("p lbcut 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        parse_instance("e 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("p lbcut 2\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("p lbcut 2 1\np lbcut 2 1\ne 1 2\n")


def _shared_grammar_cases(header, data):
    """(name, text, line of the error) for each error both file kinds share."""
    fields = header.split()
    negative = " ".join(fields[:-1] + ["-1"])
    short = " ".join(fields[:-1])
    return [
        ("blank line", f"{header}\n\n{data}\n", 2),
        ("duplicate header", f"{header}\n{header}\n{data}\n", 2),
        ("malformed header", f"c note\n{short}\n{data}\n", 2),
        ("negative header field", f"c note\n{negative}\n{data}\n", 2),
        ("data before header", f"c note\n{data}\n{header}\n", 2),
        ("missing header", "c only a comment\n", None),
    ]


@pytest.mark.parametrize("read, header, data", [
    (parse_instance, "p lbcut 2 1", "e 1 2"),
    (read_td, "s td 1 1 2", "b 1 1"),
], ids=["lbcut", "td"])
def test_shared_grammar_errors_name_the_same_line(read, header, data):
    read(f"c note\n{header}\n{data}\n")  # the well-formed file parses
    for name, text, line in _shared_grammar_cases(header, data):
        with pytest.raises(ParseError) as exc:
            read(text)
        assert exc.value.line == line, (name, str(exc.value))


def test_instance_round_trip_is_exact():
    g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    text = write_instance(g, comments=["example"])
    back = parse_instance(text)
    assert back == g
    assert write_instance(back, comments=["example"]) == text


def test_generate_grid():
    g = parse_instance(generate("grid", [2, 2]))
    assert g.n == 4 and g.m == 4


def test_generate_cycle():
    g = parse_instance(generate("cycle", [5]))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_generate_diamond():
    g = parse_instance(generate("diamond", [3]))
    assert g.n == 5 and g.m == 6
    # s=vertex 0 and t=vertex 4 internally; middles have degree 2
    assert g.degree(0) == 3 and g.degree(4) == 3


def test_generate_theta():
    g = parse_instance(generate("theta", [2, 3]))
    assert g.n == 5 and g.m == 5
    assert g.degree(0) == 2 and g.degree(1) == 2


def test_generate_partial_ktree_deterministic():
    a = generate("partial-ktree", [10, 2, 0.8], seed=7)
    b = generate("partial-ktree", [10, 2, 0.8], seed=7)
    c = generate("partial-ktree", [10, 2, 0.8], seed=8)
    assert a == b
    assert a != c
    parse_instance(a)


def test_generate_invalid_params():
    with pytest.raises(UsageError):
        generate("cycle", [2])
    with pytest.raises(UsageError):
        generate("grid", [3])
    with pytest.raises(UsageError):
        generate("theta", [1, 1])
    with pytest.raises(UsageError):
        generate("partial-ktree", [2, 3, 0.5])
    with pytest.raises(UsageError):
        generate("moebius", [5])
