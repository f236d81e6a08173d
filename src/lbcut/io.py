"""Instance and decomposition files, and deterministic instance generators.

Both file kinds share one grammar, which this module owns: ``c ...``
comment lines, no blank lines, one header of non-negative integers before
any data line, and 1-indexed ids.  An instance (DIMACS-like ``.lbcut``) is
``p lbcut <n> <m>`` and then exactly m lines ``e <u> <v>``.  A PACE 2017
``.td`` decomposition is ``s td <bags> <size> <n>``, one ``b <id>
<vertices...>`` line per bag and one ``<id> <id>`` line per tree edge.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ParseError, UsageError
from .graph import Graph, norm_edge
from .treedec import TreeDecomposition

GENERATOR_KINDS = ("grid", "cycle", "diamond", "theta", "partial-ktree")


def _read(text: str, form: str, data: str,
          kind: Optional[str] = None) -> Iterator:
    """Walk ``text`` in the shared grammar.  ``form`` is the header as errors
    show it: its two leading words, then one word per integer field.

    Yields the tuple of header fields, then ``(lineno, parts)`` per data
    line.  A data line before the header raises "<data> before header";
    with ``kind`` given, any other line kind raises "unrecognized line kind".
    """
    tag, word, *fields = form.split()
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            raise ParseError("blank line", lineno)
        first = parts[0]
        if first == "c":
            continue
        if first == tag:
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 2 + len(fields) or parts[1] != word:
                raise ParseError(f"malformed header, expected '{form}'", lineno)
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if any(x < 0 for x in header):
                raise ParseError("negative header field", lineno)
            yield header
            continue
        if kind is not None and first != kind:
            raise ParseError(f"unrecognized line kind {first!r}", lineno)
        if header is None:
            raise ParseError(f"{data} before header", lineno)
        yield lineno, parts
    if header is None:
        raise ParseError(f"missing '{tag} {word}' header")


def _write(header: str, rows: Iterable[str], comments: Iterable[str]) -> str:
    """Comment lines, then the header, then the caller's 1-indexed rows."""
    lines = [f"c {c}" for c in comments]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Graph:
    lines = _read(text, "p lbcut <n> <m>", "edge", kind="e")
    n, m = next(lines)
    edges: set[tuple[int, int]] = set()
    for lineno, parts in lines:
        if len(parts) != 3:
            raise ParseError("edge line needs exactly two endpoints", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("non-integer endpoint", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range 1..{n}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if e in edges:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        edges.add(e)
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, frozenset(range(n)), frozenset(edges))


def write_instance(g: Graph, comments: Iterable[str] = ()) -> str:
    return _write(f"p lbcut {g.n} {g.m}",
                  (f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)), comments)


def load_instance(path: Union[str, Path]) -> Graph:
    return parse_instance(Path(path).read_text())


def read_td(text: str) -> tuple[TreeDecomposition, int]:
    """Parse PACE .td text; returns (decomposition rooted at node 0, n)."""
    lines = _read(text, "s td <bags> <size> <n>", "data")
    num_bags, max_bag, n_vertices = next(lines)
    bags: dict[int, tuple[int, ...]] = {}
    edges: set[tuple[int, int]] = set()
    for lineno, parts in lines:
        if parts[0] == "b":
            try:
                values = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError("non-integer value in bag line", lineno) from None
            if not values:
                raise ParseError("bag line without id", lineno)
            bag_id, verts = values[0], values[1:]
            if not 1 <= bag_id <= num_bags:
                raise ParseError(f"bag id {bag_id} out of range", lineno)
            if bag_id in bags:
                raise ParseError(f"duplicate bag id {bag_id}", lineno)
            for v in verts:
                if not 1 <= v <= n_vertices:
                    raise ParseError(f"vertex {v} out of range", lineno)
            bags[bag_id] = tuple(v - 1 for v in verts)
        else:
            try:
                ids = [int(x) for x in parts]
            except ValueError:
                raise ParseError("malformed tree edge line", lineno) from None
            if len(ids) != 2:
                raise ParseError("tree edge line needs exactly two ids", lineno)
            x, y = ids
            if x == y or not (1 <= x <= num_bags and 1 <= y <= num_bags):
                raise ParseError(f"bad tree edge ({x},{y})", lineno)
            e = (min(x, y) - 1, max(x, y) - 1)
            if e in edges:
                raise ParseError(f"duplicate tree edge ({x},{y})", lineno)
            edges.add(e)
    if len(bags) != num_bags:
        raise ParseError(f"header declares {num_bags} bags, found {len(bags)}")
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    actual = max((len(b) for b in ordered), default=0)
    if actual != max_bag:
        raise ParseError(f"header declares max bag size {max_bag}, found {actual}")
    return TreeDecomposition(ordered, frozenset(edges), root=0), n_vertices


def write_td(td: TreeDecomposition, n_vertices: int,
             comments: Iterable[str] = ()) -> str:
    """Serialize in PACE 2017 .td format (1-indexed, bags ascending)."""
    max_bag = max((len(b) for b in td.bags), default=0)
    rows = [" ".join(["b", str(i)] + [str(v + 1) for v in bag])
            for i, bag in enumerate(td.bags, start=1)]
    rows += [f"{x + 1} {y + 1}" for x, y in sorted(td.tree_edges)]
    return _write(f"s td {td.n_nodes} {max_bag} {n_vertices}", rows, comments)


def _grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _partial_ktree(n: int, k: int, keep: float, rng: random.Random) -> tuple[int, list]:
    if n < k + 1:
        raise UsageError("partial-ktree needs n >= k+1")
    edges = {norm_edge(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)}
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = list(cliques[rng.randrange(len(cliques))])
        if len(base) > k:
            base = sorted(rng.sample(base, k))
        for u in base:
            edges.add(norm_edge(u, v))
        for u in base:
            cliques.append(tuple(sorted(set(base) - {u}) + [v]))
        cliques.append(tuple(base))
    kept = [e for e in sorted(edges) if rng.random() < keep]
    return n, kept


def generate(kind: str, params: Sequence, seed: int = 0) -> str:
    """Instance text for a named family; deterministic under (params, seed)."""
    rng = random.Random(seed)
    if kind == "grid":
        rows, cols = _int_params(kind, params, 2)
        if rows < 1 or cols < 1:
            raise UsageError("grid needs rows >= 1 and cols >= 1")
        n, edges = rows * cols, _grid(rows, cols)
        note = f"grid rows={rows} cols={cols}"
    elif kind == "cycle":
        (n,) = _int_params(kind, params, 1)
        if n < 3:
            raise UsageError("cycle needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
        note = f"cycle n={n}"
    elif kind == "diamond":
        (k,) = _int_params(kind, params, 1)
        if k < 1:
            raise UsageError("diamond needs k >= 1")
        # s=1, middles 2..k+1, t=k+2 (1-indexed in the file)
        n = k + 2
        edges = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
        note = f"diamond k={k}"
    elif kind == "theta":
        p, q = _int_params(kind, params, 2)
        if p < 1 or q < 1 or (p == 1 and q == 1):
            raise UsageError("theta needs path lengths >= 1, not both 1")
        # s=1, t=2; first path interior 3..p+1, second p+2..p+q (1-indexed)
        n = p + q
        first = [0] + list(range(2, p + 1)) + [1]
        second = [0] + list(range(p + 1, p + q)) + [1]
        edges = list(zip(first, first[1:])) + list(zip(second, second[1:]))
        note = f"theta p={p} q={q}"
    elif kind == "partial-ktree":
        if len(params) != 3:
            raise UsageError("partial-ktree needs params: n k keep_prob")
        try:
            n, k, keep = int(params[0]), int(params[1]), float(params[2])
        except (TypeError, ValueError):
            raise UsageError("partial-ktree needs params: n k keep_prob") from None
        if k < 1 or not 0.0 <= keep <= 1.0:
            raise UsageError("partial-ktree needs k >= 1 and 0 <= keep_prob <= 1")
        n, edges = _partial_ktree(n, k, keep, rng)
        note = f"partial-ktree n={n} k={k} keep={keep}"
    else:
        raise UsageError(
            f"unknown generator kind {kind!r}; choose from {', '.join(GENERATOR_KINDS)}")
    g = Graph.from_edges(n, edges)
    return write_instance(g, comments=[f"generated: {note} seed={seed}"])


def _int_params(kind: str, params: Sequence, count: int) -> list[int]:
    if len(params) != count:
        raise UsageError(f"{kind} needs exactly {count} integer parameter(s)")
    try:
        return [int(p) for p in params]
    except (TypeError, ValueError):
        raise UsageError(f"{kind} needs integer parameters") from None
