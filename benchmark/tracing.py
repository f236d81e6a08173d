"""In-memory spans around the calls into each ``lbcut`` layer.

The tracer replaces public functions and methods at the names their callers
look up (``lbcut.fpt.build_heuristic``, ``lbcut.dp.solve_min_csp``,
``Graph.induced``, ...) with wrappers that record one span per call: name,
start, end and the enclosing span.  A layer's self time is its spans'
durations minus the part covered by their direct children.  Wrappers also
read counts off arguments and results, so work is counted where it is done.
No file of the package is changed; ``restore`` puts the originals back.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import lbcut
import lbcut.approx
import lbcut.dp
import lbcut.fpt
import lbcut.graph

# Span names double as per-layer metric prefixes: "<name>_ms" is self time.
SPAN_NAMES = (
    "io.generate", "io.parse",
    "fpt.solve", "fpt.prune",
    "treedec.decompose", "treedec.validate", "treedec.surgery",
    "treedec.subtree_sets",
    "csp.encode", "csp.decode",
    "dp.solve",
    "graph.verify", "graph.bfs", "graph.hop_distance", "graph.induced",
    "graph.mincut",
    "approx.solve",
)
CALL_COUNTS = ("graph.verify", "graph.hop_distance", "graph.induced")
COUNTERS = (
    "fpt.kept_vertices", "fpt.total_vertices",
    "treedec.width_max", "treedec.bags_total",
    "csp.domain_values_total", "csp.constraints_total",
    "csp.allowed_tuples_total",
    "dp.table_entries_total", "dp.table_entries_max", "dp.peak_alloc_mb",
    "approx.prune_events", "approx.split_events", "approx.leaf_events",
    "approx.fallback_events",
)
_EVENT_COUNTER = {"prune": "approx.prune_events", "split": "approx.split_events",
                  "leaf-mincut": "approx.leaf_events",
                  "fallback": "approx.fallback_events"}


class Tracer:
    """Records spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.measure_memory = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- counters read off arguments and results ----------------------------

    def _after_prune(self, args, result) -> None:
        self._add("fpt.kept_vertices", len(result.kept))
        self._add("fpt.total_vertices", len(args[0].graph.vertices))

    def _after_decompose(self, args, td) -> None:
        self._max("treedec.width_max", lbcut.width(td))
        self._add("treedec.bags_total", td.n_nodes)

    def _after_encode(self, args, q) -> None:
        cons = q.hard + q.soft
        self._add("csp.domain_values_total", sum(len(d) for d in q.domains))
        self._add("csp.constraints_total", len(cons))
        self._add("csp.allowed_tuples_total", sum(len(c.allowed) for c in cons))

    def _after_dp(self, args, result) -> None:
        q, td = args[0], args[1]
        entries = [math.prod(len(q.domains[v]) for v in bag) for bag in td.bags]
        self._add("dp.table_entries_total", sum(entries))
        self._max("dp.table_entries_max", max(entries, default=0))

    def _after_approx(self, args, result) -> None:
        for kind, count in Counter(e.kind for e in result.trace).items():
            self._add(_EVENT_COUNTER[kind], count)

    def _dp_solve(self, fn):
        """solve_min_csp, with tracemalloc around it while measuring memory."""
        def solve(*args, **kwargs):
            if not self.measure_memory:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._max("dp.peak_alloc_mb", peak / 2**20)
        return solve

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, inner=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(inner(fn) if inner else fn, name, after))

    def install(self) -> None:
        fpt, dp, approx = lbcut.fpt, lbcut.dp, lbcut.approx
        patches = [
            (lbcut, "generate", "io.generate"),
            (lbcut, "parse_instance", "io.parse"),
            (lbcut, "solve_fpt", "fpt.solve"),
            (lbcut, "approx_auto", "approx.solve", self._after_approx),
            (fpt, "prune_to_relevant", "fpt.prune", self._after_prune),
            (fpt, "bfs_distances", "graph.bfs"),
            (fpt, "hop_distance", "graph.hop_distance"),
            (fpt, "build_heuristic", "treedec.decompose", self._after_decompose),
            (fpt, "verify_cut", "graph.verify"),
            (dp, "encode_edge_cut", "csp.encode", self._after_encode),
            (dp, "encode_vertex_cut", "csp.encode", self._after_encode),
            (dp, "decode_edge", "csp.decode"),
            (dp, "decode_vertex", "csp.decode"),
            (dp, "build_heuristic", "treedec.decompose", self._after_decompose),
            (dp, "verify_cut", "graph.verify"),
            (approx, "build_heuristic", "treedec.decompose", self._after_decompose),
            (approx, "validate", "treedec.validate"),
            (approx, "subtree_vertex_sets", "treedec.subtree_sets"),
            (approx, "split_at", "treedec.surgery"),
            (approx, "prune_decomposition", "treedec.surgery"),
            (approx, "hop_distance", "graph.hop_distance"),
            (approx, "min_vertex_cut", "graph.mincut"),
            (approx, "verify_cut", "graph.verify"),
            (lbcut.graph.Graph, "induced", "graph.induced"),
        ]
        for patch in patches:
            self._patch(*patch)
        self._patch(dp, "solve_min_csp", "dp.solve", self._after_dp,
                    inner=self._dp_solve)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- reporting ----------------------------------------------------------

    def self_ms(self, first: int, stop: int) -> dict[str, float]:
        """Self time in ms per span name over spans[first:stop]."""
        own = [end - start for _, start, end, _ in self.spans[first:stop]]
        for i in range(first, stop):
            parent = self.spans[i][3]
            if parent >= first:
                own[parent - first] -= self.spans[i][2] - self.spans[i][1]
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, _, _, _), t in zip(self.spans[first:stop], own):
            out[name] += t * 1000.0
        return out

    def calls(self, first: int, stop: int) -> Counter:
        return Counter(span[0] for span in self.spans[first:stop])

    def write(self, path: Path) -> None:
        """All spans as [name, start_us, end_us, parent_index] rows, times in
        microseconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [(name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent)
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start_us", "end_us", "parent"],
                       "spans": rows}, out, separators=(",", ":"))
