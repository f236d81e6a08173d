"""The traced benchmark's tracer still finds every name it patches.

``benchmark/tracing.py`` replaces functions at the names their callers look
up (``lbcut.fpt.hop_distance``, ``lbcut.approx.split_at``, ...).  A change
that removes one of those names breaks ``benchmark/run.py --trace 1``; this
test installs the tracer from its own patch list, so it fails instead.
"""

import importlib.util
from pathlib import Path

import lbcut
from lbcut import Instance, Variant, approx_auto, solve_fpt

from conftest import grid_graph

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, (owner, attr)
        inst = Instance(grid_graph(3, 4), 0, 11, 5, Variant.VERTEX)
        lbcut.solve_fpt(inst)
        lbcut.approx_auto(inst)
        # One span per call site the benchmark's per-layer metrics read, so
        # a solver that stops calling a patched name fails here.
        names = {span[0] for span in tracer.spans}
        assert {"fpt.solve", "fpt.prune", "approx.solve",
                "treedec.validate", "treedec.decompose",
                "csp.encode", "csp.decode", "dp.solve",
                "graph.verify"} <= names
    finally:
        tracer.restore()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, (owner, attr)
    assert lbcut.solve_fpt is solve_fpt and lbcut.approx_auto is approx_auto
