"""The benchmark's tracer must install on the current program.

``perfbench/tracing.py`` wraps library functions by name and patches each
graph class's own ``__post_init__``; a refactor that drops a traced name or
moves ``__post_init__`` off a class fails here, not only under ``--trace 1``.
"""

import sys
import types
from pathlib import Path

import pytest

import graphmetry
import graphmetry.cli
from graphmetry import ConductanceGraph, WeightedGraph, effective_resistance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    # compile + exec rather than an import, so no bytecode cache is written
    # next to the benchmark's sources.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    modules = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "graphmetry" or name.startswith("graphmetry.")
    }
    builds = {cls: cls.__dict__["__post_init__"] for cls in (WeightedGraph, ConductanceGraph)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        WeightedGraph(2, {(0, 1): 1.0})
        b = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
        assert graphmetry.effective_resistance(b, 0, 2) == pytest.approx(1.5)
        tracer.end_op()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("core.graph_build") == 2
    assert "resistance.effective_resistance" in names
    for cls, original in builds.items():
        assert cls.__dict__["__post_init__"] is original
    for name, before in modules.items():
        assert dict(vars(sys.modules[name])) == before, name
    assert graphmetry.effective_resistance is effective_resistance
