"""The benchmark's tracer and ops must find the names they use.

``perfbench/tracing.py`` wraps library functions by name and patches each
graph class's own ``__post_init__``; a refactor that drops a traced name or
moves ``__post_init__`` off a class fails here, not only under ``--trace 1``.
Likewise a deletion of a name the benchmark ops call fails here, not only in
a benchmark run.
"""

import re
import sys
import types
from pathlib import Path

import pytest

import graphmetry
import graphmetry.cli
from graphmetry import ConductanceGraph, WeightedGraph, effective_resistance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_benchmark_names_resolve_on_the_package():
    # Read as text, like the tracer, so no benchmark module is imported.
    text = "".join((PERFBENCH / script).read_text() for script in ("workloads.py", "selftest.py"))
    names = set(re.findall(r"\b(gm|gcli)\.([A-Za-z_]\w*)", text))
    assert ("gcli", "main") in names and ("gm", "extract_common_prefix_path") in names
    modules = {"gm": graphmetry, "gcli": graphmetry.cli}
    missing = sorted(f"{alias}.{name}" for alias, name in names if not hasattr(modules[alias], name))
    assert not missing, missing


def test_benchmark_library_calls_keep_their_shapes():
    # Each library call the benchmark ops make, with the same argument shapes
    # and the result fields their checks read, on a four-cycle with a chord.
    text = "a b 1\nb c 1\nc d 1\nd a 1\na c 3\n"
    g = graphmetry.parse_graph(text)
    found = graphmetry.enumerate_geodesics(g, 0, 2, cap=100)
    assert [p.vertices for p in found.paths] == [(0, 1, 2), (0, 3, 2)] and not found.truncated
    extraction = graphmetry.extract_common_prefix_path(found.paths, g, k=2)
    assert extraction.path.vertices == (0,) and extraction.multiplicities == [2]
    assert extraction.length == 0.0

    b = graphmetry.parse_graph(text, mode="conductance")
    b = graphmetry.ConductanceGraph(b.n, {**b.b, (0, 2): 1.0}, b.labels)  # an edit
    assert b.conductance(0, 2) == 1.0 and b.labels == ("a", "b", "c", "d")
    assert graphmetry.effective_resistance(b, 0, 2) == pytest.approx(0.5)
    f = graphmetry.harmonic_maximizer(b, 0, 2).values
    assert f.tolist() == pytest.approx([0.5**0.5, 0.5**1.5, 0.0, 0.5**1.5])
    report = graphmetry.check_triangle_equality(b, 0, 1, 2)
    assert (report.lhs, report.rhs) == pytest.approx((0.5, 1.25))
    assert not report.equal and not report.separated and report.consistent
    witness = graphmetry.separates(b, 1, 0, 2)
    assert witness.witness.vertices == (0, 2)
    pendant = graphmetry.ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, ("x", "y", "z"))
    cert = graphmetry.separates(pendant, 1, 0, 2)
    assert (cert.separator, cert.side_x, cert.side_z, cert.verified) == (1, [0], [2], True)
