"""The README's library quick tour runs, and its comments state what it returns."""

import ast
import math
import pathlib

import numpy as np

from graphmetry import TAU_EQ

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first ```python block after the quick-tour heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start : tour.index("```", start)]


def run_statements(source: str) -> tuple[dict, dict[str, object]]:
    """Run ``source`` one statement at a time; return its namespace and the
    value of each bare expression, keyed by that expression's source text."""
    namespace: dict = {}
    values: dict[str, object] = {}
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[segment] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_quick_tour_returns_what_its_comments_state():
    namespace, values = run_statements(quick_tour())
    assert values["t.d[0, 2]"] == 2.0
    assert isinstance(namespace["t"].d, np.ndarray) and namespace["t"].d.shape == (3, 3)
    w = values["geodesic_weight(t)"]
    assert math.isinf(w.weight(0, 2)) and w.weight(0, 1) == 1.0 and w.weight(1, 2) == 1.0
    assert values["geodesic_weight(t, graph=g)"] == w
    r = values["effective_resistance(b, 0, 1)"]
    assert abs(r - 2 / 3) <= TAU_EQ * (2 / 3)
    f = namespace["f"].values
    assert abs((f[1] - f[0]) ** 2 - r) <= TAU_EQ * r
    report = values["check_tree_theorem(b)"]
    assert (report.is_tree, report.metrics_equal) == (False, False)
