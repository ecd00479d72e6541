"""Layer spans recorded from outside the program.

``install`` wraps the public functions of each graphmetry module and rebinds
the wrapper under every module attribute that held the original, so a call
through ``graphmetry.cli.all_pairs_metric`` is caught as well as one through
``graphmetry.pathmetric.all_pairs_metric`` (and, by module-global lookup,
calls made inside the defining module).  Methods are patched on their class.
Private helpers are not wrapped.

Spans stay in memory until ``summary``: each holds its name, start, end,
parent span and op id.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time

# Span names are "<layer>.<function>"; the layer is the defining module.
FUNCTIONS = {
    "core": ("parse_graph", "validate", "graph_digest"),
    "pathmetric": (
        "all_pairs_metric",
        "geodesic_weight",
        "is_generating",
        "enumerate_geodesics",
        "single_source_distances",
        "path_metric",
    ),
    "resistance": (
        "laplacian_matrix",
        "components",
        "resistance_matrix",
        "effective_resistance",
        "harmonic_maximizer",
        "laplacian_apply",
    ),
    "structure": (
        "separates",
        "check_triangle_equality",
        "check_tree_theorem",
        "compatible_resistance_weight",
        "is_block_graph",
        "biconnected_components",
        "inverse_conductance_weight",
        "is_tree",
    ),
    "completeness": (
        "verify_maximal_weight",
        "family_ball_scan",
        "family_elf_scan",
        "extract_common_prefix_path",
    ),
    "oracle": ("brute_metric_from", "brute_metric", "spanning_tree_resistance"),
    "cli": ("main",),
}
# (module, class, method, span name)
METHODS = (
    ("core", "WeightedGraph", "__post_init__", "core.graph_build"),
    ("core", "ConductanceGraph", "__post_init__", "core.graph_build"),
    ("pathmetric", "MetricTable", "validate", "pathmetric.validate"),
    ("cli", "Report", "to_json", "cli.Report.to_json"),
    ("cli", "Report", "to_text", "cli.Report.to_text"),
)
# Calls that ask the resistance layer for R (the base of builds per query).
RESISTANCE_QUERIES = (
    "resistance.effective_resistance",
    "resistance.harmonic_maximizer",
    "resistance.resistance_matrix",
)


S, CALLS = "s/op", "calls/op"
# The per-layer metrics a traced run reports: (name, unit, better).  Names
# a run never reached read 0.
REPORTED = tuple(
    (name, unit, "lower")
    for name, unit in (
        ("core.parse_graph.calls_per_op", CALLS),
        ("core.parse_graph.self_s_per_op", S),
        ("core.graph_digest.self_s_per_op", S),
        ("core.graph_build.calls_per_op", CALLS),
        ("core.graph_build.self_s_per_op", S),
        ("pathmetric.all_pairs_metric.calls_per_op", CALLS),
        ("pathmetric.all_pairs_metric.self_s_per_op", S),
        ("pathmetric.geodesic_weight.calls_per_op", CALLS),
        ("pathmetric.geodesic_weight.self_s_per_op", S),
        ("pathmetric.is_generating.self_s_per_op", S),
        ("pathmetric.validate.self_s_per_op", S),
        ("pathmetric.enumerate_geodesics.self_s_per_op", S),
        ("pathmetric.single_source_distances.calls_per_op", CALLS),
        ("pathmetric.single_source_distances.self_s_per_op", S),
        ("resistance.laplacian_matrix.calls_per_op", CALLS),
        ("resistance.laplacian_matrix.self_s_per_op", S),
        ("resistance.components.calls_per_op", CALLS),
        ("resistance.components.self_s_per_op", S),
        ("resistance.laplacian_builds_per_query", "builds/query"),
        ("resistance.resistance_matrix.calls_per_op", CALLS),
        ("resistance.resistance_matrix.self_s_per_op", S),
        ("resistance.effective_resistance.self_s_per_op", S),
        ("resistance.harmonic_maximizer.self_s_per_op", S),
        ("resistance.laplacian_apply.calls_per_op", CALLS),
        ("structure.separates.calls_per_op", CALLS),
        ("structure.separates.self_s_per_op", S),
        ("structure.check_triangle_equality.self_s_per_op", S),
        ("structure.check_tree_theorem.self_s_per_op", S),
        ("structure.compatible_resistance_weight.self_s_per_op", S),
        ("structure.is_block_graph.self_s_per_op", S),
        ("completeness.verify_maximal_weight.self_s_per_op", S),
        ("completeness.family_ball_scan.self_s_per_op", S),
        ("completeness.family_elf_scan.self_s_per_op", S),
        ("completeness.extract_common_prefix_path.self_s_per_op", S),
        ("oracle.brute_metric_from.self_s_per_op", S),
        ("oracle.spanning_tree_resistance.calls_per_op", CALLS),
        ("oracle.spanning_tree_resistance.self_s_per_op", S),
        ("cli.main.self_s_per_op", S),
        ("cli.Report.to_json.self_s_per_op", S),
        ("cli.output_bytes_per_op", "bytes/op"),
        *((f"{layer}.self_s_per_op", S) for layer in FUNCTIONS),
        ("trace.overhead_ratio", "ratio"),
    )
)


class Tracer:
    """In-memory span store plus the wrapper installation."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.enter("op")

    def end_op(self) -> None:
        self.exit()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "graphmetry" or key.startswith("graphmetry.")]
        for layer, names in FUNCTIONS.items():
            defining = sys.modules[f"graphmetry.{layer}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"graphmetry.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summary ------------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op calls and self seconds per span name, plus per-layer totals."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == "op":
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children[i]
        out: dict[str, float] = {name: 0.0 for name, _, _ in REPORTED}
        for name in sorted(calls):
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_s_per_op"] = self_s[name] / ops
        for layer in FUNCTIONS:
            out[f"{layer}.self_s_per_op"] = sum(
                s for name, s in self_s.items() if name.startswith(layer + ".")
            ) / ops
        queries = sum(calls.get(name, 0) for name in RESISTANCE_QUERIES)
        builds = calls.get("resistance.laplacian_matrix", 0)
        out["resistance.laplacian_builds_per_query"] = builds / queries if queries else 0.0
        return out
