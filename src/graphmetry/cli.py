"""Command-line surface: parse edge lists, run the analyses, print reports.

Commands mirror the library: ``metric``, ``geodesics``, ``geodesic-weight``,
``resistance``, ``characterize``, and ``family``.  Output is deterministic:
``--json`` emits one sorted-key document with floats fixed to 17 significant
digits (``inf`` spelled out, rationals as ``p/q``); otherwise a plain
key-per-line rendering of the same tree.

Exit codes: 0 success, 2 input error (parse/validation, unknown family,
values floats cannot resolve), 3 query error (any other toolkit error:
unknown vertex, unreachable, disconnected, bad pair), 4 cap exceeded (exact
oracles and scans are size-capped), 5 internal invariant breach (a
theorem-backed post-hoc check failed; that is a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

import numpy as np

from . import oracle
from .completeness import FAMILIES, family_ball_scan, family_elf_scan, verify_maximal_weight
from .core import (
    ConductanceGraph,
    Graph,
    WeightedGraph,
    graph_digest,
    invariant_error,
    parse_graph,
    validate,
)
from .errors import GraphmetryError, InputError, InternalInvariantError, OutOfRange, TooLarge
from .pathmetric import (
    all_pairs_metric,
    enumerate_geodesics,
    path_length,
    path_metric,
)
from .resistance import (
    effective_resistance,
    harmonic_maximizer,
    laplacian_apply,
    resistance_matrix,
)
from .structure import (
    check_tree_theorem,
    check_triangle_equality,
    compatible_resistance_weight,
    inverse_conductance_weight,
    is_block_graph,
)

def fmt(value: Any) -> Any:
    """Deterministic scalar formatting: 17-digit floats, inf token, p/q."""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.17g}"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


class Table:
    """A labelled square float matrix in a report.

    Renders byte for byte as the dict of dicts ``{row: {column: fmt(value)}}``
    would, but sorts the labels once and formats each distinct value once: a
    w_delta table has n**2 cells and at most m + 2 distinct values.  Values
    are distinct bitwise, so -0.0 and NaN print exactly as ``fmt`` prints them.
    """

    def __init__(self, labels: Sequence[str], matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.order = sorted(range(len(labels)), key=labels.__getitem__)
        self.names = [labels[i] for i in self.order]

    def rows(self, quote: str = "") -> Iterator[tuple[str, ...]]:
        """Each row's cells as ``fmt(value)`` between ``quote`` marks, rows
        and columns in label order.  A float's spelling never needs JSON
        escaping, so ``quote='"'`` gives its JSON string."""
        bits = np.ascontiguousarray(self.matrix, dtype=np.float64).view(np.int64)
        distinct, codes = np.unique(bits, return_inverse=True)
        codes = codes.reshape(bits.shape)
        values = distinct.view(np.float64)
        template = (quote + "%.17g" + quote + "\0") * len(values)  # split leaves "" last
        spelled = (template % tuple(values.tolist())).split("\0")
        for i in np.flatnonzero(np.isinf(values)).tolist():
            spelled[i] = f"{quote}inf{quote}"  # fmt spells -inf as inf too
        order = np.array(self.order, dtype=np.intp)
        for i in self.order:
            # One row of Python ints at a time keeps the peak memory of a large table down.
            yield tuple(map(spelled.__getitem__, codes[i, order].tolist()))


def _table(g: Graph, matrix: np.ndarray) -> Table:
    return Table([g.label(x) for x in range(g.n)], matrix)


@dataclass
class Report:
    """Structured command output: results tree plus free-form diagnostics."""

    command: str
    input: str
    results: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "input": self.input,
            "results": self.results,
            "diagnostics": self.diagnostics,
        }
        return _json(doc, "\n") + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"input: {self.input}"]
        lines.extend(_render("", self.results))
        for note in self.diagnostics:
            lines.append(f"! {note}")
        return "\n".join(lines) + "\n"


def _json(node: Any, outer: str) -> str:
    """``json.dumps(node, sort_keys=True, indent=2)`` for a node nested in a
    document, ``outer`` being the line break and indent of its closing line.

    The standard encoder with ``indent`` runs in pure Python; a flat dict of
    strings (every table row) goes through the C encoder instead, with the
    line break and indent folded into its item separator.  A :class:`Table`
    is spelled out row by row from its distinct values.  Report keys are
    strings.
    """
    inner = outer + "  "
    if isinstance(node, Table):
        if not node.names:
            return "{}"
        cell = inner + "  "
        keys = [encode_basestring_ascii(name) + ": " for name in node.names]
        # One %-template holds every row's keys and separators; a label's own % is doubled.
        row = "{" + cell + ("," + cell).join(key.replace("%", "%%") + "%s" for key in keys)
        row += inner + "}"
        rows = [key + row % values for key, values in zip(keys, node.rows('"'))]
        return "{" + inner + ("," + inner).join(rows) + outer + "}"
    if isinstance(node, dict) and node:
        if all(isinstance(value, str) for value in node.values()):
            flat = json.dumps(node, sort_keys=True, separators=("," + inner, ": "))
            return "{" + inner + flat[1:-1] + outer + "}"
        items = [
            encode_basestring_ascii(key) + ": " + _json(value, inner)
            for key, value in sorted(node.items())
        ]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    if isinstance(node, list) and node:
        return "[" + inner + ("," + inner).join(_json(item, inner) for item in node) + outer + "]"
    return json.dumps(node)


def _render(prefix: str, node: Any) -> list[str]:
    if isinstance(node, Table):
        lines: list[str] = []
        columns = [f".{name}: " for name in node.names]
        for name, values in zip(node.names, node.rows()):
            head = f"{prefix}.{name}" if prefix else name
            lines.extend([head + column + value for column, value in zip(columns, values)])
        return lines
    if isinstance(node, dict):
        lines = []
        for key in sorted(node):
            child = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_render(child, node[key]))
        return lines
    if isinstance(node, list):
        if all(not isinstance(item, (dict, list)) for item in node):
            return [f"{prefix}: [{', '.join(str(i) for i in node)}]"]
        lines = []
        for i, item in enumerate(node):
            lines.extend(_render(f"{prefix}[{i}]", item))
        return lines
    return [f"{prefix}: {node}"]


def _load(path: str, mode: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return parse_graph(text, mode=mode)


def _weight_graph(args: argparse.Namespace) -> WeightedGraph:
    """Load the file for a metric-flavored command.

    Weight mode reads the values as lengths; conductance mode lifts b to its
    natural length weight 1/b (the tree-theorem comparison weight).
    """
    g = _load(args.file, args.mode)
    if isinstance(g, ConductanceGraph):
        return inverse_conductance_weight(g)
    return g


def _conductance_graph(args: argparse.Namespace) -> ConductanceGraph:
    """Load the file for a resistance-flavored command.

    Conductance mode reads values as conductances; weight mode takes b = 1/w
    on finite-weight pairs (the inverse of the lift above), which must pass
    the checks a parsed conductance graph passes.
    """
    g = _load(args.file, args.mode)
    if isinstance(g, WeightedGraph):
        g = g.reciprocal(ConductanceGraph)
        problems = validate(g)
        if problems:
            raise InputError("as conductances 1/w: " + "; ".join(problems))
    return g


def _exact_text(q: Fraction | None) -> str:
    """An exact oracle value: ``p/q``, or ``inf`` for None."""
    return fmt(q) if q is not None else "inf"


def _oracle_fields(value: float, exact: Fraction | None) -> dict[str, str]:
    """The exact value and its distance from the float one: 0 when both are
    infinite, inf when one is or when the exact value is beyond float range."""
    if exact is None:
        discrepancy = 0.0 if math.isinf(value) else math.inf
    else:
        try:
            discrepancy = abs(value - float(exact))
        except OverflowError:
            discrepancy = math.inf
    return {"oracle": _exact_text(exact), "discrepancy": fmt(discrepancy)}


def _path_text(g, p) -> str:
    return " -> ".join(g.label(v) for v in p)


def cmd_metric(args: argparse.Namespace) -> Report:
    g = _weight_graph(args)
    report = Report("metric", graph_digest(g))
    if args.all_pairs:
        t = all_pairs_metric(g)
        report.results["table"] = _table(g, t.d)
        if args.oracle:
            labels = [g.label(y) for y in range(g.n)]
            report.results["oracle"] = {
                labels[x]: dict(zip(labels, map(_exact_text, oracle.brute_metric_from(g, x))))
                for x in range(g.n)
            }
        return report
    if args.source is None or args.target is None:
        raise InputError("metric needs --source and --target, or --all-pairs")
    x, y = g.resolve(args.source), g.resolve(args.target)
    try:
        d = path_metric(g, x, y)
    except OutOfRange:
        if not args.oracle:
            raise
        d = math.inf  # the oracle fields carry the exact distance and an inf discrepancy
    report.results["distance"] = fmt(d)
    if args.oracle:
        report.results.update(_oracle_fields(d, oracle.brute_metric_from(g, x)[y]))
    return report


def cmd_geodesics(args: argparse.Namespace) -> Report:
    g = _weight_graph(args)
    report = Report("geodesics", graph_digest(g))
    x, y = g.resolve(args.source), g.resolve(args.target)
    found = enumerate_geodesics(g, x, y, cap=args.cap)
    report.results["distance"] = fmt(found.distance)
    report.results["geodesics"] = [
        {"path": _path_text(g, p), "length": fmt(path_length(g, p))} for p in found.paths
    ]
    report.results["truncated"] = found.truncated
    return report


def cmd_geodesic_weight(args: argparse.Namespace) -> Report:
    g = _weight_graph(args)
    report = Report("geodesic-weight", graph_digest(g))
    maximality = verify_maximal_weight(g)
    if not maximality.passed:
        raise invariant_error(g, "geodesic weight failed to generate or dominate; this is a bug")
    report.results["geodesic_weight"] = _table(g, maximality.weight.table)
    report.results["generates"] = maximality.generates
    report.results["dominates"] = maximality.dominates
    report.results["witnesses"] = [
        f"{g.label(u)},{g.label(v)}" for u, v in maximality.witnesses
    ]
    return report


def cmd_resistance(args: argparse.Namespace) -> Report:
    b = _conductance_graph(args)
    report = Report("resistance", graph_digest(b))
    if args.matrix:
        table = resistance_matrix(b)
        problems = table.validate()
        if problems:
            raise invariant_error(
                b, "resistance matrix violates the metric axioms: " + "; ".join(problems)
            )
        report.results["resistance"] = _table(b, table.d)
        if args.oracle:
            report.results["oracle"] = {
                b.label(x): {
                    b.label(y): _exact_text(oracle.spanning_tree_resistance(b, x, y))
                    if x != y else "0/1"
                    for y in range(b.n)
                }
                for x in range(b.n)
            }
        return report
    if not args.pair:
        raise InputError("resistance needs --pair X Y or --matrix")
    x, y = (b.resolve(token) for token in args.pair)
    value = effective_resistance(b, x, y)
    report.results["resistance"] = fmt(value)
    if args.oracle:
        report.results.update(_oracle_fields(value, oracle.spanning_tree_resistance(b, x, y)))
    if args.maximizer:
        f = harmonic_maximizer(b, x, y)
        residual = max(
            (abs(laplacian_apply(b, f, v)) for v in range(b.n) if v not in (x, y)),
            default=0.0,
        )
        report.results["maximizer"] = {
            "potential": {b.label(v): fmt(f[v]) for v in range(b.n)},
            "residual": fmt(residual),
            "gap_squared": fmt((f[y] - f[x]) ** 2),
        }
    return report


def cmd_characterize(args: argparse.Namespace) -> Report:
    b = _conductance_graph(args)
    report = Report("characterize", graph_digest(b))
    if not (args.tree or args.block or args.triangle):
        raise InputError("characterize needs --tree, --block, or --triangle X Y Z")
    if args.tree:
        tree = check_tree_theorem(b)
        report.results["tree"] = {
            "is_tree": tree.is_tree,
            "metrics_equal": tree.metrics_equal,
            "consistent": tree.consistent,
        }
        if not tree.consistent:
            raise invariant_error(b, "tree theorem inconsistency; this is a bug")
    if args.block:
        blocky, offender = is_block_graph(b)
        cert = compatible_resistance_weight(b)
        block_result: dict[str, Any] = {
            "is_block_graph": blocky,
            "verdict": cert.verdict,
        }
        if offender is not None:
            block_result["offending_block"] = [b.label(v) for v in offender]
        if cert.weight is not None:
            block_result["certificate"] = {
                f"{b.label(u)},{b.label(v)}": fmt(w)
                for (u, v), w in sorted(cert.weight.weights.items())
            }
        if cert.counterexample is not None:
            u, v = cert.counterexample
            block_result["counterexample"] = f"{b.label(u)},{b.label(v)}"
        report.results["block"] = block_result
        if blocky != cert.compatible:
            raise invariant_error(b, "block-graph theorem inconsistency; this is a bug")
    if args.triangle:
        x, y, z = (b.resolve(token) for token in args.triangle)
        tri = check_triangle_equality(b, x, y, z)
        sep = tri.separation
        tri_result: dict[str, Any] = {
            "lhs": fmt(tri.lhs),
            "rhs": fmt(tri.rhs),
            "equal": tri.equal,
            "separated": tri.separated,
            "consistent": tri.consistent,
        }
        if hasattr(sep, "witness"):
            tri_result["witness"] = _path_text(b, sep.witness)
        elif not sep.verified:
            raise invariant_error(b, "separation certificate fails its own check; this is a bug")
        else:
            tri_result["certificate"] = {
                "separator": b.label(sep.separator),
                "side_x": [b.label(v) for v in sep.side_x],
                "side_z": [b.label(v) for v in sep.side_z],
                "verified": sep.verified,
            }
        report.results["triangle"] = tri_result
        if not tri.consistent:
            raise invariant_error(b, "triangle equality inconsistency; this is a bug")
    return report


def cmd_family(args: argparse.Namespace) -> Report:
    if args.name not in FAMILIES:
        raise InputError(
            f"unknown family {args.name!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    fam = FAMILIES[args.name]
    report = Report("family", args.name)
    if args.scan == "ball":
        scan = family_ball_scan(fam, args.center, args.radius, args.budget, args.threshold)
        report.results["scan"] = {
            "kind": "ball",
            "center": fam.describe(scan.center),
            "radius": fmt(scan.radius),
            "found": scan.found,
            "budget": scan.budget,
            "verdict": scan.verdict,
        }
    else:
        scan = family_elf_scan(fam, args.center, args.radius, args.budget, args.threshold)
        report.results["scan"] = {
            "kind": "elf",
            "vertex": fam.describe(scan.vertex),
            "radius": fmt(scan.radius),
            "count": scan.count,
            "exhausted": False,  # families are infinite
            "verdict": scan.verdict,
        }
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="graphmetry",
        description="Path metrics, geodesic weights, and resistance metrics "
        "on finite weighted graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p: argparse.ArgumentParser, default_mode: str) -> None:
        p.add_argument("file", help="edge-list file")
        p.add_argument(
            "--mode",
            choices=("weight", "conductance"),
            default=default_mode,
            help=f"how to read the values (default: {default_mode})",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("metric", help="shortest-path pseudo metric")
    add_common(p, "weight")
    p.add_argument("--source", help="source vertex label")
    p.add_argument("--target", help="target vertex label")
    p.add_argument("--all-pairs", action="store_true", help="full distance table")
    p.add_argument("--oracle", action="store_true", help="exact rational cross-check")
    p.set_defaults(run=cmd_metric)

    p = sub.add_parser("geodesics", help="enumerate shortest paths")
    add_common(p, "weight")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--cap", type=int, default=64, help="maximum geodesics to list")
    p.set_defaults(run=cmd_geodesics)

    p = sub.add_parser("geodesic-weight", help="w_delta table and maximality report")
    add_common(p, "weight")
    p.set_defaults(run=cmd_geodesic_weight)

    p = sub.add_parser("resistance", help="effective resistance")
    add_common(p, "conductance")
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"), help="vertex pair")
    p.add_argument("--matrix", action="store_true", help="all-pairs resistance")
    p.add_argument("--oracle", action="store_true", help="exact spanning-tree cross-check")
    p.add_argument("--maximizer", action="store_true", help="print the harmonic maximizer")
    p.set_defaults(run=cmd_resistance)

    p = sub.add_parser("characterize", help="tree / block-graph / triangle checks")
    add_common(p, "conductance")
    p.add_argument("--tree", action="store_true", help="tree theorem check")
    p.add_argument("--block", action="store_true", help="block-graph compatibility check")
    p.add_argument("--triangle", nargs=3, metavar=("X", "Y", "Z"), help="triangle equality at (x, y, z)")
    p.set_defaults(run=cmd_characterize)

    p = sub.add_parser("family", help="budgeted scans of builtin infinite families")
    p.add_argument("name", help="family name: " + ", ".join(sorted(FAMILIES)))
    p.add_argument("--mode", dest="scan", choices=("ball", "elf"), default="ball")
    p.add_argument("--center", type=int, default=0, help="center/base vertex index")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_family)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except GraphmetryError as exc:  # a well-formed query with no answer
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
