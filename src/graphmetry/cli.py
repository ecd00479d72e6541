"""Command-line surface: parse edge lists, run the analyses, print reports.

Commands mirror the library: ``metric``, ``geodesics``, ``geodesic-weight``,
``resistance``, ``characterize``, and ``family``.  Output is deterministic:
``--json`` emits one sorted-key document with floats fixed to 17 significant
digits (``inf`` spelled out, rationals as ``p/q``); otherwise a plain
key-per-line rendering of the same tree.  Both stream by table row blocks.

Exit codes: 0 success (also when the reader closes the pipe early), 1 output
not written (a full device, a label the output encoding cannot spell), 2
input error (parse/validation, unknown family, values floats cannot resolve),
3 query error (any other toolkit error: unknown vertex, unreachable,
disconnected, bad pair), 4 cap exceeded (exact oracles and scans are
size-capped), 5 internal invariant breach (a theorem-backed post-hoc check
failed; that is a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
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
    G,
    Graph,
    WeightedGraph,
    graph_digest,
    invariant_error,
    parse_graph,
)
from .errors import GraphmetryError, InputError, InternalInvariantError, OutOfRange, TooLarge
from .pathmetric import (
    all_pairs_metric,
    enumerate_geodesics,
    path_length,
    path_metric,
)
from .resistance import effective_resistance, harmonic_maximizer, laplacian, resistance_matrix
from .structure import (
    check_tree_theorem,
    check_triangle_equality,
    compatible_resistance_weight,
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
    would, with no Python step per cell, one row block at a time: the labels
    are sorted once; in each block each distinct value (bitwise, so -0.0 and
    NaN print as ``fmt`` prints them) is spelled once, and the cells index
    into those spellings.  A block's values in ``%.17g``'s fixed-notation
    range get their exact 17 digits from array arithmetic (:func:`_fixed_17g`)
    when there are enough of them; every other value goes through ``%``
    itself.  Both routes give ``%.17g``'s bytes.
    """

    def __init__(self, labels: Sequence[str], matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.order = sorted(range(len(labels)), key=labels.__getitem__)
        self.names = [labels[i] for i in self.order]

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Row blocks of about 2**16 cells (one block up to n = 256), so only
        one block's spellings are alive at a time: each block's slice of rows
        and its cells, ``fmt(value)``, in label order.  A float's spelling
        never needs JSON escaping."""
        n = len(self.order)
        matrix = np.asarray(self.matrix, dtype=np.float64)
        step = max(1, 2**16 // max(n, 1))  # rows per block
        for start in range(0, n, step):
            rows = slice(start, start + step)
            yield rows, _spell(matrix[np.ix_(self.order[rows], self.order)].view(np.int64))


# The doubles nearest 1e-4, 1e-3, ..., 1e17.  None lies below its power of
# ten, so a double x is in decade X (10**X <= x < 10**(X+1)) exactly when it
# lies between _DECADES[X + 4] and _DECADES[X + 5].
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 18)])
# ``%.17g`` writes x in fixed notation when 1e-4 <= x < 1e17 (no double below
# 1e-4 rounds up to it in 17 digits): the positive floats whose bits lie in
# [_FIXED_BITS[0], _FIXED_BITS[1]).
_FIXED_BITS = _DECADES[[0, -1]].view(np.int64)
# The kernel's fixed cost (about 60 us) beats ``%`` (about 0.5 us a value)
# from about 200 such values (best of 300 runs, 2-vCPU x86 VM); below this
# many, ``%`` spells them all.
_KERNEL_MIN = 300
_POW10 = np.array([float(10**k) for k in range(21)])  # exact: 10**k for k <= 22


@functools.cache
def _chunk_words() -> np.ndarray:
    """The ASCII of each 4-digit chunk 0000..9999 as one little-endian word,
    then again with the chunk's trailing zeros as NUL bytes; built on the
    kernel's first use, so small tables never pay for it."""
    i = np.arange(10000, dtype=np.uint32)
    plain = stripped = np.uint32(0)
    for k in range(4):  # k = 0 is the leading digit, the word's first byte
        char = (i // 10 ** (3 - k) % 10 + 48) << np.uint32(8 * k)
        plain = plain + char
        stripped = stripped + np.where(i % 10 ** (4 - k) == 0, 0, char)  # zeros from k on
    words = np.concatenate((plain, stripped)).astype("<u4")  # bytes in reading order
    words.flags.writeable = False
    return words


def _spell(bits: np.ndarray) -> np.ndarray:
    """``fmt`` of each float whose int64 bits are in ``bits``, as an object
    array of the same shape; each distinct value is spelled once.

    The distinct bits in ascending order put the positive floats in
    ascending order, so the values in fixed-notation range are one slice;
    when it holds at least ``_KERNEL_MIN`` values, :func:`_fixed_17g` spells
    it.  The rest (zeros, negatives, subnormals, tiny and huge values, inf,
    NaN) go through one ``%`` template, which gives the same bytes.
    """
    distinct, codes = np.unique(bits, return_inverse=True)
    values = distinct.view(np.float64)
    lo, hi = np.searchsorted(distinct, _FIXED_BITS).tolist()
    if hi - lo < _KERNEL_MIN:
        lo = hi = 0
    rest = values[:lo].tolist() + values[hi:].tolist()
    spelled = np.array(("%.17g\0" * len(rest) % tuple(rest)).split("\0"), dtype=object)  # "" last
    if hi > lo:
        spelled = np.insert(spelled, lo, _fixed_17g(values[lo:hi]))
    spelled[np.flatnonzero(np.isinf(values))] = "inf"  # fmt spells -inf as inf too
    return spelled[codes.reshape(bits.shape)]


def _fixed_17g(v: np.ndarray) -> list[str]:
    """``'%.17g' % x`` for each x of ``v``, ascending floats in [1e-4, 1e17).

    For x in decade X, the 17 digits are N = round(x * 10**p), half to
    even, with p = 16 - X, so that x * 10**p lies in [1e16, 1e17).  Dekker's
    product t + e = x * 10**p, with Veltkamp's 2**27 + 1 split, is exact
    (10**p is exact for p <= 22), and t >= 1e16 > 2**53 is an even integer,
    so N = t + rint(e) rounds as ``%`` does.  N never reaches 10**17: that
    takes an x within 5e-18 (relative) below a power of ten, and the double
    below each power of ten in range is more than 5e-17 below it.  Fixed
    notation then places the point by X; the values are ascending, so each
    decade is one run of rows.
    """
    starts = np.searchsorted(v, _DECADES).tolist()  # where each decade's run starts
    s = _POW10[np.repeat(np.arange(20, -1, -1), np.diff(starts))]
    t = v * s
    c = 134217729.0 * v
    vh = c - (c - v)
    vl = v - vh
    c = 134217729.0 * s
    sh = c - (c - s)
    sl = s - sh
    e = ((vh * sh - t) + vh * sl + vl * sh) + vl * sl
    N = t.astype(np.int64) + np.rint(e).astype(np.int64)
    del s, t, c, vh, vl, sh, sl, e  # a large block's render peaks below: free these first
    # Five chunks of N (1 + 4 * 4 digits) to their ASCII words; a chunk with
    # only zero chunks after it takes the word with its trailing zeros as NULs.
    hi, lo = np.divmod(N, 10**8)
    chunks = np.empty((len(N), 5), np.uint32)
    chunks[:, 0], rest = np.divmod(hi.astype(np.uint32), 10**8)
    chunks[:, 1], chunks[:, 2] = np.divmod(rest, 10**4)
    chunks[:, 3], chunks[:, 4] = np.divmod(lo.astype(np.uint32), 10**4)
    last = np.ones((len(N), 5), bool)
    for j in (3, 2, 1, 0):
        np.logical_and(last[:, j + 1], chunks[:, j + 1] == 0, out=last[:, j])
    chunks += last * np.uint32(10000)
    digits = _chunk_words()[chunks].view(np.uint8)[:, 3:]  # (len, 17), past chunk 0's "000"
    del N, hi, lo, rest, chunks, last
    # Lay each row out in fixed notation; the NULs (stripped zeros, padding)
    # drop out when the rows are joined, and a point with no digit after it
    # is a NUL too.  A row holds at most 22 characters ("0.000" and 17
    # digits); the last column ends it.
    out = np.zeros((len(digits), 23), np.uint8)
    for x, a, b in zip(range(-4, 17), starts, starts[1:]):
        if a == b:
            continue
        if x >= 0:
            np.maximum(digits[a:b, : x + 1], 48, out=out[a:b, : x + 1])  # integer zeros stay
            if x < 16:
                out[a:b, x + 1] = np.minimum(digits[a:b, x + 1], 1) * 46
                out[a:b, x + 2 : 18] = digits[a:b, x + 1 :]
        else:
            head = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            out[a:b, : len(head)] = head
            out[a:b, len(head) : len(head) + 17] = digits[a:b]
    out[:, -1] = 10
    return out[out != 0].tobytes().decode("ascii").split("\n")[:-1]


def _table(g: Graph, matrix: np.ndarray) -> Table:
    return Table([g.label(x) for x in range(g.n)], matrix)


@dataclass
class Report:
    """Structured command output: results tree plus free-form diagnostics."""

    command: str
    input: str
    results: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def chunks(self, as_json: bool) -> Iterator[str]:
        """The JSON or text rendering in pieces to write one by one, so no
        whole-document string is built: a piece of 2**12 characters or more (a
        large :class:`Table`'s row block) comes alone, a run of smaller ones joined."""
        if as_json:
            pieces = itertools.chain(_json(vars(self), "\n"), ["\n"])  # the four fields, keys sorted
        else:
            notes = [f"! {note}\n" for note in self.diagnostics]
            pieces = itertools.chain([f"command: {self.command}\ninput: {self.input}\n"], _render("", self.results), notes)
        for large, run in itertools.groupby(pieces, key=lambda piece: len(piece) >= 2**12):
            yield from run if large else ["".join(run)]

    def to_json(self) -> str:
        return "".join(self.chunks(as_json=True))

    def to_text(self) -> str:
        return "".join(self.chunks(as_json=False))


def _json(node: Any, outer: str) -> Iterator[str]:
    """``json.dumps(node, sort_keys=True, indent=2)`` in pieces, for a node
    nested in a document, ``outer`` being the line break and indent of its
    closing line.

    The standard encoder with ``indent`` runs in pure Python; a dict or list
    of strings, numbers and booleans goes through the C encoder instead, as
    one piece, with the line break and indent folded into its item
    separator.  A :class:`Table` is one piece per row block, joined from its
    cells, each cell between the quote marks that end the piece before it and
    start the piece after it.  Report keys are strings.
    """
    inner = outer + "  "
    keyed = isinstance(node, dict)
    if isinstance(node, Table) and node.names:
        cell = inner + "  "
        keys = [encode_basestring_ascii(name) + ": " for name in node.names]
        heads = [("," if i else "{") + inner + key + "{" for i, key in enumerate(keys)]
        columns = [('",' if j else "") + cell + key + '"' for j, key in enumerate(keys)]
        for rows, cells in node.blocks():
            # A row reads: its head, then each column's key before that column's cell, then "}".
            pieces = np.empty((len(cells), 2 * len(keys) + 2), dtype=object)
            pieces[:, 0] = heads[rows]
            pieces[:, 1:-1:2] = columns
            pieces[:, 2:-1:2] = cells
            pieces[:, -1] = '"' + inner + "}"
            yield "".join(pieces.ravel().tolist())
        yield outer + "}"
    elif not isinstance(node, (dict, list)) or not node:
        yield "{}" if isinstance(node, Table) else json.dumps(node)
    elif all(isinstance(value, (str, int, float)) for value in (node.values() if keyed else node)):
        flat = json.dumps(node, sort_keys=True, separators=("," + inner, ": "))
        yield flat[0] + inner + flat[1:-1] + outer + flat[-1]
    else:
        opening, closing = "{}" if keyed else "[]"
        for i, (key, value) in enumerate(sorted(node.items()) if keyed else enumerate(node)):
            yield ("," if i else opening) + inner + (encode_basestring_ascii(key) + ": " if keyed else "")
            yield from _json(value, inner)
        yield outer + closing


def _render(prefix: str, node: Any) -> Iterator[str]:
    """The text rendering in pieces, each line with its line break: one piece
    per line, and one per :class:`Table` row block."""
    if isinstance(node, Table):
        heads = np.array([f"{prefix}.{name}" if prefix else name for name in node.names], dtype=object)
        columns = np.array([f".{name}: " for name in node.names], dtype=object)
        for rows, cells in node.blocks():
            yield "\n".join((np.add.outer(heads[rows], columns) + cells).ravel().tolist()) + "\n"
    elif isinstance(node, dict):
        for key in sorted(node):
            child, value = f"{prefix}.{key}" if prefix else str(key), node[key]
            if isinstance(value, (Table, dict, list)):
                yield from _render(child, value)
            else:
                yield f"{child}: {value}\n"  # a scalar line, with no generator of its own
    elif isinstance(node, list) and any(isinstance(item, (dict, list)) for item in node):
        for i, item in enumerate(node):
            yield from _render(f"{prefix}[{i}]", item)
    else:
        yield f"{prefix}: [{', '.join(map(str, node))}]\n" if isinstance(node, list) else f"{prefix}: {node}\n"


def _graph(args: argparse.Namespace, kind: type[G]) -> G:
    """Load the file as a ``kind`` graph.

    A file read in the other mode is lifted by 1/x, under the rules of a
    parsed graph: a conductance b to its natural length weight 1/b (the
    tree-theorem comparison weight), a weight w to the conductance 1/w on
    its finite-weight pairs.
    """
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    g = parse_graph(text, mode=args.mode)
    return g if isinstance(g, kind) else g.reciprocal(kind)


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
    g = _graph(args, WeightedGraph)
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
    g = _graph(args, WeightedGraph)
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
    g = _graph(args, WeightedGraph)
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
    b = _graph(args, ConductanceGraph)
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
            exact = {(x, x): "0/1" for x in range(b.n)}
            for x, y in itertools.combinations(range(b.n), 2):  # R is symmetric: one call per pair
                exact[x, y] = exact[y, x] = _exact_text(oracle.spanning_tree_resistance(b, x, y))
            report.results["oracle"] = {
                b.label(x): {b.label(y): exact[x, y] for y in range(b.n)} for x in range(b.n)
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
        potential = harmonic_maximizer(b, x, y).values
        residual = max(np.delete(np.abs(laplacian(b, potential)), [x, y]).tolist(), default=0.0)
        f = potential.tolist()
        report.results["maximizer"] = {
            "potential": {b.label(v): fmt(f[v]) for v in range(b.n)},
            "residual": fmt(residual),
            "gap_squared": fmt((f[y] - f[x]) ** 2),
        }
    return report


def cmd_characterize(args: argparse.Namespace) -> Report:
    b = _graph(args, ConductanceGraph)
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


# The first matching kind sets the exit code; any other toolkit error is a
# well-formed query with no answer.
EXIT_CODES = ((InputError, 2), (TooLarge, 4), (InternalInvariantError, 5), (GraphmetryError, 3))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except GraphmetryError as exc:
        code = next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
        print(f"{'internal error' if code == 5 else 'error'}: {exc}", file=sys.stderr)
        return code
    try:
        sys.stdout.writelines(report.chunks(args.json))  # each chunk written as it is made
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit's flush cannot fail again
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader stopped early: not an error
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
