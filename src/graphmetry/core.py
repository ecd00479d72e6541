"""Core graph types, edge-list parsing, validation, and canonical serialization.

The toolkit works with two readings of one structure, a :class:`Graph`:
a finite vertex set ``0 .. n-1`` with a stored value per vertex pair.

* :class:`WeightedGraph` carries a symmetric weight in ``[0, inf]`` per
  vertex pair; an absent entry means ``inf`` (no finite connection).
  Weights are lengths and induce the shortest-path pseudo metric.
* :class:`ConductanceGraph` carries a symmetric finite conductance per
  pair; an absent entry means ``0`` (no edge).  Conductances define the
  energy form and the resistance metric.

Extended weights are plain ``float`` values with ``math.inf`` as the
distinguished infinity; this gives the required total order and absorbing
addition for free.  Exact rational shadows of parsed decimal values are
kept alongside the float pipeline so the brute-force oracles never
inherit rounding error.

The base class holds what the two share: neighbour lists, breadth-first
reach and components, label resolution, and the reciprocal 1/x that turns
one reading into the other.  Both graph classes are immutable after
construction and safe to read from any number of concurrent workers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, TypeVar

import numpy as np

from .errors import (
    AsymmetryError,
    DiagonalError,
    GraphmetryError,
    InputError,
    InternalInvariantError,
    InvalidArgument,
    NegativeWeightError,
    OutOfRange,
    ParseError,
    UnknownVertex,
)

if TYPE_CHECKING:
    from .resistance import _GroundedSystem

INFINITY: float = math.inf

# Relative tolerance between the results of two different algorithms
# (metric entries, resistances).  Sums of the same path terms compare within
# their rounding bound instead (pathmetric._sum_slack).
TAU_EQ: float = 1e-9

VertexId = int


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered key for a vertex pair."""
    return (u, v) if u <= v else (v, u)


def weights_close(a: float, b: float) -> bool:
    """Equality of extended weights: exact at infinity, relative otherwise.

    Finite values agree within ``TAU_EQ`` times the larger magnitude, with no
    absolute floor, so scaling both by the same power of two keeps the
    answer (short of underflow).
    """
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TAU_EQ * max(abs(a), abs(b))


def weights_close_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise :func:`weights_close`; inf - inf NaNs fall to the exact test."""
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= TAU_EQ * np.maximum(np.abs(a), np.abs(b))
    return np.where(np.isinf(a) | np.isinf(b), a == b, near)


@dataclass(frozen=True)
class Path:
    """Injective finite vertex sequence with at least one entry."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) == 0:
            raise ValueError("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"path vertices must be pairwise distinct: {self.vertices}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def steps(self) -> Iterator[tuple[int, int]]:
        """Consecutive vertex pairs along the path."""
        return zip(self.vertices[:-1], self.vertices[1:])


def _canonical_map(
    n: int,
    raw: Mapping[tuple[int, int], float],
    drop_value: float,
) -> dict[tuple[int, int], float]:
    """Normalize pair keys, merge symmetric duplicates, drop default entries."""
    for u, v in raw:
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"vertex pair ({u}, {v}) out of range for {n} vertices")
    out: dict[tuple[int, int], float] = {}
    for (u, v), value in raw.items():
        value = float(value)
        key = edge_key(u, v)
        if key in out and out[key] != value and not (math.isnan(out[key]) and math.isnan(value)):
            raise AsymmetryError(
                f"conflicting values for pair {key}: {out[key]} vs {value}"
            )
        out[key] = value
    return dict(sorted((k, w) for k, w in out.items() if w != drop_value or k[0] == k[1]))


class Graph:
    """Finite vertex set ``0 .. n-1`` with one stored value per unordered pair.

    The two subclasses read the same structure two ways: a
    :class:`WeightedGraph` value is a length (absent pair: ``INFINITY``), a
    :class:`ConductanceGraph` value a conductance (absent pair: 0).  Each
    names its stored pairs (``weights``, ``b``) and keeps them, like
    ``exact``, under canonical ``(min, max)`` keys.
    """

    n: int
    labels: tuple[str, ...] | None
    exact: dict[tuple[int, int], Fraction]
    _absent: float  # the value of a pair with no stored entry
    _pairs: dict[tuple[int, int], float]  # the subclass's stored pairs
    _adj: list[list[tuple[int, float]]] | None

    def _store(self, raw: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
        """Check n and the labels, normalize the pairs and ``exact``; return the pairs."""
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label table size must equal the vertex count")
        self._pairs = _canonical_map(self.n, raw, drop_value=self._absent)
        self.exact = {edge_key(u, v): q for (u, v), q in self.exact.items()}
        self._adj = None
        return self._pairs

    def _value(self, u: int, v: int) -> float:
        """The value of pair (u, v): zero on the diagonal, ``_absent`` when none is stored."""
        if u == v:
            self._check_vertex(u)
            return 0.0
        self._check_vertex(u)
        self._check_vertex(v)
        # edge_key inlined: weight and conductance sit in hot loops
        return self._pairs.get((u, v) if u <= v else (v, u), self._absent)

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        """Stored partners of ``u`` with their values, in ascending vertex order."""
        if self._adj is None:
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
            for (a, c), w in self._pairs.items():
                if a == c:
                    continue
                adj[a].append((c, w))
                adj[c].append((a, w))
            for lst in adj:
                lst.sort()
            self._adj = adj
        self._check_vertex(u)
        return self._adj[u]

    def reach(self, start: int, banned: int | None = None, stop: int | None = None) -> dict[int, int]:
        """Breadth-first search from ``start`` in the graph minus ``banned``.

        Returns each reached vertex's parent (``start`` is its own), keyed in
        visiting order; neighbours are visited in ascending order.  Every
        stored pair is an edge, whatever its value.  The search ends as soon
        as it reaches ``stop``; every parent on the route to ``stop`` is set
        by then, so that route is the one the full search would record.
        """
        self.neighbors(start)  # checks start and builds the adjacency lists
        adj = self._adj
        parent = {start: start}
        if start == stop:
            return parent
        queue = [start]
        for u in queue:  # the list grows as it is read: first in, first out
            for v, _ in adj[u]:
                if v != banned and v not in parent:
                    parent[v] = u
                    if v == stop:
                        return parent
                    queue.append(v)
        return parent

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by least vertex."""
        out: list[list[int]] = []
        seen: set[int] = set()
        for s in range(self.n):
            if s not in seen:
                out.append(sorted(self.reach(s)))
                seen.update(out[-1])
        return out

    def reciprocal(self, kind: type[G]) -> G:
        """A ``kind`` graph with value 1/x on every stored pair x of this one.

        Lifts a conductance to its length 1/b and back; exact shadows carry
        over as exact reciprocals.  Raises InputError when a reciprocal is
        outside float range (a subnormal value overflows 1/x).
        """
        values = {key: 1.0 / x for key, x in self._pairs.items() if key[0] != key[1]}
        for (u, v), y in values.items():
            if not math.isfinite(y):
                raise InputError(
                    f"1/{self._pairs[u, v]!r} on ({self.label(u)}, {self.label(v)}) "
                    "is outside float range"
                )
        exact = {key: 1 / self.exact[key] for key in values if key in self.exact}
        return kind(self.n, values, self.labels, exact)

    def label(self, u: int) -> str:
        self._check_vertex(u)
        return self.labels[u] if self.labels is not None else str(u)

    def resolve(self, token: str | int) -> int:
        """Vertex id of a label or index token.

        An ``int`` is always an index.  A string is a label on a labelled
        graph and nothing else, so on the labelled graph ``a b 1 / b c 1``
        the token ``"2"`` is unknown rather than vertex ``c``; only an
        unlabelled graph reads a string of ASCII digits as an index.
        """
        if isinstance(token, int):
            self._check_vertex(token)
            return token
        if self.labels is not None:
            if token in self.labels:
                return self.labels.index(token)
        elif token.isascii() and token.isdigit():
            u = int(token)
            self._check_vertex(u)
            return u
        raise UnknownVertex(f"unknown vertex {token!r}")

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise UnknownVertex(f"vertex {u} out of range for {self.n} vertices")


G = TypeVar("G", bound=Graph)


@dataclass
class WeightedGraph(Graph):
    """Finite vertex set with a symmetric extended weight per pair.

    ``weights`` holds finite entries under canonical ``(min, max)`` keys;
    an absent off-diagonal pair has weight ``INFINITY``.  ``exact`` is an
    optional rational shadow of parsed decimal values, consumed by the
    oracle module and ignored by equality.
    """

    n: int
    weights: dict[tuple[int, int], float]
    labels: tuple[str, ...] | None = None
    exact: dict[tuple[int, int], Fraction] = field(
        default_factory=dict, compare=False, repr=False
    )
    _absent = INFINITY

    def __post_init__(self) -> None:
        self.weights = self._store(self.weights)

    weight = Graph._value  # w(u, v): zero on the diagonal, INFINITY when no entry is stored


@dataclass
class ConductanceGraph(Graph):
    """Finite vertex set with a symmetric nonnegative finite conductance per pair.

    ``b`` holds positive entries under canonical keys; an absent pair has
    conductance 0 (no edge).
    """

    n: int
    b: dict[tuple[int, int], float]
    labels: tuple[str, ...] | None = None
    exact: dict[tuple[int, int], Fraction] = field(
        default_factory=dict, compare=False, repr=False
    )
    # Components and grounded Cholesky factors, built by the resistance
    # module on first use and shared by every resistance query.
    _grounded: _GroundedSystem | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _absent = 0.0

    def __post_init__(self) -> None:
        self.b = self._store(self.b)

    conductance = Graph._value  # b(u, v): zero on the diagonal and where no entry is stored

    def edges(self) -> list[tuple[int, int, float]]:
        """Positive-conductance edges as (u, v, value), u < v, sorted."""
        return [(u, v, w) for (u, v), w in self.b.items() if u != v]


def _parse_value(token: str, line_no: int) -> tuple[float, Fraction | None]:
    if token.lower() == "inf":
        return INFINITY, None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: bad value {token!r}") from None
    if math.isnan(value):
        raise ParseError(f"line {line_no}: NaN is not a valid value")
    if math.isinf(value):
        # Only the literal token spells infinity; 1e999 style overflow is
        # rejected so the exact shadow stays faithful.
        raise ParseError(f"line {line_no}: overflowing value {token!r}; use 'inf'")
    if value < 0:
        raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
    return value, Fraction(token)


def parse_graph(text: str, mode: str = "weight") -> Graph:
    """Parse an edge-list document into a validated graph.

    Format: UTF-8 text, one edge per line ``<label> <label> <value>`` where
    value is a nonnegative decimal or the token ``inf``; ``#`` starts a
    comment, blank lines are ignored, and ``vertex <label>`` declares an
    isolated vertex.  Labels map to dense ids in first-appearance order.

    ``mode`` selects the semantics: ``weight`` (absent pair = inf, values
    are lengths) or ``conductance`` (absent pair = 0, values finite).
    """
    if mode not in ("weight", "conductance"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    ids: dict[str, int] = {}

    def vid(label: str) -> int:
        if label not in ids:
            ids[label] = len(ids)
        return ids[label]

    entries: dict[tuple[int, int], float] = {}
    exact: dict[tuple[int, int], Fraction] = {}
    # One parse (and one Fraction) per distinct value token; a bad token is
    # never stored, so it fails on its own line.
    parsed: dict[str, tuple[float, Fraction | None]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] == "vertex":
            vid(tokens[1])
            continue
        if len(tokens) != 3:
            raise ParseError(f"line {line_no}: expected '<label> <label> <value>', got {raw_line!r}")
        u, v = vid(tokens[0]), vid(tokens[1])
        value_frac = parsed.get(tokens[2])
        if value_frac is None:
            value_frac = parsed[tokens[2]] = _parse_value(tokens[2], line_no)
        value, frac = value_frac
        if u == v:
            if mode == "conductance":
                raise DiagonalError(f"line {line_no}: self-loop on {tokens[0]!r}")
            if value != 0.0:
                raise DiagonalError(
                    f"line {line_no}: self-loop on {tokens[0]!r} with nonzero weight"
                )
            continue
        if mode == "weight" and value == 0.0:
            raise ParseError(
                f"line {line_no}: zero weight between distinct vertices "
                f"{tokens[0]!r} and {tokens[1]!r} breaks definiteness"
            )
        if mode == "conductance" and math.isinf(value):
            raise ParseError(f"line {line_no}: conductances must be finite")
        key = edge_key(u, v)
        if key in entries and entries[key] != value:
            raise AsymmetryError(
                f"line {line_no}: pair ({tokens[0]}, {tokens[1]}) redeclared "
                f"with conflicting value {tokens[2]}"
            )
        entries[key] = value
        if frac is not None:
            exact[key] = frac

    labels = tuple(ids)
    n = len(labels)
    kind = WeightedGraph if mode == "weight" else ConductanceGraph
    graph = kind(n, entries, labels, exact)
    report = validate(graph)
    if report:
        raise ParseError("; ".join(report))
    return graph


def validate(g: Graph) -> list[str]:
    """Diagnostics for every violated graph invariant; empty iff all hold.

    Construction keeps graphs representable even when invalid, so library
    users can inspect what is wrong; parsing rejects any diagnosed input.
    """
    report: list[str] = []
    weighted = isinstance(g, WeightedGraph)
    kind = "weight" if weighted else "conductance"
    for (u, v), w in g._pairs.items():
        if u != v and 0.0 < w < INFINITY:  # a weight stores no inf, a conductance no 0
            continue
        pair = f"({g.label(u)}, {g.label(v)})"
        if u == v:
            if not weighted:
                report.append(f"diagonal conductance {pair} must be absent")
            elif w != 0.0:
                report.append(f"diagonal entry {pair} must be zero, got {w}")
        elif math.isnan(w):
            report.append(f"{kind} {pair} is NaN")
        elif w < 0:
            report.append(f"{kind} {pair} is negative: {w}")
        elif w == 0.0:  # only a weight stores a zero, only a conductance an inf
            report.append(f"weight {pair} is zero off diagonal")
        elif math.isinf(w):
            report.append(f"conductance {pair} must be finite")
    if not weighted:
        row_sums = [0.0] * g.n
        for u, v, w in g.edges():
            row_sums[u], row_sums[v] = row_sums[u] + w, row_sums[v] + w
        for u, total in enumerate(row_sums):
            if math.isinf(total):
                report.append(f"conductance row sum at {g.label(u)} is not finite")
    if g.labels is not None and len(set(g.labels)) != len(g.labels):
        report.append("duplicate vertex labels")
    return report


def invariant_error(g: Graph, message: str) -> GraphmetryError:
    """The error for a theorem-backed check that failed on ``g``: OutOfRange,
    naming the values, when its least and greatest finite stored values absorb
    in a float sum (large + small == large, which no float algorithm can
    resolve), InternalInvariantError(message), a bug, otherwise."""
    values = sorted(w for (u, v), w in g._pairs.items() if u != v and 0.0 < w < INFINITY)
    if values and values[-1] + values[0] == values[-1]:
        kind = "weights" if isinstance(g, WeightedGraph) else "conductances"
        small, large = values[0], values[-1]
        return OutOfRange(
            f"{kind} {small!r} and {large!r} are too far apart for float sums: "
            f"{large!r} + {small!r} == {large!r}"
        )
    return InternalInvariantError(message)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text; parsing it back reproduces the graph.

    Values use the shortest round-tripping decimal form, so the exact
    rational shadow survives a serialize/parse cycle.
    """
    lines = []
    touched = set()
    for (u, v), w in sorted(g._pairs.items()):
        if u == v:
            continue
        lines.append(f"{g.label(u)} {g.label(v)} {repr(w)}")
        touched.add(u)
        touched.add(v)
    for u in range(g.n):
        if u not in touched:
            lines.append(f"vertex {g.label(u)}")
    return "\n".join(lines) + ("\n" if lines else "")


def graph_digest(g: Graph) -> str:
    """Content hash of the parsed graph (over its canonical serialization)."""
    kind = "weight" if isinstance(g, WeightedGraph) else "conductance"
    payload = f"{kind}\n{serialize_graph(g)}".encode()
    return hashlib.sha256(payload).hexdigest()
