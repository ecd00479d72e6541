"""Core graph types, edge-list parsing, validation, and canonical serialization.

The toolkit works with two readings of one structure, a :class:`Graph`:
a finite vertex set ``0 .. n-1`` with a stored value per vertex pair.

* :class:`WeightedGraph` carries a symmetric weight in ``[0, inf]`` per
  vertex pair; an absent entry means ``inf`` (no finite connection).
  Weights are lengths and induce the shortest-path pseudo metric.
* :class:`ConductanceGraph` carries a symmetric finite conductance per
  pair; an absent entry means ``0`` (no edge).  Conductances define the
  energy form and the resistance metric.

A graph is valid or it is not built: construction raises InputError with
every :func:`validate` diagnostic (a NaN, negative or -inf weight, an inf
or NaN or negative conductance, a conductance row sum beyond float range,
a nonzero or conductance diagonal entry, duplicate labels).  Zero weights
are allowed, as pseudo-metric weights; the edge-list parser still rejects
``a b 0`` between distinct vertices.  No layer above checks values again.

Construction is one array pass over the given map.  Vertex ids must be
integers in ``0 .. n-1`` (what ``operator.index`` accepts: a float or a
string is no id, even when whole), the one rule every vertex argument
follows.  A value is a number, never text, even when float() reads it, and
a pair given both ways must carry one value (NaN agrees with NaN).  The stored maps are canonical, sorted dicts: each
key ``(u, v)`` has ``u <= v``.

Extended weights are plain ``float`` values with ``math.inf`` as the
distinguished infinity; this gives the required total order and absorbing
addition for free.  ``Graph._exact`` decides each stored pair's exact
rational value from the input alone: the parser's token, else the float's
shortest decimal, and on a graph made by ``Graph.reciprocal`` 1/q of its
source's value.  The oracles read it, so they never inherit rounding error.
Each spelling becomes a ``Fraction`` on first read, once per distinct one,
so a parse or a lift that no oracle reads builds none.

Both graph classes are immutable after construction and safe to read from
any number of concurrent workers.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from typing import Iterator, NamedTuple, TypeVar

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
    SameVertex,
    UnknownVertex,
)

INFINITY: float = math.inf

# Relative tolerance between the results of two different algorithms
# (metric entries, resistances).  Sums of the same path terms compare within
# their rounding bound instead (pathmetric._sum_slack).
TAU_EQ: float = 1e-9


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


_ID_PAIR = struct.Struct("=qq")  # two int64 ids; pack refuses a float, a str, a 3-tuple


def _id_array(n: int, keys: list) -> np.ndarray:
    """The vertex pairs ``keys`` as an (m, 2) int64 array.

    Raises UnknownVertex naming the first pair that is not two integer ids in
    0 .. n-1; a float or a string is no vertex id, even when it is whole.
    """
    try:
        ids = np.frombuffer(b"".join(starmap(_ID_PAIR.pack, keys)), np.int64).reshape(-1, 2)
    except (struct.error, TypeError):
        ids = None
    # Read as unsigned, a negative id is beyond any vertex count.
    if ids is None or int(ids.view(np.uint64).max(initial=0)) >= n:
        for u, v in keys:  # the first bad pair, in the caller's order
            try:
                operator.index(u), operator.index(v)
            except TypeError:
                raise UnknownVertex(f"vertex pair ({u!r}, {v!r}) is not a pair of integer vertex ids") from None
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"vertex pair ({u}, {v}) out of range for {n} vertices")
    return ids


def _index(u: object) -> int | None:
    """``u`` as construction reads a vertex id (``operator.index``), or None:
    a float or a string is no vertex id, even when whole."""
    try:
        return operator.index(u)
    except TypeError:
        return None


def _count(value: object, name: str, least: int = 1) -> int:
    """``value`` as a count argument (a cap, a budget, a number of trials):
    an integer, read as a vertex id is (see :func:`_index`), of at least
    ``least``; InvalidArgument otherwise."""
    i = _index(value)
    if i is None:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    if i < least:
        raise InvalidArgument(f"{name} must be positive" if least == 1 else f"{name} must be at least {least}")
    return i


def _vertex(u: object, n: int) -> int:
    """``u`` as a vertex id: an integer id (see :func:`_index`) in 0 .. n-1,
    or UnknownVertex."""
    i = _index(u)
    if i is None:
        raise UnknownVertex(f"vertex {u!r} is not an integer vertex id")
    if not 0 <= i < n:
        raise UnknownVertex(f"vertex {u} out of range for {n} vertices")
    return i


def _check_labels(labels: tuple[str, ...] | None, n: int) -> None:
    """InvalidArgument unless ``labels`` is None or names exactly n vertices."""
    if labels is not None and len(labels) != n:
        raise InvalidArgument("label table size must equal the vertex count")


def _plain(keys: list) -> bool:
    """Whether ``keys`` are tuples of ``int`` (no subclass, no numpy scalar),
    as the keys of a stored dict are."""
    m = len(keys)
    return (
        operator.countOf(map(type, keys), tuple) == m
        and operator.countOf(map(type, chain.from_iterable(keys)), int) == 2 * m
    )


def _first_text(values: list) -> int:
    """Index of the first value that is text, -1 if none: a str or bytes is
    no value, even when float() reads one."""
    return next((i for i, x in enumerate(values) if isinstance(x, (str, bytes))), -1)


def _merge(ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (lo, hi, value) rows of the pairs ``ids`` with values ``w``,
    sorted by (lo, hi), one row per pair: of equal values (NaN equals NaN,
    0.0 equals -0.0) the last one given.  Raises AsymmetryError for the first
    value, in the caller's order, that differs from the one before it."""
    lo, hi = np.minimum(ids[:, 0], ids[:, 1]), np.maximum(ids[:, 0], ids[:, 1])
    if ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all():
        return lo, hi, w  # already sorted, no pair twice
    order = np.lexsort((hi, lo))  # stable: equal pairs keep the caller's order
    lo, hi, w = lo[order], hi[order], w[order]
    same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if not same.any():
        return lo, hi, w
    clash = (same & (w[1:] != w[:-1]) & ~(np.isnan(w[1:]) & np.isnan(w[:-1]))).nonzero()[0] + 1
    if len(clash):
        r = clash[np.argmin(order[clash])]
        raise AsymmetryError(
            f"conflicting values for pair {(int(lo[r]), int(hi[r]))}: {float(w[r - 1])} vs {float(w[r])}"
        )
    last = np.concatenate((~same, [True]))
    return lo[last], hi[last], w[last]


class Components(NamedTuple):
    """Each vertex's component number, and each component's sorted vertices."""

    component: list[int]
    members: list[list[int]]


class Graph:
    """Finite vertex set ``0 .. n-1`` with one stored value per unordered pair.

    The two subclasses read the same structure two ways: a
    :class:`WeightedGraph` value is a length (absent pair: ``INFINITY``), a
    :class:`ConductanceGraph` value a conductance (absent pair: 0).  Each
    names its stored pairs (``weights``, ``b``) and keeps them under
    canonical ``(min, max)`` keys.
    """

    n: int
    labels: tuple[str, ...] | None
    _absent: float  # the value of a pair with no stored entry
    _pairs: dict[tuple[int, int], float]  # the subclass's stored pairs
    _ends: np.ndarray  # the stored pairs' (u, v) rows, in stored order
    _values: np.ndarray  # their values
    _adj: list[list[tuple[int, float]]] | None
    _components: Components | None  # the component labelling, built on first use
    _grounded: object | None  # a conductance graph's grounded system, built by resistance on first use
    _scaled: dict[int, tuple[dict[tuple[int, int], int], int]]  # the oracles' scaled components, by number
    # Where _exact reads a pair's value; a graph made by reciprocal shares its source's.
    _tokens: dict[tuple[int, int], str]  # the parser's value tokens, "_" removed
    _floats: dict[tuple[int, int], float]  # the values spelled by their shortest decimal
    _rationals: dict[str, Fraction]  # each spelling read so far
    _inverted: bool  # whether the exact value is 1 over the one spelled

    def _store(self, raw: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
        """Check n and the labels and normalize the pairs; return them.
        Raises InputError with every :func:`validate` diagnostic."""
        if self.n < 0:
            raise InvalidArgument("vertex count must be nonnegative")
        _check_labels(self.labels, self.n)
        keys, values = list(raw), list(raw.values())
        ids = _id_array(self.n, keys)
        floats = operator.countOf(map(type, values), float) == len(values)
        try:
            w = np.fromiter(map(float, values), float, len(values))
        except Exception:
            # float() refused a value: a conflict between the pairs before it comes first
            before: list[float] = []
            for x in values:
                try:
                    before.append(float(x))
                except Exception:
                    break
            _merge(ids[: len(before)], np.array(before, float))
            raise
        lo, hi, w = _merge(ids, w)
        text = -1 if floats else _first_text(values)  # after float()'s refusals and the conflicts
        if text >= 0:
            raise InvalidArgument(f"pair {keys[text]!r}: text {values[text]!r} is not a value")
        keep = (w != self._absent) | (lo == hi)
        if not keep.all():
            lo, hi, w = lo[keep], hi[keep], w[keep]
        if len(w) == len(keys) and (lo == ids[:, 0]).all() and (hi == ids[:, 1]).all() and floats and _plain(keys):
            # Canonical and sorted already, as dict(g.b) with one value changed
            # is: the copy keeps the caller's key tuples instead of making new ones.
            self._pairs, self._ends = dict(raw), ids
        else:
            self._pairs = dict(zip(zip(lo.tolist(), hi.tolist()), w.tolist()))
            self._ends = np.array((lo, hi)).T
        self._values = w
        self._ends.flags.writeable = self._values.flags.writeable = False
        problems = validate(self)
        if problems:
            raise InputError("; ".join(problems))
        self._adj = self._components = self._grounded = None
        self._scaled = {}
        self._tokens, self._floats, self._rationals, self._inverted = {}, self._pairs, {}, False
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
            # The pairs are sorted, so each list fills in ascending order: the
            # partners below a vertex (pairs (c, u), by ascending c) come first.
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
            for (a, b), w in self._pairs.items():
                if a != b:
                    adj[a].append((b, w))
                    adj[b].append((a, w))
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
        """Connected components, each sorted, ordered by least vertex: fresh lists."""
        return [list(members) for members in self._labelling().members]

    def _labelling(self) -> Components:
        """The components numbered by least vertex, built on first use and kept
        on the graph: every layer that asks about connectivity reads them."""
        if self._components is None:
            component = [-1] * self.n
            members: list[list[int]] = []
            for s in range(self.n):
                if component[s] < 0:
                    members.append(sorted(self.reach(s)))
                    for v in members[-1]:
                        component[v] = len(members) - 1
            self._components = Components(component, members)
        return self._components

    def _exact(self, key: tuple[int, int]) -> Fraction:
        """The exact value of stored pair ``key`` (canonical): the rational its
        parsed token spells, else its float's shortest decimal; on a graph
        made by :meth:`reciprocal`, 1 over its source's.  Each spelling is
        read as a Fraction once and kept; two racing readers may both read
        one, and ``setdefault`` hands both the first.  KeyError for a key
        that has no value anywhere, as a zero conductance the parser drops."""
        text = self._tokens.get(key) or repr(self._floats[key])
        q = self._rationals.get(text)
        if q is None:
            q = self._rationals.setdefault(text, Fraction(text))
        return 1 / q if self._inverted else q

    def reciprocal(self, kind: type[G]) -> G:
        """A ``kind`` graph with value 1/x on every stored pair x of this one.

        Lifts a conductance to its length 1/b and back, on any graph.  The
        lift shares this graph's tokens and floats, so its exact value of a
        pair is 1/q of this one's q, read only when an oracle asks, and a
        lift of a lift reads this graph's values back.  Raises InputError
        when a reciprocal is outside float range (a zero or subnormal value
        overflows 1/x).
        """
        values = {
            key: 1.0 / x if x else INFINITY for key, x in self._pairs.items() if key[0] != key[1]
        }
        for (u, v), y in values.items():
            if not math.isfinite(y):
                raise InputError(
                    f"1/{self._pairs[u, v]!r} on ({self.label(u)}, {self.label(v)}) "
                    "is outside float range"
                )
        lift = kind(self.n, values, self.labels)
        lift._tokens, lift._floats, lift._rationals = self._tokens, self._floats, self._rationals
        lift._inverted = not self._inverted
        return lift

    def label(self, u: int) -> str:
        self._check_vertex(u)
        return self.labels[u] if self.labels is not None else str(u)

    def resolve(self, token: str | int) -> int:
        """Vertex id of a label or index token.

        Anything but a string is an index.  A string is a label on a labelled
        graph and nothing else, so on the labelled graph ``a b 1 / b c 1``
        the token ``"2"`` is unknown rather than vertex ``c``; only an
        unlabelled graph reads a string of ASCII digits as an index.
        """
        if not isinstance(token, str):
            return _vertex(token, self.n)
        if self.labels is not None:
            if token in self.labels:
                return self.labels.index(token)
        elif token.isascii() and token.isdigit():
            u = int(token)
            self._check_vertex(u)
            return u
        raise UnknownVertex(f"unknown vertex {token!r}")

    def _check_vertex(self, u: int) -> None:
        """Raise UnknownVertex unless ``u`` is a vertex (see :func:`_vertex`)."""
        if type(u) is not int or not 0 <= u < self.n:
            _vertex(u, self.n)

    def _check_pair(self, x: int, y: int, what: str) -> None:
        """Check both vertices; raise SameVertex when they are one."""
        self._check_vertex(x)
        self._check_vertex(y)
        if x == y:
            raise SameVertex(f"{what} needs two distinct vertices")


G = TypeVar("G", bound=Graph)


@dataclass
class WeightedGraph(Graph):
    """Finite vertex set with a symmetric extended weight per pair.

    ``weights`` holds finite entries under canonical ``(min, max)`` keys;
    an absent off-diagonal pair has weight ``INFINITY``.
    """

    n: int
    weights: dict[tuple[int, int], float]
    labels: tuple[str, ...] | None = None
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
    _absent = 0.0

    def __post_init__(self) -> None:
        self.b = self._store(self.b)

    conductance = Graph._value  # b(u, v): zero on the diagonal and where no entry is stored

    def edges(self) -> list[tuple[int, int, float]]:
        """Positive-conductance edges as (u, v, value), u < v, sorted."""
        return [(u, v, w) for (u, v), w in self.b.items() if u != v]


def _parse_value(token: str, line_no: int) -> tuple[float, str | None]:
    """A value token's float and the spelling its exact value is read from
    (None for ``inf`` and for a zero, which no parsed graph stores), or the
    ParseError that refuses it."""
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
        # rejected so the exact value stays faithful.
        raise ParseError(f"line {line_no}: overflowing value {token!r}; use 'inf'")
    # The spelling drops the _ separators float() reads (3.10's Fraction refuses them).
    if value:
        if value < 0:
            raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
        return value, token.replace("_", "")
    # A float of 0 is a zero or an underflow, which its mantissa tells apart:
    # Fraction would expand an exponent such as e-99999999 in full.
    mantissa = Fraction(token.replace("_", "").lower().partition("e")[0])
    if mantissa.numerator < 0:  # the token's sign: -1e-400 is negative, though its float is -0.0
        raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
    if mantissa:  # likewise underflow, which would drop a conductance or zero a weight
        raise ParseError(f"line {line_no}: underflowing value {token!r}")
    return value, None


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
    entries: dict[tuple[int, int], float] = {}
    spelled: dict[tuple[int, int], str] = {}
    # One parse per distinct value token; a bad token is never stored, so it
    # fails on its own line.
    parsed: dict[str, tuple[float, str | None]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        tokens = raw_line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 2 and tokens[0] == "vertex":
            ids.setdefault(tokens[1], len(ids))
            continue
        if len(tokens) != 3:
            raise ParseError(f"line {line_no}: expected '<label> <label> <value>', got {raw_line!r}")
        u = ids.setdefault(tokens[0], len(ids))
        v = ids.setdefault(tokens[1], len(ids))
        value_frac = parsed.get(tokens[2])
        if value_frac is None:
            value_frac = parsed[tokens[2]] = _parse_value(tokens[2], line_no)
        value, spelling = value_frac
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
        if entries.setdefault(key, value) != value:
            raise AsymmetryError(
                f"line {line_no}: pair ({tokens[0]}, {tokens[1]}) redeclared "
                f"with conflicting value {tokens[2]}"
            )
        if spelling is not None:
            spelled[key] = spelling

    labels = tuple(ids)
    n = len(labels)
    kind = WeightedGraph if mode == "weight" else ConductanceGraph
    g = kind(n, entries, labels)
    g._tokens = spelled
    return g


def validate(g: Graph) -> list[str]:
    """Diagnostics for every violated graph invariant; empty iff all hold.

    Construction raises InputError with these diagnostics, so a built graph
    has none: weights are in [0, inf), conductances positive and finite with
    finite row sums, the diagonal is zero (absent for conductances), and
    labels are distinct.  Zero weights are pseudo-metric weights and are
    allowed here; the edge-list parser still rejects ``a b 0``.
    """
    report: list[str] = []
    weighted = isinstance(g, WeightedGraph)
    kind = "weight" if weighted else "conductance"
    lo, hi = g._ends.T
    values = g._values
    stray = lo == hi  # a diagonal entry; a weight graph may store a zero there
    if weighted:
        stray &= values != 0.0
    # The pair loop names each bad pair; it runs only when some pair is bad.
    if not ((0.0 <= values) & (values < INFINITY) & ~stray).all():
        for (u, v), w in g._pairs.items():
            if u != v and 0.0 <= w < INFINITY:  # a weight stores no inf, a conductance no 0
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
            else:  # only a conductance stores an inf
                report.append(f"conductance {pair} must be finite")
    # Conductances that passed the test above and sum to less than 1e307
    # bound every row sum, rounding included, far below float overflow.
    if not weighted and (report or not sum(g._pairs.values()) < 1e307):
        edge = ~stray  # a diagonal conductance is reported above, not summed
        for u in np.flatnonzero(np.isinf(_row_sums(g._ends[edge], values[edge], g.n))).tolist():
            report.append(f"conductance row sum at {g.label(u)} is not finite")
    if g.labels is not None and len(set(g.labels)) != len(g.labels):
        report.append("duplicate vertex labels")
    return report


def _row_sums(ends: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Each vertex's conductances summed in stored-pair order, which is
    edges() order: the Laplacian diagonal and the row sums :func:`validate`
    checks.  ``ends`` holds no diagonal pair."""
    return np.bincount(ends.ravel(), np.repeat(c, 2), n)


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
    """Canonical edge-list text: the stored pairs in vertex-id order, then
    the isolated vertices.

    Values use the shortest round-tripping decimal form, so a value survives
    a serialize/parse cycle.  Its exact value survives only when that is its
    float's shortest decimal: a parsed ``0.1000000000000000055511151231257827``
    comes back with exact value 1/10.  Construction stores the pairs in sorted
    order, and each distinct value is spelled once.  The graph itself need
    not survive one: parsing numbers vertices by first appearance, so ids
    out of that order come back renumbered (``a b 1 / c d 1 / a d 1`` as
    ``(a, b, d, c)``, ``vertex z / a b 1`` as ``(a, b, z)``), and a zero
    weight, or a label that holds whitespace or ``#``, does not parse back
    at all.
    """
    names = g.labels if g.labels is not None else [str(u) for u in range(g.n)]
    edges = [(key, w) for key, w in g._pairs.items() if key[0] != key[1]]
    # 0.0 == -0.0 as a key, so a zero is spelled where it stands.
    spelled = {w: repr(w) for w in {w for _, w in edges}}
    lines = [f"{names[u]} {names[v]} {spelled[w] if w else repr(w)}" for (u, v), w in edges]
    touched = set().union(*(key for key, _ in edges))
    lines += [f"vertex {names[u]}" for u in range(g.n) if u not in touched]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_digest(g: Graph) -> str:
    """SHA-256 of the graph's kind and :func:`serialize_graph` text.

    It identifies the graph with its vertex numbering, which for a parsed
    graph is the file's order of first appearance: the same edges named in
    another order get another digest, as can the graph's serialization
    parsed back.
    """
    kind = "weight" if isinstance(g, WeightedGraph) else "conductance"
    payload = f"{kind}\n{serialize_graph(g)}".encode()
    return hashlib.sha256(payload).hexdigest()
