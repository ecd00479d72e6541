"""Tests for graph construction, parsing, validation, and serialization."""

import collections
import copy
import math
import operator
import pickle
import random
import re
import struct
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import graphmetry

from graphmetry import (
    INFINITY,
    UNIT_RAY,
    AsymmetryError,
    ConductanceGraph,
    DiagonalError,
    Disconnected,
    InputError,
    InternalInvariantError,
    InvalidArgument,
    NegativeWeightError,
    OutOfRange,
    ParseError,
    Path,
    UnknownVertex,
    WeightedGraph,
    all_pairs_metric,
    check_triangle_equality,
    components,
    effective_resistance,
    enumerate_geodesics,
    extract_common_prefix_path,
    family_ball_scan,
    family_elf_scan,
    graph_digest,
    geodesic_weight,
    harmonic_maximizer,
    is_block_graph,
    is_tree,
    laplacian_apply,
    parse_graph,
    path_length,
    separates,
    serialize_graph,
    single_source_distances,
    validate,
    verify_variational,
    weights_close,
)
from graphmetry.core import _row_sums, edge_key, invariant_error, weights_close_array
from graphmetry.oracle import (
    brute_metric,
    brute_metric_from,
    enumerate_simple_paths,
    exact_weight,
    spanning_tree_resistance,
)
from graphmetry.pathmetric import _initial_table, all_pairs_metric, is_generating, path_metric
from graphmetry.resistance import _GroundedSystem, resistance_matrix
from .enumerators import two_forest_sum, unique_induced_path
from .suites import random_connected_conductance, random_weighted_graph

P3_TEXT = """
# unit path on three vertices
a b 1
b c 1
"""


def test_path_basics():
    p = Path((0, 1, 2))
    assert len(p) == 3
    assert p.start == 0 and p.end == 2
    assert list(p.steps()) == [(0, 1), (1, 2)]
    assert p[1] == 1
    assert list(Path((4,))) == [4]


def test_path_rejects_repeats_and_empty():
    with pytest.raises(ValueError):
        Path(())
    with pytest.raises(ValueError):
        Path((0, 1, 0))


def test_weight_lookup_defaults():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert g.weight(0, 0) == 0.0
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 0) == 1.0
    assert g.weight(0, 2) == INFINITY
    with pytest.raises(UnknownVertex):
        g.weight(0, 3)


def test_weight_keys_are_canonicalized():
    g = WeightedGraph(2, {(1, 0): 2.0})
    assert (0, 1) in g.weights
    assert g.weight(0, 1) == 2.0
    with pytest.raises(AsymmetryError):
        WeightedGraph(2, {(0, 1): 1.0, (1, 0): 2.0})


def test_conductance_lookup_defaults():
    b = ConductanceGraph(3, {(0, 1): 2.0})
    assert b.conductance(0, 1) == 2.0
    assert b.conductance(1, 0) == 2.0
    assert b.conductance(0, 2) == 0.0
    assert b.conductance(2, 2) == 0.0
    assert b.edges() == [(0, 1, 2.0)]
    assert b.neighbors(0) == [(1, 2.0)] and b.neighbors(2) == []


def test_zero_conductance_means_no_edge():
    b = ConductanceGraph(2, {(0, 1): 0.0})
    assert b.edges() == []
    assert b.conductance(0, 1) == 0.0


def test_neighbors_sorted():
    g = WeightedGraph(4, {(2, 0): 1.0, (0, 3): 2.0, (0, 1): 5.0})
    assert g.neighbors(0) == [(1, 5.0), (2, 1.0), (3, 2.0)]
    assert g.neighbors(1) == [(0, 5.0)]


def test_reach_stops_at_the_stop_vertex_with_the_full_search_route():
    rng = random.Random(173)
    for _ in range(100):
        g = random_weighted_graph(rng, rng.randint(1, 20), inf_prob=rng.choice((0.5, 0.8, 0.95)))
        start, banned = rng.randrange(g.n), rng.choice((None, rng.randrange(g.n)))
        full = g.reach(start, banned)
        for stop in range(g.n):
            part = g.reach(start, banned, stop)
            assert list(part) == list(full)[: len(part)] and part.items() <= full.items()
            assert list(part)[-1] == stop if stop in full else part == full
    with pytest.raises(UnknownVertex):
        WeightedGraph(2, {}).reach(2, stop=0)


def test_parse_weight_graph():
    g = parse_graph(P3_TEXT)
    assert isinstance(g, WeightedGraph)
    assert g.n == 3
    assert g.labels == ("a", "b", "c")
    assert g.weight(0, 1) == 1.0
    assert g.weight(0, 2) == INFINITY
    assert g.resolve("c") == 2


def test_parse_inf_token_and_isolated_vertex():
    g = parse_graph("a b inf\nvertex c\n")
    assert g.n == 3
    assert g.weight(0, 1) == INFINITY
    assert g.weights == {}


def test_parse_conductance_graph():
    b = parse_graph("x y 2\ny z 1\n", mode="conductance")
    assert isinstance(b, ConductanceGraph)
    assert b.conductance(0, 1) == 2.0
    assert b.conductance(0, 2) == 0.0


def test_parse_repeated_edge_must_agree():
    g = parse_graph("a b 2\nb a 2\n")
    assert g.weight(0, 1) == 2.0
    with pytest.raises(AsymmetryError):
        parse_graph("a b 2\nb a 3\n")


@pytest.mark.parametrize(
    "text,mode,err",
    [
        ("a a 1", "weight", DiagonalError),
        ("a a 0.5", "conductance", DiagonalError),
        ("a a 0", "conductance", DiagonalError),
        ("a b -1", "weight", NegativeWeightError),
        ("a b -0.5", "conductance", NegativeWeightError),
        ("a b 0", "weight", ParseError),
        ("a b inf", "conductance", ParseError),
        ("a b x", "weight", ParseError),
        ("a b nan", "weight", ParseError),
        ("a b 1e999", "weight", ParseError),
        ("a b", "weight", ParseError),
        ("a b 1 2", "weight", ParseError),
    ],
)
def test_parse_rejects_bad_lines(text, mode, err):
    with pytest.raises(err):
        parse_graph(text, mode=mode)


def test_parse_zero_self_loop_weight_is_dropped():
    g = parse_graph("a a 0\na b 1\n")
    assert g.n == 2
    assert g.weight(0, 0) == 0.0


def test_parse_unknown_mode():
    with pytest.raises(ValueError):
        parse_graph("a b 1", mode="lengths")


def test_parse_exact_shadow():
    g = parse_graph("a b 0.1\nb c 3\n")
    from fractions import Fraction

    assert g._exact((0, 1)) == Fraction(1, 10)
    assert g._exact((1, 2)) == Fraction(3)


def test_validate_weighted():
    # Construction raises every diagnostic at once; a zero weight is none of them.
    with pytest.raises(InputError) as err:
        WeightedGraph(3, {(0, 1): -1.0, (1, 2): 0.0, (2, 2): 5.0})
    assert str(err.value).split("; ") == [
        "weight (0, 1) is negative: -1.0",
        "diagonal entry (2, 2) must be zero, got 5.0",
    ]
    assert validate(WeightedGraph(2, {(0, 1): 1.0})) == []
    assert validate(WeightedGraph(3, {(0, 1): 0.0, (1, 2): 1.0, (2, 2): 0.0})) == []


def test_validate_conductance():
    with pytest.raises(InputError, match=r"^conductance \(0, 1\) is NaN$"):
        ConductanceGraph(2, {(0, 1): math.nan})
    ok = ConductanceGraph(2, {(0, 1): 3.0})
    assert validate(ok) == []


def test_validate_duplicate_labels():
    with pytest.raises(InputError, match="^duplicate vertex labels$"):
        WeightedGraph(2, {(0, 1): 1.0}, labels=("a", "a"))


def expected_diagnostics(kind, n, pairs, labels):
    """The construction rule spelled out for canonical (u <= v) ``pairs``:
    every diagnostic in key order, then row sums, then labels."""
    weighted = kind is WeightedGraph
    noun = "weight" if weighted else "conductance"
    absent = INFINITY if weighted else 0.0
    name = (lambda u: labels[u]) if labels else str
    out, rows = [], [0.0] * n
    for (u, v), w in sorted(pairs.items()):
        pair = f"({name(u)}, {name(v)})"
        if u == v:
            if not weighted:
                out.append(f"diagonal conductance {pair} must be absent")
            elif w != 0.0:
                out.append(f"diagonal entry {pair} must be zero, got {w}")
            continue
        if w == absent:
            continue
        rows[u], rows[v] = rows[u] + w, rows[v] + w
        if math.isnan(w):
            out.append(f"{noun} {pair} is NaN")
        elif w < 0:
            out.append(f"{noun} {pair} is negative: {w}")
        elif math.isinf(w):
            out.append(f"conductance {pair} must be finite")
    if not weighted:
        out += [
            f"conductance row sum at {name(u)} is not finite" for u in range(n) if math.isinf(rows[u])
        ]
    if labels and len(set(labels)) < n:
        out.append("duplicate vertex labels")
    return out


def test_construction_raises_every_diagnostic_of_the_rule():
    rng = random.Random(1801)
    fine = {WeightedGraph: (0.0, 0.5, 1.0, 3.0, 1e308), ConductanceGraph: (0.5, 1.0, 2.0, 1e308)}
    bad = {
        WeightedGraph: (math.nan, -1.0, -5e-324, -math.inf),
        ConductanceGraph: (math.nan, -1.0, math.inf, -math.inf),
    }
    seen, built = [], 0
    for i in range(400):
        kind = (WeightedGraph, ConductanceGraph)[i % 2]
        n = rng.randint(1, 7)
        pairs = {
            (u, v): rng.choice(fine[kind])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        }
        for _ in range(rng.choice((0, 0, 1, 2))):
            u = rng.randrange(n)
            v = u if rng.random() < 0.2 else rng.randrange(n)
            key = (min(u, v), max(u, v))
            pairs[key] = rng.choice((0.0, 2.0)) if u == v else rng.choice(bad[kind])
        labels = None
        if rng.random() < 0.5:
            labels = tuple(f"v{u}" for u in range(n))
            if n > 1 and rng.random() < 0.2:
                labels = labels[:-1] + (labels[0],)
        problems = expected_diagnostics(kind, n, pairs, labels)
        if problems:
            with pytest.raises(InputError) as err:
                kind(n, pairs, labels)
            assert str(err.value) == "; ".join(problems)
            seen += problems
        else:
            assert validate(kind(n, pairs, labels)) == []
            built += 1
    # The sweep reaches every diagnostic, and valid graphs (zero weights included).
    for fragment in (
        "weight (", "conductance (", "is NaN", "negative: -inf", "negative: -5e-324",
        "must be finite", "row sum", "diagonal entry", "diagonal conductance", "duplicate",
    ):
        assert any(fragment in line for line in seen), fragment
    assert built > 100


def test_disagreeing_layers_end_at_construction():
    # A negative weight leaves no shortest path for any route to find.
    with pytest.raises(InputError, match=r"^weight \(1, 2\) is negative: -5.0$"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 2): -5.0, (0, 2): 1.0})
    # A NaN weight is neither an edge nor an absent pair.
    with pytest.raises(InputError, match=r"^weight \(0, 1\) is NaN$"):
        WeightedGraph(2, {(0, 1): math.nan})
    # An inf or NaN conductance has no finite Laplacian, float or exact.
    with pytest.raises(InputError, match=r"^conductance \(0, 1\) must be finite; conductance row sum"):
        ConductanceGraph(3, {(0, 1): math.inf, (1, 2): 1.0})
    with pytest.raises(InputError, match=r"^conductance \(0, 1\) is NaN$"):
        ConductanceGraph(3, {(0, 1): math.nan, (1, 2): 1.0})
    # A negative conductance makes the energy form indefinite.
    with pytest.raises(InputError, match=r"^conductance \(0, 1\) is negative: -1.0$"):
        ConductanceGraph(3, {(0, 1): -1.0, (1, 2): 1.0})


def test_zero_weights_build_and_generate():
    g = WeightedGraph(3, {(0, 1): 0.0, (1, 2): 1.0})
    t = all_pairs_metric(g)
    assert t.d.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    assert is_generating(g, t) and path_metric(g, 0, 2) == 1.0
    assert brute_metric_from(g, 0) == [0, 0, 1]
    assert not is_generating(WeightedGraph(3, {(0, 1): 0.0, (1, 2): 2.0}), t)


def test_bad_sizes_raise_invalid_argument():
    for build in (
        lambda: WeightedGraph(-1, {}),
        lambda: ConductanceGraph(-1, {}),
        lambda: WeightedGraph(2, {(0, 1): 1.0}, labels=("a",)),
        lambda: ConductanceGraph(2, {(0, 1): 1.0}, labels=("a", "b", "c")),
    ):
        with pytest.raises(InvalidArgument, match="nonnegative|label table size") as err:
            build()
        assert isinstance(err.value, ValueError)


def test_reciprocal_refuses_a_zero_weight():
    g = WeightedGraph(3, {(0, 1): 0.0, (1, 2): 2.0}, ("a", "b", "c"))
    with pytest.raises(InputError, match=r"^1/0.0 on \(a, b\) is outside float range$"):
        g.reciprocal(ConductanceGraph)


def test_serialize_round_trip_semantics():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_weighted_graph(rng, n, integer=False, inf_prob=0.5)
        text = serialize_graph(g)
        h = parse_graph(text)
        assert h.n == g.n
        for u in range(n):
            for v in range(n):
                hu = h.resolve(g.label(u))
                hv = h.resolve(g.label(v))
                assert h.weight(hu, hv) == g.weight(u, v)


def test_serialize_isolated_vertices():
    g = WeightedGraph(3, {(0, 1): 1.5})
    assert serialize_graph(g) == "0 1 1.5\nvertex 2\n"
    assert serialize_graph(WeightedGraph(0, {})) == ""


def per_edge_serialization(g):
    """The edge-list text spelled edge by edge: labels through ``g.label``,
    pairs re-sorted, ``repr`` of every value."""
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


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
def test_serialization_matches_the_per_edge_spelling(kind):
    rng = random.Random(1919)
    values = [0.5, 2.0, 1 / 3, 1e-300, 5e-324, 1e300, 7.0]
    if kind is WeightedGraph:
        values += [0.0, -0.0]  # zero lengths are kept, and a zero is not a minus zero
    for trial in range(60):
        n = rng.randint(0, 12)
        pairs = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    key = (u, v) if rng.random() < 0.5 else (v, u)
                    pairs[key] = rng.choice(values)
        if kind is WeightedGraph:
            pairs.update({(u, u): 0.0 for u in range(n) if rng.random() < 0.2})
        labels = None if trial % 2 else tuple(rng.sample(["a", "10", "9", "é", "x y", "0"] + [f"v{i}" for i in range(n)], n))
        g = kind(n, pairs, labels)
        assert serialize_graph(g) == per_edge_serialization(g)
    g = WeightedGraph(4, {(1, 2): -0.0, (0, 1): 0.0, (2, 2): 0.0})
    assert serialize_graph(g) == per_edge_serialization(g) == "0 1 0.0\n1 2 -0.0\nvertex 3\n"


def test_digest_is_deterministic_and_mode_sensitive():
    g1 = parse_graph(P3_TEXT)
    g2 = parse_graph(P3_TEXT)
    assert graph_digest(g1) == graph_digest(g2)
    b = parse_graph("a b 1\nb c 1\n", mode="conductance")
    assert graph_digest(g1) != graph_digest(b)


def test_digest_and_serialization_keep_the_file_numbering():
    # Parsing numbers vertices by first appearance, so a graph whose ids
    # are out of that order comes back renumbered, unequal, and with
    # another digest.
    g = parse_graph("a b 1\nc d 1\na d 1\n")
    h = parse_graph(serialize_graph(g))
    assert g.labels == ("a", "b", "c", "d") and h.labels == ("a", "b", "d", "c")
    assert (g == h) is False and graph_digest(g) != graph_digest(h)
    assert parse_graph(serialize_graph(parse_graph("vertex z\na b 1"))).labels == ("a", "b", "z")
    for g in (
        WeightedGraph(2, {(0, 1): 0.0}),
        WeightedGraph(2, {(0, 1): 1.0}, ("a b", "c")),
        WeightedGraph(2, {(0, 1): 1.0}, ("a#", "c")),
    ):
        with pytest.raises(ParseError):
            parse_graph(serialize_graph(g))


def test_weights_close_extended():
    assert weights_close(INFINITY, INFINITY)
    assert not weights_close(INFINITY, 10.0)
    assert weights_close(1.0, 1.0 + 1e-12)
    assert not weights_close(1.0, 1.1)
    assert not weights_close(0.0, 1e-12)
    assert weights_close(1e-12, 1e-12 * (1 + 1e-12))


def test_invariant_error_blames_absorbed_values_only():
    k3 = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0})
    bug = invariant_error(k3, "a bug")
    assert isinstance(bug, InternalInvariantError) and str(bug) == "a bug"
    # 2**53 + 1 rounds back to 2**53; 2**52 + 1 is exact.
    wide = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0**53, (0, 2): INFINITY})
    blamed = invariant_error(wide, "a bug")
    assert isinstance(blamed, OutOfRange) and "1.0 and 9007199254740992.0" in str(blamed)
    near = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0**52})
    assert isinstance(invariant_error(near, "a bug"), InternalInvariantError)


def test_weights_close_array_matches_scalar():
    rng = random.Random(5)
    pool = [0.0, 1e-300, 5e-324, 1e-12, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 1e15, 1e15 * (1 + 1e-10), INFINITY]
    a = [rng.choice(pool) for _ in range(400)]
    b = [rng.choice(pool) if rng.random() < 0.5 else x * (1 + rng.choice([0, 1e-12, 1e-9, 1e-6])) for x in a]
    expected = [weights_close(x, y) for x, y in zip(a, b)]
    assert weights_close_array(np.array(a), np.array(b)).tolist() == expected
    assert True in expected and False in expected
    grid = np.array([[0.0, INFINITY], [1e-12, 2.0]])
    assert weights_close_array(grid, grid.T).tolist() == [[True, False], [False, True]]


def test_extended_weight_arithmetic():
    # Extended weights are plain floats with math.inf; the operations the
    # metric layer relies on must be total and absorbing.
    rng = random.Random(3)
    values = [rng.uniform(0, 10) for _ in range(50)] + [0.0, INFINITY]
    for a in values:
        assert a + INFINITY == INFINITY
        assert min(a, INFINITY) == a
        assert a <= INFINITY
        for bv in values:
            s = a + bv
            assert s >= a and s >= bv
            assert (a < bv) or (bv < a) or (a == bv)


def test_resolve_numeric_tokens():
    g = WeightedGraph(3, {(0, 1): 1.0})
    assert g.resolve("2") == 2
    assert g.resolve(1) == 1
    with pytest.raises(UnknownVertex):
        g.resolve("frog")
    with pytest.raises(UnknownVertex):
        g.resolve("7")
    # Only ASCII decimal tokens are indices: not a superscript two, which
    # int() rejects, nor an Arabic-Indic one, which int() reads as 1.
    for token in ("²", "١", "-1", "--1", "+1", " 1"):
        with pytest.raises(UnknownVertex):
            g.resolve(token)


def test_resolve_on_labelled_graphs_reads_strings_as_labels_only():
    for mode in ("weight", "conductance"):
        g = parse_graph(P3_TEXT, mode=mode)
        assert g.resolve("c") == 2
        assert g.resolve(2) == 2
        with pytest.raises(UnknownVertex):
            g.resolve("2")
    # A label that looks like an index names its own vertex, not that index.
    g = parse_graph("2 0 1\n")
    assert g.resolve("2") == 0 and g.resolve("0") == 1
    with pytest.raises(UnknownVertex):
        g.resolve("1")
    b = ConductanceGraph(3, {(0, 1): 1.0})
    assert b.resolve("2") == 2


def test_parse_graph_reads_each_distinct_token_once_and_exactly():
    tokens = ["0.1", "2", "1e-3", "0.1", "7.25", "2", "0.1", "inf", "1E-3"]
    text = "".join(f"v{i} v{i + 1} {token}\n" for i, token in enumerate(tokens))
    g = parse_graph(text)
    for i, token in enumerate(tokens):
        key = (i, i + 1)
        if token == "inf":
            assert math.isinf(g.weight(*key))
            with pytest.raises(KeyError):
                g._exact(key)
        else:
            assert g._exact(key) == Fraction(token)
            assert g.weight(*key) == float(token)
    # One object per distinct token.
    assert g._exact((0, 1)) is g._exact((3, 4)) is g._exact((6, 7))


@pytest.mark.parametrize(
    "text, line",
    [
        ("a b 0.5\nb c 0.5\nc d 0.5x\n", 3),
        ("a b 1\nb c x\nc d x\n", 2),
        ("a b 2\nb c 2\nc d 2\nd e -2\n", 4),
        ("a b 3\nb c 3\nc d 1e999\n", 3),
    ],
)
def test_parse_graph_reports_a_bad_token_on_its_own_line(text, line):
    with pytest.raises(InputError, match=f"^line {line}:"):
        parse_graph(text)


def reference_parse_value(token: str, line_no: int):
    """Reference: the value parse as it stood before shadows were built on
    first read, a ``Fraction`` per token (of its mantissa when its float is 0)."""
    if token.lower() == "inf":
        return INFINITY, None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: bad value {token!r}") from None
    if math.isnan(value):
        raise ParseError(f"line {line_no}: NaN is not a valid value")
    if math.isinf(value):
        raise ParseError(f"line {line_no}: overflowing value {token!r}; use 'inf'")
    digits = token.replace("_", "")
    frac = Fraction(digits if value else digits.lower().partition("e")[0])
    if frac.numerator < 0:
        raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
    if not value and frac:
        raise ParseError(f"line {line_no}: underflowing value {token!r}")
    return value, frac


def reference_parse_graph(text: str, mode: str = "weight"):
    """Reference: the parse loop as it stood before each label, value token
    and pair was looked up once (a ``vid`` closure, a strip pass, and a
    membership test before each store), over :func:`reference_parse_value`.
    Returns the graph and the exact value of each stored pair."""
    if mode not in ("weight", "conductance"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    ids: dict[str, int] = {}

    def vid(label):
        if label not in ids:
            ids[label] = len(ids)
        return ids[label]

    entries, exact, parsed = {}, {}, {}
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
            value_frac = parsed[tokens[2]] = reference_parse_value(tokens[2], line_no)
        value, frac = value_frac
        if u == v:
            if mode == "conductance":
                raise DiagonalError(f"line {line_no}: self-loop on {tokens[0]!r}")
            if value != 0.0:
                raise DiagonalError(f"line {line_no}: self-loop on {tokens[0]!r} with nonzero weight")
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
        if frac:  # a zero conductance is dropped, and leaves no exact value behind
            exact[key] = frac
    kind = WeightedGraph if mode == "weight" else ConductanceGraph
    return kind(len(ids), entries, tuple(ids)), exact


# Every value spelling the parser reads or refuses, except the nonzero
# tokens that underflow to 0, which the reference above still reads as 0.
PARSE_VALUES = (
    ["1", "2", "0.5", "0.25", "3.75", "10", "1e-3", "2.5E2", "+4", "007", "1_0", "3e-324", "1e300"]
    + ["0", "-0", "0.0", "0e5", "-0.0", "inf", "INF", "Inf"]
    + ["nan", "NaN", "1e999", "-1e999", "-1", "-2.5", "abc", "1/2", "0x10", "--1", "infinity"]
)


def random_edge_text(rng: random.Random) -> str:
    labels = [rng.choice("abcxyz") + str(rng.randrange(8)) for _ in range(rng.randint(1, 7))]
    lines, pairs = [], []
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        sep = rng.choice([" ", "\t", "  ", " \t "])
        u, v = rng.choice(labels), rng.choice(labels)
        if r < 0.55:
            value = rng.choice(PARSE_VALUES) if rng.random() < 0.4 else f"{rng.randrange(1, 1000) / 100:g}"
            lines.append(sep.join([u, v, value]))
            pairs.append((u, v, value))
        elif r < 0.65 and pairs:  # a redeclaration, agreeing or (other value) not
            a, b, value = rng.choice(pairs)
            other = value if rng.random() < 0.5 else rng.choice(PARSE_VALUES)
            lines.append(sep.join([b, a, other]) if rng.random() < 0.5 else sep.join([a, b, other]))
        elif r < 0.72:
            lines.append(f"vertex{sep}{u}")
        elif r < 0.77:
            lines.append(f"{u}{sep}{u}{sep}{rng.choice(['0', '-0', '1', 'inf', '0e5'])}")  # self-loop
        elif r < 0.85:
            lines.append(rng.choice(["", "   ", "# a comment", "\t# tabbed", f"{sep}{u} {v} 1 # trailing"]))
        elif r < 0.90:
            lines.append(rng.choice([f"{u} {v}", f"{u} {v} 1 2", "vertex", f"vertex {u} {v}", u, f"{u}#{v} 1"]))
        else:
            lines.append(f"{u} {v} {rng.choice(PARSE_VALUES)}")
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n"])


def parse_with_exact_values(text, mode):
    g = parse_graph(text, mode)
    return g, {key: g._exact(key) for key in g._pairs}


def parse_outcome(parse, text, mode):
    try:
        g, exact = parse(text, mode)
    except Exception as error:  # noqa: BLE001 - the class and message are the outcome
        return type(error), str(error)
    return type(g), g.n, g.labels, list(g._pairs.items()), sorted(exact.items())


def test_parse_graph_matches_the_reference_loop():
    rng = random.Random(3401)
    outcomes = collections.Counter()
    for _ in range(10_000):
        text = random_edge_text(rng)
        for mode in ("weight", "conductance"):
            got = parse_outcome(parse_with_exact_values, text, mode)
            assert got == parse_outcome(reference_parse_graph, text, mode), (text, mode)
            outcomes[got[0].__name__] += 1
    # The files reach every outcome: both graph kinds and each refusal.
    assert set(outcomes) == {
        "WeightedGraph", "ConductanceGraph", "ParseError", "NegativeWeightError", "DiagonalError", "AsymmetryError",
    }
    assert min(outcomes.values()) >= 300


@pytest.mark.parametrize("mode", ["weight", "conductance"])
@pytest.mark.parametrize("token", ["1e-400", "2E-999", "0.1e-330"])
def test_parse_graph_refuses_a_value_that_underflows_to_zero(mode, token):
    with pytest.raises(ParseError, match=rf"^line 2: underflowing value '{re.escape(token)}'$"):
        parse_graph(f"b c 1\na b {token}\n", mode=mode)


@pytest.mark.parametrize("mode", ["weight", "conductance"])
def test_parse_graph_reads_a_negative_underflow_as_negative(mode):
    with pytest.raises(NegativeWeightError, match=r"^line 1: negative value '-1e-400'$"):
        parse_graph("a b -1e-400\n", mode=mode)


def test_parse_graph_keeps_zeros_and_subnormals():
    # A zero token is a zero, not an underflow; a subnormal float is not 0.
    for token in ("0", "-0", "0e5"):
        b = parse_graph(f"a b {token}\nb c 1\n", mode="conductance")
        assert b.b == {(1, 2): 1.0} and b._tokens == {(1, 2): "1"}
        with pytest.raises(ParseError, match="zero weight between distinct vertices"):
            parse_graph(f"a b {token}\n", mode="weight")
        assert parse_graph(f"a a {token}\n", mode="weight").n == 1
    w = parse_graph("a b 3e-324\n")
    assert w.weights == {(0, 1): 5e-324} and w._exact((0, 1)) == Fraction(3, 10**324)


def test_a_huge_exponent_on_a_zero_float_costs_no_power_of_ten():
    # Fraction("1e-99999999") would expand 10**99999999; the mantissa decides instead.
    start = time.perf_counter()
    for mode in ("weight", "conductance"):
        with pytest.raises(ParseError, match=r"^line 1: underflowing value '1e-99999999'$"):
            parse_graph("a b 1e-99999999\n", mode)
        with pytest.raises(NegativeWeightError, match=r"^line 1: negative value '-1e-99999999'$"):
            parse_graph("a b -1e-99999999\n", mode)
    for zero in ("0e-99999999", "-0e-99999999"):
        b = parse_graph(f"a b {zero}\nb c 1\n", "conductance")
        assert b.b == {(1, 2): 1.0} and b._tokens == {(1, 2): "1"}
        with pytest.raises(ParseError, match="zero weight between distinct vertices"):
            parse_graph(f"a b {zero}\n", "weight")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("token", ["1_000", "1_0.5e1_0"])
def test_a_digit_separator_reads_as_float_reads_it(token, monkeypatch):
    shadow = Fraction(token.replace("_", ""))
    for mode in ("weight", "conductance"):
        g = parse_graph(f"a b {token}\n", mode)
        assert g._pairs[0, 1] == float(token) and g._exact((0, 1)) == shadow

    def no_separator(text: str) -> Fraction:  # as Python 3.10's Fraction reads a string
        if "_" in text:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text)

    monkeypatch.setattr(graphmetry.core, "Fraction", no_separator)
    assert parse_graph(f"a b {token}\n")._exact((0, 1)) == shadow


def test_a_parse_builds_no_fraction_until_an_exact_value_is_read(monkeypatch):
    built = []

    def counting(text: str) -> Fraction:
        built.append(text)
        return Fraction(text)

    monkeypatch.setattr(graphmetry.core, "Fraction", counting)
    rng = random.Random(36)
    tokens = [rng.choice(["0.1", "2", "1e-3", "7.25", "3_5", "1E2", f"{rng.randrange(1, 30) / 7:.5g}"]) for _ in range(400)]
    text = "".join(f"v{i} v{i + 1} {token}\n" for i, token in enumerate(tokens))
    distinct = sorted({token.replace("_", "") for token in tokens})
    for mode in ("weight", "conductance"):
        built.clear()
        g = parse_graph(text, mode)
        assert built == []
        shadows = [g._exact(key) for key in g._pairs]
        assert sorted(built) == distinct
        assert shadows == [Fraction(token.replace("_", "")) for token in tokens]
        assert [g._exact(key) for key in g._pairs] == shadows and sorted(built) == distinct


def test_a_parsed_graph_pickles_copies_and_compares_as_before():
    text = "a b 0.1\nb c 1_0\nc d 1e-3\na d 0.1\nvertex e\n"
    shadows = {(0, 1): Fraction(1, 10), (1, 2): Fraction(10), (2, 3): Fraction(1, 1000), (0, 3): Fraction(1, 10)}
    for kind, mode in ((WeightedGraph, "weight"), (ConductanceGraph, "conductance")):
        g = parse_graph(text, mode)
        assert g == kind(5, dict(g._pairs), g.labels)  # equality ignores the tokens
        g._exact((0, 1))  # a copy taken after a read carries the same values
        for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert h == g and h.labels == g.labels and graph_digest(h) == graph_digest(g)
            assert {key: h._exact(key) for key in h._pairs} == shadows


def test_concurrent_readers_of_a_parsed_graph_share_one_shadow_per_token():
    text = "".join(f"v{i} v{i + 1} {(i % 13 + 1) / 8}\n" for i in range(300))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = parse_graph(text, "conductance")
            results = [None] * 8

            def read(i):
                results[i] = [g._exact(key) for key in g._pairs]

            workers = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            first = results[0]
            assert first == [Fraction(str((i % 13 + 1) / 8)) for i in range(300)]
            for other in results[1:]:
                assert all(a is b for a, b in zip(first, other, strict=True))
    finally:
        sys.setswitchinterval(previous)


def test_a_graph_takes_no_exact_map():
    for kind in (WeightedGraph, ConductanceGraph):
        with pytest.raises(TypeError, match="exact"):
            kind(2, {(0, 1): 1.0}, exact={(0, 1): Fraction(1)})
        with pytest.raises(TypeError):
            kind(2, {(0, 1): 1.0}, None, {(0, 1): Fraction(1)})
        assert not hasattr(kind(2, {(0, 1): 1.0}), "exact")


def test_a_graph_built_from_parsed_labels_reads_its_own_floats():
    g = parse_graph("a b 1\nb c 2\n")
    h = WeightedGraph(g.n, {(0, 1): 5.0, (1, 2): 7.0}, g.labels)
    assert brute_metric_from(g, 0) == [0, 1, 3]
    assert brute_metric_from(h, 0) == [0, 5, 12]


def test_a_dropped_zero_conductance_leaves_no_exact_value():
    b = parse_graph("a b 0\nb c 4\n", "conductance")
    assert b.b == {(1, 2): 4.0}
    with pytest.raises(KeyError):
        b._exact((0, 1))
    w = b.reciprocal(WeightedGraph)
    assert w.weights == {(1, 2): 0.25} and brute_metric_from(w, 1) == [None, 0, Fraction(1, 4)]


def test_reciprocal_builds_no_fraction_until_an_oracle_reads_a_value(monkeypatch):
    built = []

    def counting(text: str) -> Fraction:
        built.append(text)
        return Fraction(text)

    monkeypatch.setattr(graphmetry.core, "Fraction", counting)
    text = "".join(f"v{i} v{i + 1} {(i % 7 + 1) / 4}\n" for i in range(10))
    for source, spellings in ((parse_graph(text, "conductance"), 7), (ConductanceGraph(3, {(0, 1): 3.0, (1, 2): 0.1}), 2)):
        w = source.reciprocal(WeightedGraph)
        c = w.reciprocal(ConductanceGraph)
        assert built == []
        assert brute_metric_from(w, 0)[1] == 1 / source._exact((0, 1))
        assert [c._exact(key) for key in c._pairs] == [source._exact(key) for key in source._pairs]
        assert len(built) == spellings  # once per distinct spelling, shared by the source and its lifts
        built.clear()


def test_a_lift_of_a_lift_reads_back_the_source_value():
    # 1/q beside fl(1/fl(q)): they differ in the last bit here, and the lift keeps both.
    b = parse_graph("a b 0.571429\n", "conductance")
    w = b.reciprocal(WeightedGraph)
    assert w._exact((0, 1)) == Fraction(1000000, 571429) and float(w._exact((0, 1))) != w.weights[0, 1]
    for source in (b, ConductanceGraph(2, {(0, 1): 1 / 3}), WeightedGraph(3, {(0, 1): 0.1, (1, 2): 1e-300})):
        back = source.reciprocal(ConductanceGraph if isinstance(source, WeightedGraph) else WeightedGraph)
        back = back.reciprocal(type(source))
        assert {key: back._exact(key) for key in back._pairs} == {key: source._exact(key) for key in source._pairs}


def test_exports_resolve_and_stay_sorted():
    names = graphmetry.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(graphmetry, name)] == []
    namespace: dict = {}
    exec("from graphmetry import *", namespace)
    assert set(names) <= set(namespace)


def test_bad_arguments_raise_invalid_argument():
    with pytest.raises(InvalidArgument, match="unknown mode"):
        parse_graph("a b 1\n", mode="length")
    with pytest.raises(InvalidArgument, match="at least 2"):
        extract_common_prefix_path([Path((0, 1))], WeightedGraph(2, {(0, 1): 1.0}), k=1)


# -- construction: the array pass against the per-pair reference -----------------


def reference_canonical_map(n, raw, drop_value):
    """The per-pair construction pass construction used to run, with the
    integer-id rule: normalize keys, merge symmetric duplicates, drop default
    entries.  Ids are stored as ``int``."""
    for u, v in raw:
        try:
            operator.index(u), operator.index(v)
        except TypeError:
            raise UnknownVertex(f"vertex pair ({u!r}, {v!r}) is not a pair of integer vertex ids") from None
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"vertex pair ({u}, {v}) out of range for {n} vertices")
    out = {}
    for (u, v), value in raw.items():
        value = float(value)
        key = edge_key(operator.index(u), operator.index(v))
        if key in out and out[key] != value and not (math.isnan(out[key]) and math.isnan(value)):
            raise AsymmetryError(f"conflicting values for pair {key}: {out[key]} vs {value}")
        out[key] = value
    return dict(sorted((k, w) for k, w in out.items() if w != drop_value or k[0] == k[1]))


def reference_validate(weighted, n, pairs, labels):
    """The per-pair diagnostic loop of ``validate``, over a canonical map."""
    name = (lambda u: labels[u]) if labels is not None else str
    report = []
    kind = "weight" if weighted else "conductance"
    for (u, v), w in pairs.items():
        if u != v and 0.0 <= w < INFINITY:
            continue
        pair = f"({name(u)}, {name(v)})"
        if u == v:
            if not weighted:
                report.append(f"diagonal conductance {pair} must be absent")
            elif w != 0.0:
                report.append(f"diagonal entry {pair} must be zero, got {w}")
        elif math.isnan(w):
            report.append(f"{kind} {pair} is NaN")
        elif w < 0:
            report.append(f"{kind} {pair} is negative: {w}")
        else:
            report.append(f"conductance {pair} must be finite")
    if not weighted:
        row_sums = [0.0] * n
        for (u, v), w in pairs.items():
            if u != v:
                row_sums[u], row_sums[v] = row_sums[u] + w, row_sums[v] + w
        report += [f"conductance row sum at {name(u)} is not finite" for u in range(n) if math.isinf(row_sums[u])]
    if labels is not None and len(set(labels)) != len(labels):
        report.append("duplicate vertex labels")
    return report


def test_row_sum_diagnostics_follow_the_per_pair_loop():
    # Rows near the top of float range: max + 2**969 + 2**969 is finite in
    # that order and inf in the reverse one, so a row's verdict can hang on
    # the order of its terms.  Construction names the rows the per-pair loop
    # of reference_validate names, in its order, and a built graph's row sums
    # are that loop's bit for bit.
    rng = random.Random(1813)
    top = sys.float_info.max
    near = (top / 2, top / 3, top / 4, math.nextafter(top / 2, INFINITY), top, 2.0**969, 1e300, 1.0)
    overflowed = built = order_dependent = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        pairs = {(u, v): rng.choice(near) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
        labels = tuple(f"v{u}" for u in rng.sample(range(n), n)) if rng.random() < 0.5 else None
        rows, backwards = [0.0] * n, [0.0] * n
        for (u, v), w in pairs.items():
            rows[u], rows[v] = rows[u] + w, rows[v] + w
        for (u, v), w in reversed(pairs.items()):
            backwards[u], backwards[v] = backwards[u] + w, backwards[v] + w
        order_dependent += sum(math.isinf(r) != math.isinf(r2) for r, r2 in zip(rows, backwards))
        problems = reference_validate(False, n, pairs, labels)
        if problems:
            with pytest.raises(InputError) as err:
                ConductanceGraph(n, pairs, labels)
            assert str(err.value) == "; ".join(problems)
            overflowed += 1
        else:
            b = ConductanceGraph(n, pairs, labels)
            assert float_bits(_row_sums(b._ends, b._values, n)) == float_bits(rows)
            built += 1
    assert overflowed > 100 and built > 100 and order_dependent > 0


def reference_build(kind, n, raw, labels):
    """The stored pairs as the per-pair reference builds them, or the error it raises."""
    weighted = kind is WeightedGraph
    try:
        pairs = reference_canonical_map(n, raw, INFINITY if weighted else 0.0)
        for key, value in raw.items():  # text is no value, even when float() reads one
            if isinstance(value, (str, bytes)):
                raise InvalidArgument(f"pair {key!r}: text {value!r} is not a value")
        problems = reference_validate(weighted, n, pairs, labels)
        if problems:
            raise InputError("; ".join(problems))
        return pairs
    except Exception as error:  # noqa: BLE001 - the error is the expected outcome
        return error


def float_bits(values):
    return [struct.pack("<d", w) for w in values]


def random_raw_map(rng, kind):
    """A raw construction map with every shape the pass must handle."""
    weighted = kind is WeightedGraph
    n = rng.choice((0, 1, 2, 3, 4, 5, 8))
    drop = INFINITY if weighted else 0.0
    values = [
        0.0, -0.0, 1.0, 0.5, 2.0, 1 / 3, 5e-324, 1e308, 1e300, -1.0, math.nan, math.inf, -math.inf,
        drop, drop, 3, 0, -2, Fraction(1, 3), Fraction(0), "1.5", "inf", "-0", "nan",
        np.float64(2.0), np.float32(0.1), np.int64(3), np.float64(math.nan), np.float64(-0.0),
    ]
    rare = ["abc", None, 1 + 2j, 10**400]
    ids = [np.int64, np.int32, int, int, int, int]
    raw = {}
    for _ in range(rng.choice((0, 1, 3, 6, 10, 16)) if n else rng.choice((0, 0, 1))):
        u, v = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
        if n and rng.random() < 0.3:
            u = v = rng.randrange(n)  # a diagonal entry
        if rng.random() < 0.04:
            u = rng.choice((-1, n, n + 3))
        to = rng.choice(ids)
        key = (to(u), to(v))
        if rng.random() < 0.03:
            key = rng.choice(((0.5, 1), (0.0, 1.0), ("0", 1), (u, np.float64(v)), (u, Fraction(v))))
        value = rng.choice(values) if rng.random() > 0.02 else rng.choice(rare)
        raw[key] = value
        if rng.random() < 0.3:  # the symmetric duplicate: equal, conflicting, both NaN, -0.0 by 0.0
            twin = value if rng.random() < 0.6 else rng.choice((math.nan, -0.0, 0.0, 1.0, 2.0, "2"))
            raw[key[::-1]] = twin
    labels = None
    if rng.random() < 0.4:
        labels = tuple(f"v{u}" for u in range(n))
        if n > 1 and rng.random() < 0.2:
            labels = labels[:-1] + (labels[0],)
    return n, raw, labels


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
def test_the_array_pass_builds_what_the_per_pair_pass_built(kind):
    rng = random.Random(2020 if kind is WeightedGraph else 2021)
    outcomes = collections.Counter()
    for trial in range(600):
        n, raw, labels = random_raw_map(rng, kind)
        if trial % 50 == 0:
            raw = dict(sorted(raw.items(), key=repr))  # another key order
        expected = reference_build(kind, n, dict(raw), labels)
        try:
            g = kind(n, dict(raw), labels)
        except Exception as error:  # noqa: BLE001 - compared with the reference's error
            assert isinstance(expected, Exception), (raw, error)
            assert (type(error), str(error)) == (type(expected), str(expected)), raw
            outcomes[type(error).__name__] += 1
            continue
        assert not isinstance(expected, Exception), (raw, expected)
        pairs = expected
        stored = g._pairs
        assert list(stored) == list(pairs), raw
        assert float_bits(stored.values()) == float_bits(pairs.values()), raw
        assert {type(x) for key in stored for x in key} <= {int}
        assert [g._exact(key) for key in stored] == [Fraction(repr(x)) for x in pairs.values()]
        assert g._ends.tolist() == [list(key) for key in pairs]
        assert float_bits(g._values.tolist()) == float_bits(pairs.values())
        outcomes["built"] += 1
    # Every way a build ends is reached, valid graphs included.
    for name in ("built", "InputError", "AsymmetryError", "UnknownVertex", "ValueError", "TypeError"):
        assert outcomes[name] >= 3, (name, outcomes)


def test_the_first_refused_value_loses_to_an_earlier_conflict():
    with pytest.raises(AsymmetryError, match=r"^conflicting values for pair \(0, 1\): 1.0 vs 2.0$"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 0): 2.0, (1, 2): "abc"})
    with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 2): "abc", (1, 0): 2.0})
    with pytest.raises(TypeError, match="NoneType"):  # numpy alone would read None as NaN
        ConductanceGraph(3, {(0, 1): 1.0, (1, 2): None})
    assert WeightedGraph(3, {(0, 1): -0.0, (1, 0): 0.0}).weights == {(0, 1): 0.0}
    assert struct.pack("<d", WeightedGraph(3, {(1, 0): 0.0, (0, 1): -0.0}).weights[0, 1]) == struct.pack("<d", -0.0)


@pytest.mark.parametrize("key", [(0.5, 1), (0.0, 1.0), ("0", 1), (np.float64(0.0), 1), (0, Fraction(1))])
def test_a_vertex_id_must_be_an_integer(key):
    for kind in (WeightedGraph, ConductanceGraph):
        with pytest.raises(UnknownVertex, match=r"is not a pair of integer vertex ids$"):
            kind(2, {key: 1.0})


def test_numpy_integer_ids_are_stored_as_int():
    raw = {(np.int64(1), np.int64(0)): 2.0, (np.int32(1), np.int32(2)): 3.0}
    g = WeightedGraph(3, raw)
    assert g == WeightedGraph(3, {(0, 1): 2.0, (1, 2): 3.0})
    assert {type(x) for key in g.weights for x in key} == {int}
    assert graph_digest(g) == graph_digest(WeightedGraph(3, {(0, 1): 2.0, (1, 2): 3.0}))


def test_a_built_graph_shares_nothing_with_its_input():
    rng = random.Random(77)
    b0 = random_connected_conductance(rng, 30)
    raw = dict(b0.b)
    key = next(iter(raw))
    raw[key] = raw[key] + 1.0  # an edit, as a session makes it
    b = ConductanceGraph(b0.n, raw, b0.labels)
    before = (dict(b.b), list(b.b), b._ends.copy(), b._values.copy(), resistance_matrix(b).d.copy())
    raw[key] = 99.0
    raw[(0, b.n - 1)] = 5.0
    del raw[next(iter(raw))]
    raw.clear()
    assert (dict(b.b), list(b.b)) == before[:2]
    assert np.array_equal(b._ends, before[2]) and np.array_equal(b._values, before[3])
    assert b.conductance(*key) == b0.conductance(*key) + 1.0
    assert not b._ends.flags.writeable and not b._values.flags.writeable
    b._grounded = None  # the next query rebuilds the factors from the graph alone
    assert resistance_matrix(b).d.tobytes() == before[4].tobytes()


def dict_initial_table(g):
    """The closure's start table as read off the stored dict."""
    d = np.full((g.n, g.n), INFINITY)
    keys = np.array(list(g.weights), dtype=np.intp).reshape(-1, 2)
    w = np.fromiter(g.weights.values(), float, len(keys))
    d[keys[:, 0], keys[:, 1]] = w
    d[keys[:, 1], keys[:, 0]] = w
    np.fill_diagonal(d, 0.0)
    return d


def dict_neighbors(g):
    """Adjacency lists appended pair by pair off the stored dict, then sorted."""
    adj = [[] for _ in range(g.n)]
    for (a, c), w in g._pairs.items():
        if a != c:
            adj[a].append((c, w))
            adj[c].append((a, w))
    return [sorted(lst) for lst in adj]


def dict_grounded_block(b, members):
    """The Laplacian block of the component ``members`` without its least
    vertex, built pair by pair off the stored dict: each row sum adds its
    conductances in stored-pair order."""
    index = {v: p - 1 for p, v in enumerate(members)}
    A = np.zeros((len(members) - 1, len(members) - 1))
    for (u, v), c in b._pairs.items():
        for x, y in ((u, v), (v, u)):
            if index.get(x, -1) >= 0:
                A[index[x], index[x]] += c
                if index[y] >= 0:
                    A[index[x], index[y]] = -c
    return A


def bitwise(pairs):
    return [(v, struct.pack("<d", w)) for v, w in pairs]


def with_components(rng, kind, n, parts):
    """A graph of ``kind`` whose vertices fall into ``parts`` random blocks, each
    block connected; keys given in random orientation and order."""
    cut = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    blocks = [range(a, b) for a, b in zip([0, *cut], [*cut, n])]
    perm = rng.sample(range(n), n)
    raw = {}
    for block in blocks:
        vs = [perm[i] for i in block]
        for i in range(1, len(vs)):
            raw[(vs[i], vs[rng.randrange(i)])] = rng.choice((0.5, 1.0, 2.0, 1 / 3, 3.0))
        for _ in range(len(vs)):
            u, v = rng.choice(vs), rng.choice(vs)
            if u != v and (v, u) not in raw:
                raw[(u, v)] = rng.choice((0.25, 1.0, 7.0))
    if kind is WeightedGraph:
        raw.update({(u, u): 0.0 for u in range(n) if rng.random() < 0.1})
    items = list(raw.items())
    rng.shuffle(items)
    return kind(n, dict(items))


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
def test_the_array_consumers_read_what_the_dict_holds(kind):
    rng = random.Random(4242)
    for trial in range(60):
        parts = 1 + trial % 3
        g = with_components(rng, kind, rng.randint(parts + 1, 40), parts)
        assert len(g.components()) == parts
        g._csr = None
        assert [bitwise(g.neighbors(u)) for u in range(g.n)] == [bitwise(lst) for lst in dict_neighbors(g)]
        if kind is WeightedGraph:
            assert _initial_table(g).tobytes() == dict_initial_table(g).tobytes()
            continue
        system = _GroundedSystem(g)
        for i, members in enumerate(g._labelling().members):
            if len(members) > 1:
                assert system.block(i, system._blocks).tobytes() == dict_grounded_block(g, members).tobytes()


# -- one component labelling per graph --------------------------------------------


def bfs_components(g):
    """Components by breadth-first search over the stored dict, each sorted,
    ordered by least vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g._pairs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue, found = collections.deque([s]), []
        while queue:
            u = queue.popleft()
            found.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        out.append(sorted(found))
    return out


def labelling_cases(kind):
    """n = 0, isolated vertices only, and seeded graphs of one to n components."""
    rng = random.Random(5151)
    yield kind(0, {})
    yield kind(5, {})
    for _ in range(40):
        n = rng.randint(1, 60)
        yield with_components(rng, kind, n, rng.randint(1, n))


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
def test_components_match_a_breadth_first_reference(kind):
    for g in labelling_cases(kind):
        expected = bfs_components(g)
        assert g.components() == expected
        component, members = g._labelling()
        assert members == expected and len(component) == g.n
        assert all(component[v] == i for i, m in enumerate(expected) for v in m)
        if kind is ConductanceGraph:
            assert components(g) == expected


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
def test_components_are_fresh_lists_on_every_call(kind):
    g = with_components(random.Random(12), kind, 20, 4)
    calls = [g.components] + ([lambda: components(g)] if kind is ConductanceGraph else [])
    for call in calls:
        first = call()
        expected = copy.deepcopy(first)
        first[0].append(99)
        first[1].clear()
        first.pop()
        assert call() == expected == g._labelling().members


def test_connectivity_questions_build_no_grounded_system():
    # A 4-cycle 0-1-2-3, a path 4-5-6 and the isolated vertex 7.
    b = ConductanceGraph(8, {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (0, 3): 3.0, (4, 5): 1.0, (5, 6): 2.0})
    assert separates(b, 5, 4, 6).separated and not separates(b, 1, 0, 2).separated
    with pytest.raises(Disconnected):
        separates(b, 1, 0, 4)
    with pytest.raises(Disconnected):
        is_block_graph(b)
    assert not is_tree(b)
    assert components(b) == b.components() == [[0, 1, 2, 3], [4, 5, 6], [7]]
    assert b._grounded is None
    rng = random.Random(31)
    fresh = random_connected_conductance(rng, 12)
    for _ in range(20):
        separates(fresh, *rng.sample(range(12), 3))
    is_tree(fresh)
    is_block_graph(fresh)
    assert fresh._grounded is None


# -- one vertex rule, one value rule ----------------------------------------------


def vertex_calls(bad):
    """Every public call that takes a vertex, on 3-vertex graphs (a family for
    the family layer, the tables of one for the table types), with ``bad``
    in one vertex slot."""
    w = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    b = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    table = all_pairs_metric(w)
    return {
        "weight": lambda: w.weight(bad, 0),
        "weight on the diagonal": lambda: w.weight(bad, bad),
        "conductance": lambda: b.conductance(0, bad),
        "neighbors": lambda: w.neighbors(bad),
        "reach": lambda: b.reach(bad),
        "label": lambda: w.label(bad),
        "resolve": lambda: w.resolve(bad),
        "path_length": lambda: path_length(w, Path((0, bad))),
        "single_source_distances": lambda: single_source_distances(w, bad),
        "path_metric": lambda: path_metric(w, 0, bad),
        "enumerate_geodesics": lambda: enumerate_geodesics(w, bad, 0),
        "extract_common_prefix_path": lambda: extract_common_prefix_path([Path((0, bad)), Path((0, bad, 1))], w),
        "laplacian_apply": lambda: laplacian_apply(b, np.zeros(3), bad),
        "effective_resistance": lambda: effective_resistance(b, bad, 0),
        "harmonic_maximizer": lambda: harmonic_maximizer(b, 0, bad),
        "verify_variational": lambda: verify_variational(b, bad, 2),
        "separates": lambda: separates(b, bad, 0, 1),
        "check_triangle_equality": lambda: check_triangle_equality(b, 0, 1, bad),
        "exact_weight": lambda: exact_weight(w, 0, bad),
        "enumerate_simple_paths": lambda: list(enumerate_simple_paths(w, bad, 2)),
        "brute_metric": lambda: brute_metric(w, 0, bad),
        "brute_metric_from": lambda: brute_metric_from(w, bad),
        "two_forest_sum": lambda: two_forest_sum(b, bad, 2),
        "spanning_tree_resistance": lambda: spanning_tree_resistance(b, 0, bad),
        "unique_induced_path": lambda: unique_induced_path(b, bad, 2),
        "MetricTable.label": lambda: table.label(bad),
        "GeodesicWeight.weight": lambda: geodesic_weight(table).weight(bad, 0),
        "GeodesicWeight.weight, second vertex": lambda: geodesic_weight(table).weight(0, bad),
        "GraphFamily.weight": lambda: UNIT_RAY.weight(bad, 3),
        "family_ball_scan": lambda: family_ball_scan(UNIT_RAY, bad, 2.0, 10),
        "family_elf_scan": lambda: family_elf_scan(UNIT_RAY, bad, 2.0, 10),
    }


@pytest.mark.parametrize("bad", [1.5, 2.0, "a", -1], ids=repr)
def test_every_vertex_taking_call_reads_a_vertex_as_construction_does(bad):
    wrong = {}
    for name, call in vertex_calls(bad).items():
        try:
            call()
            wrong[name] = "accepted"
        except UnknownVertex:
            pass
        except Exception as error:  # noqa: BLE001 - any other outcome is the failure
            wrong[name] = repr(error)
    assert wrong == {}


def test_integer_vertex_ids_of_other_types_are_vertices():
    w = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    assert w.weight(np.int64(1), 2) == 2.0 and w.label(np.int32(2)) == "2"
    assert w.resolve(np.int64(1)) == 1 and type(w.resolve(np.int64(1))) is int
    assert path_metric(w, np.int64(0), 2) == 3.0
    # Results hold plain ints, whatever type the caller's ids have.
    (path,) = enumerate_geodesics(w, np.int64(0), np.int32(2)).paths
    assert path.vertices == (0, 1, 2) and all(type(v) is int for v in path)
    (alone,) = enumerate_geodesics(w, np.int64(1), np.int64(1)).paths
    assert all(type(v) is int for v in alone)
    cut = separates(ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0}), True, np.int64(0), 2)
    assert cut.separator == 1 and type(cut.separator) is int
    assert all(type(v) is int for v in (*cut.side_x, *cut.side_z))
    b = ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (0, 3): 1.0})
    witness = separates(b, np.int64(1), np.int64(0), np.int32(2)).witness
    assert witness.vertices == (0, 3, 2) and all(type(v) is int for v in witness)
    report = check_triangle_equality(b, np.int64(0), np.int64(1), np.int64(2))
    assert all(type(v) is int for v in report.separation.witness)
    with pytest.raises(UnknownVertex, match=r"^vertex 3 out of range for 3 vertices$"):
        w.weight(np.int64(3), 0)
    with pytest.raises(UnknownVertex, match=r"^vertex 2.0 is not an integer vertex id$"):
        w.weight(0, 2.0)


def count_calls(count):
    """Every public call that takes a count, with ``count`` in its count slot."""
    w = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    b = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    paths = [Path((0, 1)), Path((0, 1, 2))]
    return {
        "enumerate_geodesics cap": lambda: enumerate_geodesics(w, 0, 2, cap=count),
        "verify_variational trials": lambda: verify_variational(b, 0, 2, trials=count),
        "family_ball_scan budget": lambda: family_ball_scan(UNIT_RAY, 0, 2.0, count),
        "family_ball_scan threshold": lambda: family_ball_scan(UNIT_RAY, 0, 2.0, 10, count),
        "family_elf_scan budget": lambda: family_elf_scan(UNIT_RAY, 0, 2.0, count),
        "family_elf_scan threshold": lambda: family_elf_scan(UNIT_RAY, 0, 2.0, 10, count),
        "GraphFamily.truncate": lambda: UNIT_RAY.truncate(count),
        "extract_common_prefix_path k": lambda: extract_common_prefix_path(paths, w, k=count),
    }


@pytest.mark.parametrize("call", list(count_calls(None)))
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", b"3", None], ids=repr)
def test_every_count_is_an_integer_or_invalid_argument(call, bad):
    if bad is None and call.endswith("threshold"):
        assert count_calls(bad)[call]().verdict  # None is the default threshold
        return
    with pytest.raises(InvalidArgument, match=rf" must be an integer, got {re.escape(repr(bad))}$"):
        count_calls(bad)[call]()


def test_integer_counts_of_other_types_are_counts():
    for call in count_calls(np.int64(2)).values():
        call()
    scan = family_ball_scan(UNIT_RAY, 0, 2.0, np.int64(10))
    assert scan.budget == 10 and type(scan.budget) is int


@pytest.mark.parametrize("kind", [WeightedGraph, ConductanceGraph])
@pytest.mark.parametrize("text", ["1.5", b"1.5", " 2 ", "inf", "nan"], ids=repr)
def test_text_is_not_a_value(kind, text):
    with pytest.raises(InvalidArgument, match=rf"^pair \(1, 0\): text {re.escape(repr(text))} is not a value$"):
        kind(3, {(1, 2): 1.0, (1, 0): text})


def test_text_keeps_the_precedence_of_refused_values_and_conflicts():
    # float()'s own refusals and any conflict come first, as before; the text rule
    # comes before the value diagnostics.
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        WeightedGraph(3, {(0, 1): "1.5", (1, 2): "abc"})
    with pytest.raises(AsymmetryError, match=r"^conflicting values for pair \(1, 2\): 1.0 vs 2.0$"):
        WeightedGraph(3, {(0, 1): "1.5", (1, 2): 1.0, (2, 1): 2.0})
    with pytest.raises(InvalidArgument, match=r"^pair \(1, 2\): text '1' is not a value$"):
        ConductanceGraph(3, {(0, 1): -1.0, (1, 2): "1"})
    assert WeightedGraph(2, {(0, 1): np.float64(1.5)}).weights == {(0, 1): 1.5}


def test_a_map_of_floats_runs_no_text_scan(monkeypatch):
    def refuse(values):
        raise AssertionError("scanned a map of floats for text")

    monkeypatch.setattr(graphmetry.core, "_first_text", refuse)
    g = WeightedGraph(3, {(1, 0): 1.0, (1, 2): 2.0})
    assert WeightedGraph(3, dict(g.weights)) == g
    with pytest.raises(AssertionError, match="scanned"):
        WeightedGraph(3, {(0, 1): 1})
