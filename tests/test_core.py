"""Tests for graph construction, parsing, validation, and serialization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import graphmetry

from graphmetry import (
    INFINITY,
    AsymmetryError,
    ConductanceGraph,
    DiagonalError,
    InputError,
    InternalInvariantError,
    InvalidArgument,
    NegativeWeightError,
    OutOfRange,
    ParseError,
    Path,
    UnknownVertex,
    WeightedGraph,
    extract_common_prefix_path,
    graph_digest,
    parse_graph,
    serialize_graph,
    validate,
    weights_close,
)
from graphmetry.core import invariant_error, weights_close_array
from .suites import random_weighted_graph

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

    assert g.exact[(0, 1)] == Fraction(1, 10)
    assert g.exact[(1, 2)] == Fraction(3)


def test_validate_weighted():
    g = WeightedGraph(3, {(0, 1): -1.0, (1, 2): 0.0, (2, 2): 5.0})
    report = validate(g)
    assert len(report) == 3
    assert any("negative" in r for r in report)
    assert any("zero off diagonal" in r for r in report)
    assert any("diagonal" in r for r in report)
    assert validate(WeightedGraph(2, {(0, 1): 1.0})) == []


def test_validate_conductance():
    b = ConductanceGraph(2, {(0, 1): math.nan})
    assert any("NaN" in r for r in validate(b))
    ok = ConductanceGraph(2, {(0, 1): 3.0})
    assert validate(ok) == []


def test_validate_duplicate_labels():
    g = WeightedGraph(2, {(0, 1): 1.0}, labels=("a", "a"))
    assert any("duplicate" in r for r in validate(g))


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


def test_digest_is_deterministic_and_mode_sensitive():
    g1 = parse_graph(P3_TEXT)
    g2 = parse_graph(P3_TEXT)
    assert graph_digest(g1) == graph_digest(g2)
    b = parse_graph("a b 1\nb c 1\n", mode="conductance")
    assert graph_digest(g1) != graph_digest(b)


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
            assert key not in g.exact and math.isinf(g.weight(*key))
        else:
            assert g.exact[key] == Fraction(token)
            assert g.weight(*key) == float(token)
    # One object per distinct token.
    assert g.exact[(0, 1)] is g.exact[(3, 4)] is g.exact[(6, 7)]


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
