"""The array parser and the CSR walks against the line-by-line parse loop
and the tuple-list walks they replaced (:mod:`tests.references`)."""

from __future__ import annotations

import collections
import random
import re
import struct

import pytest

from graphmetry import ConductanceGraph, WeightedGraph, enumerate_geodesics, parse_graph, separates
from graphmetry.errors import GraphmetryError
from graphmetry.structure import biconnected_components

from . import references

# The value tokens the parser reads or refuses, valid and not.
ODD_TOKENS = ["0", "-0", "inf", "nan", "1e999", "1e-400", "-1e-400", "1_000", "0.1", "0.1000000000000000055511151231257827"]
PLAIN_TOKENS = ["1", "2", "0.5", "3", "0.25", "7", "1e-3", "2.5E2"]


def front_end_document(rng: random.Random) -> str:
    labels = [rng.choice("abpq") + str(rng.randrange(6)) for _ in range(rng.randint(1, 8))]
    declared: list[tuple[str, str, str]] = []
    lines = []
    odd = rng.random() < 0.5  # about half the documents hold only plain values
    for _ in range(rng.randint(0, 14)):
        a, b = rng.choice(labels), rng.choice(labels)
        sep = rng.choice([" ", "\t", "  ", " \t"])
        r = rng.random()
        if r < 0.5:
            token = rng.choice(ODD_TOKENS if odd and rng.random() < 0.3 else PLAIN_TOKENS)
            if a == b:
                token = rng.choice(["0", "-0", "1"]) if odd else "0"  # a a 0, or a refused self-loop
            lines.append(sep.join([a, b, token]) + rng.choice(["", "", " # note", "#x"]))
            declared.append((a, b, token))
        elif r < 0.62 and declared:
            a, b, token = rng.choice(declared)
            if token in ("0", "-0") and odd:
                token = rng.choice(["1", "0", "-0"])  # a zero conductance, then a conflict or not
            elif token == "0.1":
                token = "0.1000000000000000055511151231257827"  # the same float, another spelling
            elif odd and rng.random() < 0.3:
                token = rng.choice(PLAIN_TOKENS)
            lines.append(sep.join([b, a, token] if rng.random() < 0.5 else [a, b, token]))
        elif r < 0.7:
            lines.append(f"vertex{sep}{a}")
        elif r < 0.8:
            lines.append(rng.choice(["", "  ", "# comment", "\t# tabbed", "#"]))
        elif r < 0.86 and odd:
            lines.append(rng.choice([f"vertex {a} {b}", f"{a} {b}", f"{a} {b} 1 2", f"{a}#{b} 1", "vertex"]))
        else:
            lines.append(f"{a} {b} {rng.choice(PLAIN_TOKENS)}" if a != b else f"{a} {a} 0")
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(lines) + rng.choice(["", newline])


def outcome(parse, text: str, mode: str):
    try:
        g = parse(text, mode)
    except GraphmetryError as error:
        return type(error), str(error)
    return (
        type(g),
        g.labels,
        [(key, struct.pack("<d", w)) for key, w in g._pairs.items()],
        g._ends.tolist(),
        g._values.tobytes(),
        [(key, g._exact(key)) for key in g._pairs],
        g._tokens,
    )


def test_parse_graph_matches_the_line_by_line_loop():
    rng = random.Random(3800)
    kinds = collections.Counter()
    for _ in range(2000):
        text = front_end_document(rng)
        for mode in ("weight", "conductance"):
            got = outcome(parse_graph, text, mode)
            assert got == outcome(references.parse_graph, text, mode), (text, mode)
            kinds[got[0].__name__] += 1
    # Both graph kinds and every refusal the parser makes are reached.
    assert set(kinds) == {
        "WeightedGraph", "ConductanceGraph", "ParseError", "NegativeWeightError", "DiagonalError", "AsymmetryError",
    }
    assert min(kinds.values()) >= 50


@pytest.mark.parametrize("mode", ["weight", "conductance"])
def test_the_first_offending_line_decides_the_error(mode):
    # A conflict before a bad token, a bad token before a conflict, and a
    # token-count error after a conflict: the earliest line wins.
    cases = [
        ("a b 1\nb a 2\nc d nan\n", "line 2: pair (b, a) redeclared with conflicting value 2"),
        ("a b 1\nc d nan\nb a 2\n", "line 2: NaN is not a valid value"),
        ("a b 1\na b 3\nc d\n", "line 2: pair (a, b) redeclared with conflicting value 3"),
        ("c d\na b 1\na b 3\n", "line 1: expected '<label> <label> <value>', got 'c d'"),
    ]
    for text, message in cases:
        with pytest.raises(GraphmetryError) as error:
            parse_graph(text, mode)
        assert str(error.value) == message


def test_a_zero_conductance_counts_for_conflicts_but_is_not_stored():
    g = parse_graph("a b 0\nb c 1\nb a -0\n", "conductance")
    assert g.b == {(1, 2): 1.0} and g._tokens == {(1, 2): "1"}
    with pytest.raises(GraphmetryError, match=r"^line 3: pair \(b, a\) redeclared with conflicting value 1$"):
        parse_graph("a b 0\nb c 1\nb a 1\n", "conductance")


def test_a_duplicated_pair_keeps_its_last_spelling():
    long = "0.1000000000000000055511151231257827"
    for first, last in (("0.1", long), (long, "0.1")):
        g = parse_graph(f"a b {first}\nb a {last}\n")
        assert g._tokens == {(0, 1): last} and g._exact((0, 1)) == parse_graph(f"a b {last}\n")._exact((0, 1))


# -- the walks --------------------------------------------------------------------


def walk_graphs(rng: random.Random):
    """Trees, sparse graphs, graphs of many components, isolated vertices, n = 0 and 1."""
    for kind in (ConductanceGraph, WeightedGraph):
        yield kind(0, {})
        yield kind(1, {})
    for rows, cols in ((3, 4), (4, 4), (2, 7), (4, 5)):  # unit grids: many geodesics per pair
        grid = {(r * cols + c, r * cols + c + 1): 1.0 for r in range(rows) for c in range(cols - 1)}
        grid.update({(r * cols + c, (r + 1) * cols + c): 1.0 for r in range(rows - 1) for c in range(cols)})
        yield WeightedGraph(rows * cols, grid)
    for trial in range(90):
        n = rng.randint(2, 40)
        pairs = {}
        shape = trial % 3
        if shape == 0:  # a tree
            for v in range(1, n):
                pairs[(rng.randrange(v), v)] = rng.choice((0.5, 1.0, 2.0))
        else:  # sparse, in 1 or several components, some vertices left isolated
            parts = 1 if shape == 1 else rng.randint(2, max(2, n // 3))
            group = [rng.randrange(parts) for _ in range(n)]
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and group[u] == group[v] and (v, u) not in pairs:
                    pairs[u, v] = rng.choice((0.5, 1.0, 2.0, 3.0) if trial % 4 else (1.0,))
        items = list(pairs.items())
        rng.shuffle(items)
        kind = ConductanceGraph if trial % 2 else WeightedGraph
        yield kind(n, dict(items))


def bits(adj: list[tuple[int, float]]) -> list[tuple[int, bytes]]:
    return [(v, struct.pack("<d", w)) for v, w in adj]


def test_the_csr_walks_match_the_tuple_lists():
    rng = random.Random(3801)
    seen = collections.Counter()
    for g in walk_graphs(rng):
        adj = references.adjacency(g)
        assert [bits(g.neighbors(u)) for u in range(g.n)] == [bits(lst) for lst in adj]
        assert g._labelling() == references.labelling(g)
        seen["components > 1"] += len(g._labelling().members) > 1
        for _ in range(6 if g.n else 0):
            start, stop = rng.randrange(g.n), rng.choice([None, rng.randrange(g.n)])
            banned = rng.choice([None, *(v for v in range(g.n) if v != start)])
            for args in ((start,), (start, banned), (start, banned, stop), (start, None, stop)):
                got, want = g.reach(*args), references.reach(g, *args)
                assert list(got.items()) == list(want.items())
        b = g if isinstance(g, ConductanceGraph) else g.reciprocal(ConductanceGraph)
        assert biconnected_components(b) == references.biconnected_components(b)
        for _ in range(6 if b.n >= 3 else 0):
            x, y, z = rng.sample(range(b.n), 3)
            try:
                want = references.separates(b, y, x, z)
            except GraphmetryError as error:
                with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                    separates(b, y, x, z)
                continue
            assert separates(b, y, x, z) == want
            seen[type(want).__name__] += 1
        w = g if isinstance(g, WeightedGraph) else g.reciprocal(WeightedGraph)
        component = w._labelling().component
        for _ in range(8 if w.n else 0):
            x, y = rng.randrange(w.n), rng.randrange(w.n)
            if component[x] == component[y]:
                found = enumerate_geodesics(w, x, y, cap=3)
                assert found == references.enumerate_geodesics(w, x, y, cap=3)
                seen["truncated"] += found.truncated
    assert min(seen.values()) >= 5, seen


def test_neighbors_is_a_fresh_list_each_call():
    g = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    first = g.neighbors(1)
    first.append((9, 9.0))
    assert g.neighbors(1) == [(0, 1.0), (2, 2.0)]
