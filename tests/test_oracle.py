"""Tests for the exact rational reference computations."""

import heapq
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from graphmetry import (
    ConductanceGraph,
    InputError,
    SameVertex,
    TooLarge,
    UnknownVertex,
    WeightedGraph,
    components,
    parse_graph,
)
from graphmetry.cli import main
import graphmetry.core
from graphmetry.core import Components, Graph
from graphmetry.oracle import (
    _bareiss_det,
    brute_metric,
    brute_metric_from,
    enumerate_simple_paths,
    exact_path_length,
    exact_weight,
    spanning_tree_resistance,
)
from .enumerators import spanning_tree_sum, two_forest_sum, unique_induced_path
from .suites import random_connected_conductance, random_weighted_graph


def triangle() -> WeightedGraph:
    return WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def test_exact_weight_prefers_parsed_shadow():
    # The token, not the float's shortest decimal 0.1.
    g = parse_graph("a b 0.10000000000000001\n")
    assert g.weights == {(0, 1): 0.1}
    assert exact_weight(g, 0, 1) == Fraction(10000000000000001, 10**17)
    assert exact_weight(g, 0, 0) == Fraction(0)
    bare = WeightedGraph(2, {(0, 1): 0.1})
    # repr() recovers the decimal the float was parsed from.
    assert exact_weight(bare, 0, 1) == Fraction(1, 10)
    assert exact_weight(WeightedGraph(2, {}), 0, 1) is None


def test_exact_weight_spells_each_float_once_as_its_repr(monkeypatch):
    built = []

    def counting(text: str) -> Fraction:
        built.append(text)
        return Fraction(text)

    monkeypatch.setattr(graphmetry.core, "Fraction", counting)
    values = [0.1, 1 / 3, 5e-324, 1e308, 2.0, 0.0, -0.0, 1e-300, 0.1 + 0.2, 0.1]
    g = WeightedGraph(11, {(0, v): w for v, w in enumerate(values, 1)})
    for _ in range(3):
        assert [exact_weight(g, 0, v) for v in range(1, 11)] == [Fraction(repr(w)) for w in values]
    # One Fraction per distinct spelling, on the first read.
    assert built == list(dict.fromkeys(map(repr, values)))


def test_enumerate_simple_paths_triangle():
    paths = [p.vertices for p in enumerate_simple_paths(triangle(), 0, 1)]
    assert paths == [(0, 1), (0, 2, 1)]


def test_enumerate_simple_paths_same_vertex():
    assert [p.vertices for p in enumerate_simple_paths(triangle(), 2, 2)] == [(2,)]


def test_enumerate_simple_paths_walks_finite_steps_only():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert [p.vertices for p in enumerate_simple_paths(g, 0, 2)] == [(0, 1, 2)]


def test_enumerate_simple_paths_disconnected():
    g = WeightedGraph(2, {})
    assert list(enumerate_simple_paths(g, 0, 1)) == []


def test_exact_path_length():
    g = WeightedGraph(3, {(0, 1): 0.1, (1, 2): 0.2})
    from graphmetry import Path

    assert exact_path_length(g, Path((0, 1, 2))) == Fraction(3, 10)
    assert exact_path_length(g, Path((0, 2))) is None


def test_brute_metric_values():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
    assert brute_metric(g, 0, 2) == Fraction(2)
    assert brute_metric(g, 0, 0) == Fraction(0)
    assert brute_metric(WeightedGraph(2, {}), 0, 1) is None


def test_brute_metric_from_agrees_with_pairwise():
    rng = random.Random(11)
    for _ in range(25):
        g = random_weighted_graph(rng, rng.randint(2, 7))
        for x in range(g.n):
            row = brute_metric_from(g, x)
            for y in range(g.n):
                assert row[y] == brute_metric(g, x, y)


def test_path_cap_enforced():
    big = WeightedGraph(13, {})
    with pytest.raises(TooLarge):
        list(enumerate_simple_paths(big, 0, 1))
    with pytest.raises(TooLarge):
        brute_metric_from(big, 0)
    with pytest.raises(TooLarge):
        unique_induced_path(ConductanceGraph(13, {}), 0, 1)


def test_tree_cap_enforced():
    big = ConductanceGraph(9, {})
    with pytest.raises(TooLarge):
        spanning_tree_sum(big)
    with pytest.raises(TooLarge):
        two_forest_sum(big, 0, 1)


def test_spanning_tree_sums_by_hand():
    # Single unit edge: one spanning tree, one separating forest.
    edge = ConductanceGraph(2, {(0, 1): 1.0})
    assert spanning_tree_sum(edge) == 1
    assert two_forest_sum(edge, 0, 1) == 1
    assert spanning_tree_resistance(edge, 0, 1) == 1

    # Unit triangle: 3 spanning trees; forests separating two fixed
    # vertices: {} is not spanning, the two single-edge... enumerate:
    # acyclic 1-edge subsets giving 2 components with 0 and 1 apart:
    # {01} no (joins them), {02}, {12} -> 2.
    k3 = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    assert spanning_tree_sum(k3) == 3
    assert two_forest_sum(k3, 0, 1) == 2
    assert spanning_tree_resistance(k3, 0, 1) == Fraction(2, 3)

    # Unit 4-cycle: 4 spanning trees; opposite pair separated by the two
    # 2-edge forests cutting both "parallel" sides -> resistance 1.
    c4 = ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    assert spanning_tree_sum(c4) == 4
    assert spanning_tree_resistance(c4, 0, 2) == 1
    assert spanning_tree_resistance(c4, 0, 1) == Fraction(3, 4)


def test_weighted_tree_sum():
    # Two parallel routes a-b with conductances 2 and (1,1) in series.
    b = ConductanceGraph(3, {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0})
    # Spanning trees: {01,02}=2, {01,12}=2, {02,12}=1 -> 5.
    assert spanning_tree_sum(b) == 5
    # Forests separating 0 from 1: {02}, {12} -> 1 + 1 = 2.
    assert two_forest_sum(b, 0, 1) == 2
    assert spanning_tree_resistance(b, 0, 1) == Fraction(2, 5)


def test_resistance_ratio_restricted_to_component():
    b = ConductanceGraph(3, {(0, 1): 1.0})
    # The whole-graph tree sum vanishes, but the pair's component carries
    # a perfectly good ratio; cross-component pairs read as infinite.
    assert spanning_tree_sum(b) == 0
    assert spanning_tree_resistance(b, 0, 1) == 1
    assert spanning_tree_resistance(b, 0, 2) is None
    with pytest.raises(SameVertex):
        spanning_tree_resistance(b, 1, 1)


def test_exact_conductance_shadow():
    b = parse_graph("a b 0.10000000000000001\n", "conductance")
    assert exact_weight(b, 0, 1) == Fraction(10000000000000001, 10**17)
    assert exact_weight(b, 0, 0) == 0


def test_unique_induced_path_cases():
    # Triangle: direct edge is the only induced route (0,2,1 has chord 0-1).
    k3 = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    unique, found = unique_induced_path(k3, 0, 1)
    assert unique and [p.vertices for p in found] == [(0, 1)]

    # 4-cycle: two chordless routes between opposite vertices.
    c4 = ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    unique, found = unique_induced_path(c4, 0, 2)
    assert not unique and len(found) == 2

    # Disconnected pair: no path at all.
    b = ConductanceGraph(3, {(0, 1): 1.0})
    unique, found = unique_induced_path(b, 0, 2)
    assert not unique and found == []

    with pytest.raises(SameVertex):
        unique_induced_path(k3, 1, 1)


def test_forest_ratio_matches_series_parallel_reduction():
    rng = random.Random(23)
    for _ in range(10):
        # Random series chain: resistance adds as sum of 1/b over edges.
        n = rng.randint(2, 6)
        b = {}
        total = Fraction(0)
        for v in range(1, n):
            c = rng.randint(1, 4)
            b[(v - 1, v)] = float(c)
            total += Fraction(1, c)
        chain = ConductanceGraph(n, b)
        assert spanning_tree_resistance(chain, 0, n - 1) == total


def test_tree_sum_matches_cayley_count():
    rng = random.Random(5)
    # Unit complete graphs: Cayley's formula n^(n-2).
    for n in (2, 3, 4, 5):
        b = ConductanceGraph(n, {(u, v): 1.0 for u in range(n) for v in range(u + 1, n)})
        assert spanning_tree_sum(b) == n ** (n - 2)
    # And on a random connected graph the two-forest sum is symmetric.
    g = random_connected_conductance(rng, 6)
    assert two_forest_sum(g, 0, 3) == two_forest_sum(g, 3, 0)


def hundredths_graph(rng: random.Random, n: int) -> WeightedGraph:
    """Weights on the 0.01 grid, many absent (inf) pairs, some isolated vertices."""
    isolated = set(rng.sample(range(n), rng.randint(0, n // 3)))
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if u in isolated or v in isolated or rng.random() < 0.5:
                continue
            weights[(u, v)] = rng.randrange(1, 1001) / 100
    return WeightedGraph(n, weights)


def test_dijkstra_oracle_matches_path_enumeration():
    rng = random.Random(2718)
    for _ in range(120):
        g = hundredths_graph(rng, rng.randint(2, 8))
        for x in range(g.n):
            row = brute_metric_from(g, x)
            assert row == [brute_metric(g, x, y) for y in range(g.n)]


def test_dijkstra_oracle_rejects_negative_weights():
    # The oracle never sees a negative weight: construction rejects it.
    with pytest.raises(InputError, match=r"^weight \(1, 2\) is negative: -0.5$"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 2): -0.5})


def fraction_dijkstra(g: WeightedGraph, x: int) -> list[Fraction | None]:
    """Reference: Dijkstra from x that adds and compares the exact weights as
    Fractions, meeting each pair as the search reaches it."""
    best: list[Fraction | None] = [None] * g.n
    best[x] = Fraction(0)
    heap: list[tuple[Fraction, int]] = [(Fraction(0), x)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, _ in g.neighbors(u):
            if done[v]:
                continue
            total = d + exact_weight(g, u, v)
            if best[v] is None or total < best[v]:
                best[v] = total
                heapq.heappush(heap, (total, v))
    return best


# Floats with no decimal shadow, read through repr(): 1/3 is 3333333333333333/10**16,
# 0.1 + 0.2 is 7500000000000001/25000000000000000, and beside 5e-324 a 1e308
# weight scales to an integer of over 600 digits.
BARE_WEIGHTS = (1 / 3, 0.1 + 0.2, 5e-324, 1e308, 1.0, 2.0, 7.0, 0.0)
DECIMAL_TOKENS = ("0.1", "0.25", "1", "3", "12.5", "1e-3", "7e-9", "5e-324", "1e308", "1.7976931348623157e308")


def mixed_exact_graph(rng: random.Random) -> WeightedGraph:
    """At most 10 vertices: parsed decimal shadows or bare library floats
    (zeros included), absent pairs and isolated vertices."""
    n = rng.randint(1, 10)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    if rng.random() < 0.5:
        lines = [f"v{u} v{v} {rng.choice(DECIMAL_TOKENS)}" for u, v in pairs]
        lines += [f"vertex v{u}" for u in range(n)]  # isolated vertices keep their place
        return parse_graph("\n".join(lines))
    return WeightedGraph(n, {key: rng.choice(BARE_WEIGHTS) for key in pairs})


def test_integer_dijkstra_matches_the_fraction_dijkstra():
    rng = random.Random(1609)
    graphs = [mixed_exact_graph(rng) for _ in range(240)]
    for g in graphs:
        for x in range(g.n):
            assert brute_metric_from(g, x) == fraction_dijkstra(g, x)
    # The mix reaches every case: shadows, bare floats, zeros, isolated vertices.
    assert any(g._tokens for g in graphs) and any(not g._tokens and g.weights for g in graphs)
    assert any(0.0 in g.weights.values() for g in graphs)
    assert any(not g.neighbors(u) for g in graphs for u in range(g.n))


def component_graph(b: ConductanceGraph, members: list[int]) -> ConductanceGraph:
    """The component on ``members``, renumbered; a library graph, so its
    floats keep their exact values."""
    index = {v: i for i, v in enumerate(members)}
    return ConductanceGraph(len(members), {(index[u], index[v]): c for u, v, c in b.edges() if u in index})


def test_matrix_tree_oracle_matches_forest_enumeration():
    rng = random.Random(1847)
    for _ in range(30):
        # Up to three connected blocks on shuffled vertices, 0.01-grid conductances.
        n = rng.randint(2, 8)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
        b = {}
        for block in (order[i:j] for i, j in zip([0, *cuts], [*cuts, n])):
            for u, v in itertools.combinations(block, 2):
                if v == block[block.index(u) + 1] or rng.random() < 0.25:
                    b[(u, v)] = rng.randrange(1, 1001) / 100
        b = ConductanceGraph(n, b)
        for members in components(b):
            sub = component_graph(b, members)
            trees = spanning_tree_sum(sub)
            for (i, x), (j, y) in itertools.combinations(enumerate(members), 2):
                exact = spanning_tree_resistance(b, x, y)
                assert exact == two_forest_sum(sub, i, j) / trees
                assert exact == spanning_tree_resistance(b, y, x)
            for y in range(n):
                if y not in members:
                    assert spanning_tree_resistance(b, members[0], y) is None


def test_matrix_tree_oracle_reads_the_exact_shadows():
    # One third in series with one seventh: the float values are not exact.
    b = WeightedGraph(3, {(0, 1): 3.0, (1, 2): 7.0}).reciprocal(ConductanceGraph)
    assert [exact_weight(b, 0, 1), exact_weight(b, 1, 2)] == [Fraction(1, 3), Fraction(1, 7)]
    assert spanning_tree_resistance(b, 0, 2) == 10


def test_a_library_tree_lifts_to_its_exact_length():
    b = ConductanceGraph(3, {(0, 1): 3.0, (1, 2): 3.0})
    assert brute_metric_from(b.reciprocal(WeightedGraph), 0)[2] == Fraction(2, 3)
    assert spanning_tree_resistance(b, 0, 2) == Fraction(2, 3)


# Most have a float reciprocal whose shortest decimal is not the exact one (1/3.0 is 0.3333333333333333).
TREE_VALUES = [3.0, 0.1, 0.7, *(k / 7 for k in range(1, 7))]


def tree_views(rng: random.Random, n: int) -> list[tuple[WeightedGraph, ConductanceGraph, Graph, Graph]]:
    """One seeded tree built four ways, each as (weight view, conductance view,
    source, lift): a library conductance or weight graph lifted by
    ``reciprocal``, and a parsed conductance or weight file lifted as the CLI
    lifts a file read in the other mode."""
    pairs = {(rng.randrange(v), v): rng.choice(TREE_VALUES) for v in range(1, n)}
    text = "".join(f"vertex v{u}\n" for u in range(n))  # parsed ids follow vertex order
    text += "".join(f"v{u} v{v} {x!r}\n" for (u, v), x in pairs.items())
    views = []
    for source in (
        ConductanceGraph(n, pairs),
        WeightedGraph(n, pairs),
        parse_graph(text, "conductance"),
        parse_graph(text, "weight"),
    ):
        lift = source.reciprocal(ConductanceGraph if isinstance(source, WeightedGraph) else WeightedGraph)
        w, b = (source, lift) if isinstance(source, WeightedGraph) else (lift, source)
        views.append((w, b, source, lift))
    return views


def test_the_tree_theorem_holds_exactly_in_every_input_mode():
    # On a tree R = delta_{1/b}: the two oracles agree exactly, on library and parsed graphs alike.
    rng = random.Random(3501)
    for _ in range(120):
        for w, b, source, lift in tree_views(rng, rng.randint(2, 8)):
            for x in range(w.n):
                distances = brute_metric_from(w, x)
                for y in range(x + 1, w.n):
                    assert distances[y] == spanning_tree_resistance(b, x, y)
            for u, v, _ in b.edges():
                assert exact_weight(lift, u, v) == 1 / exact_weight(source, u, v)


def test_bareiss_determinant_matches_rational_elimination():
    def rational_det(m):
        a = [[Fraction(v) for v in row] for row in m]
        n, det = len(a), Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                det = -det
            det *= a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                a[i] = [p - f * q for p, q in zip(a[i], a[k])]
        return det

    rng = random.Random(1968)
    assert _bareiss_det([]) == 1
    for _ in range(300):
        n = rng.randint(1, 6)
        # Small entries with many zeros force row swaps and singular cases.
        m = [[rng.choice([0, 0, 0, -2, -1, 1, 3, 10**12]) for _ in range(n)] for _ in range(n)]
        assert _bareiss_det(m) == rational_det(m)


@pytest.mark.parametrize(
    "argv, n",
    [(("metric", "--all-pairs", "--oracle"), 12), (("resistance", "--matrix", "--oracle"), 8)],
)
def test_oracles_are_polynomial_on_complete_graphs(tmp_path, capsys, argv, n):
    # K12 has about 1.1e8 simple paths from each vertex and K8 has
    # 8**6 spanning trees; neither may be enumerated within the budget.
    rng = random.Random(n)
    path = tmp_path / "complete.edges"
    path.write_text(
        "".join(f"v{u} v{v} {rng.randrange(1, 100) / 10}\n" for u in range(n) for v in range(u + 1, n))
    )
    start = time.perf_counter()
    code = main([argv[0], str(path), *argv[1:], "--json"])
    elapsed = time.perf_counter() - start
    oracle = json.loads(capsys.readouterr().out)["results"]["oracle"]
    assert code == 0 and len(oracle) == n
    assert elapsed < 2.0


def test_the_oracles_check_their_vertices():
    w = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    b = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    calls = {
        "spanning_tree_resistance": lambda: spanning_tree_resistance(b, 0, 99),
        "brute_metric": lambda: brute_metric(w, 0, 99),
        "brute_metric_from": lambda: brute_metric_from(w, 99),
        "two_forest_sum": lambda: two_forest_sum(b, 0, 99),
        "unique_induced_path": lambda: unique_induced_path(b, 0, 99),
        "enumerate_simple_paths": lambda: list(enumerate_simple_paths(w, 0, 99)),
        "exact_weight": lambda: exact_weight(b, 99, 0),
    }
    for name, call in calls.items():
        with pytest.raises(UnknownVertex, match=r"^vertex 99 out of range for 3 vertices$"):
            call()


def test_valid_vertices_keep_the_same_vertex_and_cap_order():
    b = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    tree9 = ConductanceGraph(9, {(i, i + 1): 1.0 for i in range(8)})
    path13 = WeightedGraph(13, {(i, i + 1): 1.0 for i in range(12)})
    cases = [
        (lambda: spanning_tree_resistance(tree9, 4, 4), SameVertex, "resistance needs two distinct vertices"),
        (lambda: spanning_tree_resistance(tree9, 0, 4), TooLarge, "tree enumeration capped at 8 vertices, got 9"),
        (lambda: two_forest_sum(tree9, 4, 4), TooLarge, "tree enumeration capped at 8 vertices, got 9"),
        (lambda: two_forest_sum(b, 1, 1), SameVertex, "the separated vertices must be distinct"),
        (lambda: unique_induced_path(path13, 4, 4), TooLarge, "path enumeration capped at 12 vertices, got 13"),
        (lambda: unique_induced_path(b, 1, 1), SameVertex, "induced-path search needs two distinct vertices"),
        (lambda: list(enumerate_simple_paths(path13, 0, 99)), TooLarge, "path enumeration capped at 12 vertices, got 13"),
        (lambda: brute_metric_from(path13, 99), TooLarge, "exact path oracle capped at 12 vertices, got 13"),
        (lambda: spanning_tree_sum(tree9), TooLarge, "tree enumeration capped at 8 vertices, got 9"),
    ]
    for call, kind, message in cases:
        with pytest.raises(kind, match=f"^{message}$"):
            call()
    assert [p.vertices for p in enumerate_simple_paths(b, 1, 1)] == [(1,)]


@pytest.mark.parametrize("argv", [("metric", "--all-pairs", "--oracle"), ("resistance", "--matrix", "--oracle")])
def test_the_oracles_walk_each_component_once(tmp_path, capsys, monkeypatch, argv):
    # Three components of 3, 2 and 1 vertices: the exact oracles read x's
    # component from the graph's kept labelling, which one pass over the
    # adjacency builds, instead of searching again from every source.
    path = tmp_path / "three.edges"
    path.write_text("a b 1\nb c 2\nd e 0.5\nvertex f\n")
    searches, labellings = [], []
    reach = Graph.reach

    def counted(self, *args, **kwargs):
        searches.append(args[0])
        return reach(self, *args, **kwargs)

    def labelling(*args):
        labellings.append(args[1])
        return Components(*args)

    monkeypatch.setattr(Graph, "reach", counted)
    monkeypatch.setattr(graphmetry.core, "Components", labelling)
    code = main([argv[0], str(path), *argv[1:], "--json"])
    oracle = json.loads(capsys.readouterr().out)["results"]["oracle"]
    assert code == 0 and list(oracle) == list("abcdef")
    assert searches == [] and labellings == [[[0, 1, 2], [3, 4], [5]]]
