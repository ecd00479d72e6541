"""Tests for the exact rational reference computations."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from graphmetry import (
    ConductanceGraph,
    NegativeWeightError,
    SameVertex,
    TooLarge,
    WeightedGraph,
    components,
)
from graphmetry.cli import main
from graphmetry.oracle import (
    _bareiss_det,
    brute_metric,
    brute_metric_from,
    enumerate_simple_paths,
    exact_path_length,
    exact_weight,
    spanning_tree_resistance,
    spanning_tree_sum,
    two_forest_sum,
    unique_induced_path,
)
from .suites import random_connected_conductance, random_weighted_graph


def triangle() -> WeightedGraph:
    return WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def test_exact_weight_prefers_parsed_shadow():
    g = WeightedGraph(2, {(0, 1): 0.1}, exact={(0, 1): Fraction(1, 10)})
    assert exact_weight(g, 0, 1) == Fraction(1, 10)
    assert exact_weight(g, 0, 0) == Fraction(0)
    bare = WeightedGraph(2, {(0, 1): 0.1})
    # repr() recovers the decimal the float was parsed from.
    assert exact_weight(bare, 0, 1) == Fraction(1, 10)
    assert exact_weight(WeightedGraph(2, {}), 0, 1) is None


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
    b = ConductanceGraph(2, {(0, 1): 0.1}, exact={(0, 1): Fraction(1, 10)})
    assert exact_weight(b, 0, 1) == Fraction(1, 10)
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
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): -0.5})
    with pytest.raises(NegativeWeightError):
        brute_metric_from(g, 0)


def component_graph(b: ConductanceGraph, members: list[int]) -> ConductanceGraph:
    index = {v: i for i, v in enumerate(members)}
    return ConductanceGraph(
        len(members),
        {(index[u], index[v]): c for u, v, c in b.edges() if u in index},
        exact={(index[u], index[v]): exact_weight(b, u, v) for u, v, _ in b.edges() if u in index},
    )


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
    b = ConductanceGraph(3, {(0, 1): 1 / 3, (1, 2): 1 / 7}, exact={(0, 1): Fraction(1, 3), (1, 2): Fraction(1, 7)})
    assert spanning_tree_resistance(b, 0, 2) == 10


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
