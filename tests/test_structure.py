"""Tests for separation, triangle equality, and the tree/block characterizations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graphmetry import (
    ConductanceGraph,
    Disconnected,
    WeightedGraph,
    NotDistinct,
    NotSeparated,
    SeparationCertificate,
    biconnected_components,
    check_tree_theorem,
    check_triangle_equality,
    compatible_resistance_weight,
    effective_resistance,
    inverse_conductance_weight,
    geodesic_weight,
    is_block_graph,
    is_generating,
    is_tree,
    parse_graph,
    resistance_matrix,
    separates,
)
from graphmetry.oracle import unique_induced_path
from graphmetry.core import weights_close_array
from graphmetry.pathmetric import all_pairs_metric
from .suites import random_block_graph, random_connected_conductance, random_nontree, random_tree


def p3() -> ConductanceGraph:
    return ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, labels=("a", "b", "c"))


def k3() -> ConductanceGraph:
    return ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def c4() -> ConductanceGraph:
    return ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})


def bowtie() -> ConductanceGraph:
    # Two triangles glued at vertex 2.
    return ConductanceGraph(
        5,
        {
            (0, 1): 1.0,
            (0, 2): 1.0,
            (1, 2): 1.0,
            (2, 3): 1.0,
            (2, 4): 1.0,
            (3, 4): 1.0,
        },
    )


def test_separates_path_midpoint():
    out = separates(p3(), 1, 0, 2)
    assert isinstance(out, SeparationCertificate)
    assert out.separated and out.verified
    assert out.separator == 1
    assert out.side_x == [0] and out.side_z == [2]


def test_separates_triangle_fails():
    out = separates(k3(), 1, 0, 2)
    assert isinstance(out, NotSeparated)
    assert not out.separated
    assert out.witness.vertices == (0, 2)


def test_separates_bowtie():
    b = bowtie()
    out = separates(b, 2, 0, 4)
    assert out.separated
    assert out.side_x == [0, 1] and out.side_z == [3, 4]
    assert isinstance(separates(b, 0, 1, 2), NotSeparated)


def test_separates_guards():
    with pytest.raises(NotDistinct):
        separates(p3(), 0, 0, 2)
    split = ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(Disconnected):
        separates(split, 1, 0, 2)


def test_separates_witness_is_a_real_detour():
    rng = random.Random(101)
    for _ in range(40):
        b = random_connected_conductance(rng, rng.randint(3, 9))
        x, y, z = rng.sample(range(b.n), 3)
        out = separates(b, y, x, z)
        if isinstance(out, NotSeparated):
            w = out.witness
            assert w.start == x and w.end == z
            assert y not in w.vertices
            assert all(b.conductance(u, v) > 0 for u, v in w.steps())
        else:
            assert out.verified
            assert x in out.side_x and z in out.side_z


def test_triangle_equality_path():
    report = check_triangle_equality(p3(), 0, 1, 2)
    assert report.equal and report.separated and report.consistent
    assert abs(report.lhs - 2.0) <= 1e-9
    assert abs(report.margin) <= 1e-9


def test_triangle_equality_triangle():
    report = check_triangle_equality(k3(), 0, 1, 2)
    assert not report.equal and not report.separated and report.consistent
    assert abs(report.lhs - 2 / 3) <= 1e-9
    assert abs(report.rhs - 4 / 3) <= 1e-9
    assert report.margin > 0.5


def test_triangle_equality_cycle():
    report = check_triangle_equality(c4(), 0, 1, 2)
    assert report.consistent and not report.equal
    assert abs(report.lhs - 1.0) <= 1e-9
    assert abs(report.rhs - 1.5) <= 1e-9


def test_triangle_equality_accepts_precomputed_table():
    b = bowtie()
    table = resistance_matrix(b)
    fresh = check_triangle_equality(b, 0, 2, 4)
    reused = check_triangle_equality(b, 0, 2, 4, table=table)
    assert fresh == reused
    assert reused.equal and reused.separated


def test_triangle_equality_guards():
    with pytest.raises(NotDistinct):
        check_triangle_equality(k3(), 0, 1, 1)
    split = ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(Disconnected):
        check_triangle_equality(split, 0, 1, 2)


def test_triangle_consistency_random():
    rng = random.Random(103)
    for _ in range(40):
        b = random_connected_conductance(rng, rng.randint(3, 8))
        table = resistance_matrix(b)
        for _ in range(10):
            x, y, z = rng.sample(range(b.n), 3)
            report = check_triangle_equality(b, x, y, z, table=table)
            assert report.consistent
            if not report.separated:
                assert report.margin > 1e-9


def test_is_tree():
    assert is_tree(p3())
    assert not is_tree(k3())
    assert is_tree(ConductanceGraph(1, {}))
    assert is_tree(ConductanceGraph(0, {}))
    assert not is_tree(ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0}))


def test_biconnected_components():
    assert sorted(sorted(blk) for blk in biconnected_components(p3())) == [[0, 1], [1, 2]]
    assert [sorted(blk) for blk in biconnected_components(k3())] == [[0, 1, 2]]
    blocks = {tuple(sorted(blk)) for blk in biconnected_components(bowtie())}
    assert blocks == {(0, 1, 2), (2, 3, 4)}
    assert biconnected_components(ConductanceGraph(1, {})) == []


def test_is_block_graph_examples():
    ok, offending = is_block_graph(k3())
    assert ok and offending is None
    assert is_block_graph(p3())[0]
    assert is_block_graph(bowtie())[0]
    ok, offending = is_block_graph(c4())
    assert not ok
    assert sorted(offending) == [0, 1, 2, 3]
    with pytest.raises(Disconnected):
        is_block_graph(ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0}))


def test_block_graph_matches_induced_path_oracle():
    rng = random.Random(107)
    for i in range(40):
        n = rng.randint(2, 8)
        b = random_block_graph(rng, n) if i % 2 == 0 else random_connected_conductance(rng, n)
        ok, _ = is_block_graph(b)
        oracle = all(
            unique_induced_path(b, x, y)[0]
            for x in range(b.n)
            for y in range(x + 1, b.n)
        )
        assert ok == oracle


def test_compatibility_examples():
    cert = compatible_resistance_weight(k3())
    assert cert.compatible and cert.verdict == "COMPATIBLE"
    assert cert.weight is not None
    assert abs(cert.weight.weight(0, 1) - 2 / 3) <= 1e-9

    bad = compatible_resistance_weight(c4())
    assert not bad.compatible and bad.verdict == "INCOMPATIBLE"
    assert bad.counterexample == (0, 2)
    assert bad.weight is None

    lone = compatible_resistance_weight(ConductanceGraph(1, {}))
    assert lone.compatible


def test_compatible_weight_regenerates_resistance():
    rng = random.Random(109)
    for _ in range(20):
        b = random_block_graph(rng, rng.randint(2, 8))
        cert = compatible_resistance_weight(b)
        assert cert.compatible
        d = all_pairs_metric(cert.weight).d
        R = resistance_matrix(b).d
        for x in range(b.n):
            for y in range(b.n):
                assert abs(d[x, y] - R[x, y]) <= 1e-9 * max(1.0, abs(R[x, y]))


def test_compatibility_matches_block_recognition():
    rng = random.Random(113)
    for i in range(40):
        n = rng.randint(2, 8)
        b = random_block_graph(rng, n) if i % 3 == 0 else random_connected_conductance(rng, n)
        assert compatible_resistance_weight(b).compatible == is_block_graph(b)[0]


def test_inverse_conductance_weight():
    w = inverse_conductance_weight(ConductanceGraph(3, {(0, 1): 2.0, (1, 2): 4.0}))
    assert w.weight(0, 1) == 0.5
    assert w.weight(1, 2) == 0.25
    assert math.isinf(w.weight(0, 2))


def test_inverse_conductance_weight_keeps_exact_reciprocals():
    w = inverse_conductance_weight(parse_graph("a b 3\nb c 0.4\nc d 0\n", mode="conductance"))
    assert w.exact == {(0, 1): Fraction(1, 3), (1, 2): Fraction(5, 2)}


def test_tree_theorem_examples():
    path = check_tree_theorem(p3())
    assert path.is_tree and path.metrics_equal and path.consistent

    cyc = check_tree_theorem(k3())
    assert not cyc.is_tree and not cyc.metrics_equal and cyc.consistent

    with pytest.raises(Disconnected):
        check_tree_theorem(ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0}))


def test_tree_theorem_values_on_a_weighted_tree():
    b = ConductanceGraph(4, {(0, 1): 2.0, (1, 2): 1.0, (1, 3): 4.0})
    assert check_tree_theorem(b).consistent
    assert abs(effective_resistance(b, 0, 2) - 1.5) <= 1e-9
    assert abs(effective_resistance(b, 2, 3) - 1.25) <= 1e-9


def test_tree_theorem_random_sweep():
    rng = random.Random(127)
    for _ in range(25):
        t = check_tree_theorem(random_tree(rng, rng.randint(2, 9)))
        assert t.is_tree and t.metrics_equal
        nt = check_tree_theorem(random_nontree(rng, rng.randint(3, 9)))
        assert not nt.is_tree and not nt.metrics_equal


def fixpoint_metrics_equal(b: ConductanceGraph) -> bool:
    d = all_pairs_metric(inverse_conductance_weight(b)).d
    upper = np.triu_indices(b.n, 1)
    return bool(weights_close_array(d[upper], resistance_matrix(b).d[upper]).all())


def fixpoint_compatibility(b: ConductanceGraph) -> tuple[str, tuple[int, int] | None]:
    R = resistance_matrix(b).d
    w_graph = WeightedGraph(b.n, {(u, v): float(R[u, v]) for u, v, _ in b.edges()})
    differ = np.triu(~weights_close_array(all_pairs_metric(w_graph).d, R), 1)
    if differ.any():
        x, y = np.argwhere(differ)[0]
        return "INCOMPATIBLE", (int(x), int(y))
    return "COMPATIBLE", None


def fixpoint_is_generating(g: WeightedGraph, d: np.ndarray) -> bool:
    return bool(weights_close_array(all_pairs_metric(g).d, d).all())


def test_tolerance_checks_match_their_fixpoint_versions():
    rng = random.Random(137)
    verdicts = set()
    for i in range(120):
        n = rng.randint(2, 30)
        make = (random_tree, random_block_graph, random_connected_conductance)[i % 3]
        b = make(rng, n, max_c=rng.choice((3, 7)))
        tree = check_tree_theorem(b)
        assert tree.metrics_equal == fixpoint_metrics_equal(b)
        cert = compatible_resistance_weight(b)
        assert (cert.verdict, cert.counterexample) == fixpoint_compatibility(b)
        g = inverse_conductance_weight(b)
        R = resistance_matrix(b)
        assert is_generating(g, R) == fixpoint_is_generating(g, R.d)
        t = all_pairs_metric(g)
        W = geodesic_weight(t, graph=g).as_weight_graph()
        assert is_generating(W, t) and fixpoint_is_generating(W, t.d)
        verdicts.add((tree.metrics_equal, cert.verdict))
    assert len(verdicts) == 3  # trees, non-tree block graphs, and neither


def recursive_biconnected_components(b: ConductanceGraph) -> list[list[int]]:
    """Reference: the textbook recursive low-link DFS."""
    index, low = [0] * b.n, [0] * b.n
    counter = [1]
    edge_stack, blocks = [], []

    def dfs(u, parent):
        index[u] = low[u] = counter[0]
        counter[0] += 1
        for v, _ in b.neighbors(u):
            if v == parent:
                continue
            if not index[v]:
                edge_stack.append((u, v))
                dfs(v, u)
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    members = set()
                    while True:
                        edge = edge_stack.pop()
                        members.update(edge)
                        if edge == (u, v):
                            break
                    blocks.append(sorted(members))
            elif index[v] < index[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], index[v])

    for s in range(b.n):
        if not index[s]:
            dfs(s, -1)
    return blocks


def test_biconnected_components_match_the_recursive_reference():
    rng = random.Random(149)
    for _ in range(200):
        n = rng.randint(1, 30)
        p = rng.choice([0.05, 0.1, 0.2, 0.5])
        b = ConductanceGraph(n, {(u, v): 1.0 for u in range(n) for v in range(u + 1, n) if rng.random() < p})
        assert biconnected_components(b) == recursive_biconnected_components(b)


def test_deep_path_is_a_block_graph():
    n = 3000
    path = ConductanceGraph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    assert is_block_graph(path) == (True, None)
    blocks = biconnected_components(path)
    assert len(blocks) == n - 1 and sorted(blocks)[0] == [0, 1]


def test_triangle_report_carries_its_separation():
    report = check_triangle_equality(p3(), 0, 1, 2)
    assert isinstance(report.separation, SeparationCertificate)
    assert report.separation == separates(p3(), 1, 0, 2)
    report = check_triangle_equality(k3(), 0, 1, 2)
    assert isinstance(report.separation, NotSeparated)
    assert report.separation.witness.vertices == (0, 2)
