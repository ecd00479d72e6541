"""Tests for the path pseudo metric, geodesics, and geodesic weights."""

import math
import random
import warnings

import numpy as np
import pytest

from graphmetry import (
    INFINITY,
    GeodesicSet,
    InvalidMetric,
    MetricTable,
    NegativeWeightError,
    OutOfRange,
    Path,
    SizeMismatch,
    Unreachable,
    UnknownVertex,
    WeightedGraph,
    all_pairs_metric,
    enumerate_geodesics,
    geodesic_weight,
    is_generating,
    path_length,
    path_metric,
    resistance_matrix,
    single_source_distances,
    verify_maximal_weight,
)
from graphmetry.core import TAU_EQ
from graphmetry.oracle import brute_metric_from, enumerate_simple_paths, exact_path_length
from graphmetry import pathmetric
from graphmetry.pathmetric import _one_sweep_metric, _sum_slack, _triangle_violation
from .suites import (
    random_connected_conductance,
    random_sparse_weighted_graph,
    random_weighted_graph,
)


def p3() -> WeightedGraph:
    return WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, labels=("a", "b", "c"))


def c4() -> WeightedGraph:
    return WeightedGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})


def test_path_length_examples():
    g = p3()
    assert path_length(g, Path((0, 1, 2))) == 2.0
    assert path_length(g, Path((1,))) == 0.0
    assert path_length(g, Path((0, 2))) == INFINITY
    with pytest.raises(UnknownVertex):
        path_length(g, Path((0, 5)))


def test_path_metric_examples():
    g = p3()
    assert path_metric(g, 0, 2) == 2.0
    assert path_metric(g, 2, 0) == 2.0
    assert path_metric(g, 1, 1) == 0.0
    # Direct heavy edge loses to the two-step route.
    t = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
    assert path_metric(t, 0, 2) == 2.0
    # Disconnected pair.
    assert path_metric(WeightedGraph(2, {}), 0, 1) == INFINITY


def test_single_source_distances():
    g = p3()
    assert list(single_source_distances(g, 0)) == [0.0, 1.0, 2.0]
    two = WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    assert list(single_source_distances(two, 0)) == [0.0, 1.0, INFINITY, INFINITY]


def test_all_pairs_metric_matches_per_pair():
    rng = random.Random(19)
    for _ in range(30):
        g = random_weighted_graph(rng, rng.randint(1, 8))
        t = all_pairs_metric(g)
        assert t.validate() == []
        for x in range(g.n):
            for y in range(g.n):
                # The closure and the per-pair search may associate float
                # additions differently; agreement is up to rounding only.
                assert math.isclose(t.d[x, y], path_metric(g, x, y), rel_tol=1e-12)


def test_metric_dominated_by_weight():
    rng = random.Random(29)
    for _ in range(30):
        g = random_weighted_graph(rng, rng.randint(2, 8))
        t = all_pairs_metric(g)
        for x in range(g.n):
            for y in range(g.n):
                assert t.d[x, y] <= g.weight(x, y)


def test_metric_as_weight_is_fixed_point():
    # Feeding the metric back in as a weight reproduces it bit for bit.
    rng = random.Random(31)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 8), integer=rng.random() < 0.5)
        t = all_pairs_metric(g)
        again = all_pairs_metric(t.as_weight_graph())
        assert np.array_equal(t.d, again.d)


def test_metric_agrees_with_exact_oracle():
    rng = random.Random(37)
    for _ in range(25):
        g = random_weighted_graph(rng, rng.randint(2, 7))
        t = all_pairs_metric(g)
        for x in range(g.n):
            row = brute_metric_from(g, x)
            for y in range(g.n):
                if row[y] is None:
                    assert math.isinf(t.d[x, y])
                else:
                    assert abs(t.d[x, y] - float(row[y])) <= 1e-9 * max(1.0, float(row[y]))


def test_metric_table_validate_diagnostics():
    good = MetricTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert good.validate() == []
    asym = MetricTable(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert any("asymmetry" in r for r in asym.validate())
    neg = MetricTable(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert any("negative" in r for r in neg.validate())
    diag = MetricTable(np.array([[3.0]]))
    assert any("diagonal" in r for r in diag.validate())
    tri = MetricTable(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    assert any("triangle" in r for r in tri.validate())
    pseudo = MetricTable(np.zeros((2, 2)))
    assert any("pseudo metric" in r for r in pseudo.validate())
    nan = MetricTable(np.array([[0.0, math.nan], [math.nan, 0.0]]))
    assert any("NaN" in r for r in nan.validate())
    assert MetricTable(np.zeros((3, 3))).n == 3
    with pytest.raises(SizeMismatch, match="square"):
        MetricTable(np.zeros((2, 3)))
    with pytest.raises(SizeMismatch, match="square"):
        MetricTable(np.zeros(4))


def test_enumerate_geodesics_examples():
    assert [p.vertices for p in enumerate_geodesics(p3(), 0, 2).paths] == [(0, 1, 2)]
    found = enumerate_geodesics(c4(), 0, 2)
    assert [p.vertices for p in found.paths] == [(0, 1, 2), (0, 3, 2)]
    assert found.distance == 2.0 and not found.truncated
    same = enumerate_geodesics(p3(), 1, 1)
    assert [p.vertices for p in same.paths] == [(1,)] and same.distance == 0.0
    with pytest.raises(Unreachable):
        enumerate_geodesics(WeightedGraph(2, {}), 0, 1)
    with pytest.raises(ValueError):
        enumerate_geodesics(p3(), 0, 2, cap=0)


def test_enumerate_geodesics_cap():
    # Five parallel two-step routes; a cap of three truncates.
    w = {}
    for m in range(1, 6):
        w[(0, m)] = 1.0
        w[(m, 6)] = 1.0
    g = WeightedGraph(7, w)
    full = enumerate_geodesics(g, 0, 6)
    assert len(full.paths) == 5 and not full.truncated
    cut = enumerate_geodesics(g, 0, 6, cap=3)
    assert len(cut.paths) == 3 and cut.truncated
    assert cut.paths == full.paths[:3]


def test_geodesics_match_brute_filter():
    rng = random.Random(41)
    for _ in range(25):
        g = random_weighted_graph(rng, rng.randint(2, 6), integer=rng.random() < 0.5)
        t = all_pairs_metric(g)
        for x in range(g.n):
            for y in range(g.n):
                if x == y or math.isinf(t.d[x, y]):
                    continue
                found = enumerate_geodesics(g, x, y, cap=4096)
                assert not found.truncated
                lengths = [exact_path_length(g, p) for p in enumerate_simple_paths(g, x, y)]
                best = min(q for q in lengths if q is not None)
                expected = [
                    p.vertices
                    for p in enumerate_simple_paths(g, x, y)
                    if exact_path_length(g, p) == best
                ]
                assert [p.vertices for p in found.paths] == expected


def test_geodesic_weight_examples():
    t = all_pairs_metric(p3())
    w = geodesic_weight(t)
    assert w.weight(0, 1) == 1.0
    assert w.weight(1, 2) == 1.0
    assert math.isinf(w.weight(0, 2))
    assert w.weight(0, 0) == 0.0

    # Unit 4-cycle: every adjacent pair is a unique geodesic, both diagonals
    # have two geodesics, so their entries blow up to inf.
    wc = geodesic_weight(all_pairs_metric(c4()))
    assert wc.weight(0, 1) == 1.0 and wc.weight(2, 3) == 1.0
    assert math.isinf(wc.weight(0, 2)) and math.isinf(wc.weight(1, 3))

    # Two points: the metric itself.
    pair = MetricTable(np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert geodesic_weight(pair).weight(0, 1) == 5.0

    # Unreachable pairs stay infinite.
    split = all_pairs_metric(WeightedGraph(2, {}))
    assert math.isinf(geodesic_weight(split).weight(0, 1))


def test_geodesic_weight_rejects_a_graph_of_another_size():
    # A 3-vertex table with a 5-vertex graph, and the other way round.
    small, large = p3(), WeightedGraph(5, {(i, i + 1): 1.0 for i in range(4)})
    with pytest.raises(SizeMismatch, match="graph has 5 vertices, table 3"):
        geodesic_weight(all_pairs_metric(small), graph=large)
    with pytest.raises(SizeMismatch, match="graph has 3 vertices, table 5"):
        geodesic_weight(all_pairs_metric(large), graph=small)


def test_geodesic_weight_rejects_non_metric():
    tri = MetricTable(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]))
    with pytest.raises(InvalidMetric):
        geodesic_weight(tri)


def test_geodesic_weight_regenerates_metric():
    rng = random.Random(43)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 8), integer=rng.random() < 0.5)
        t = all_pairs_metric(g)
        w = geodesic_weight(t)
        back = all_pairs_metric(w.as_weight_graph())
        for x in range(g.n):
            for y in range(g.n):
                a, b = float(back.d[x, y]), float(t.d[x, y])
                if math.isinf(a) or math.isinf(b):
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-9 * max(1.0, b)
        # The geodesic weight dominates the generating weight everywhere.
        for (x, y), wv in g.weights.items():
            if x != y:
                assert wv <= w.table[x, y]


def tight_edge_sweep():
    """200 seeded graphs: integer, tenths and hundredths weights, 1-3
    components, mean degree 2, 3 or 8, n up to 100, and some dense ones."""
    rng = random.Random(131)
    for i in range(200):
        n = rng.randint(60, 100) if i % 10 == 0 else rng.randint(2, 40)
        if i % 25 == 1:
            yield random_weighted_graph(rng, n, integer=i % 2 == 0)
        else:
            scale = (1, 10, 100)[i % 3]
            yield random_sparse_weighted_graph(
                rng, n, scale=scale, degree=rng.choice((2.0, 3.0, 8.0)), parts=1 + i % 3
            )


def test_geodesic_weight_on_tight_edges_matches_the_full_scan():
    slack = tight_but_between = 0
    for g in tight_edge_sweep():
        t = all_pairs_metric(g)
        full = geodesic_weight(t).table
        assert np.array_equal(geodesic_weight(t, graph=g).table, full)
        for (x, y), w in g.weights.items():
            slack += w > t.d[x, y]
            tight_but_between += w == t.d[x, y] and math.isinf(full[x, y])
    # The sweep covers both ways an edge can drop out of the support.
    assert slack > 0 and tight_but_between > 0


def test_geodesic_weight_drops_a_tight_edge_with_a_vertex_between():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0})
    t = all_pairs_metric(g)
    assert t.d[0, 2] == g.weights[(0, 2)]
    w = geodesic_weight(t, graph=g)
    assert math.isinf(w.weight(0, 2)) and w.weight(0, 1) == 1.0
    assert np.array_equal(w.table, geodesic_weight(t).table)


def test_triangle_gate_cannot_fire_on_a_fixpoint_table():
    # Why geodesic_weight(t, graph=g) may skip the gate: at the closure's
    # fixpoint d[x,z] <= fl(d[x,y] + d[y,z]) holds exactly.
    for g in tight_edge_sweep():
        assert _triangle_violation(all_pairs_metric(g).d) is None


def test_triangle_gate_runs_on_bare_tables_only(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return _triangle_violation(d)

    monkeypatch.setattr(pathmetric, "_triangle_violation", counted)
    g = random_sparse_weighted_graph(random.Random(5), 30, parts=2)
    t = all_pairs_metric(g)
    assert np.array_equal(geodesic_weight(t, graph=g).table, geodesic_weight(t).table)
    assert len(calls) == 1 and calls[0] is t.d


def test_one_sweep_metric_is_the_fixpoint_up_to_rounding():
    for g in tight_edge_sweep():
        one, d = _one_sweep_metric(g), all_pairs_metric(g).d
        finite = np.isfinite(d)
        assert np.array_equal(one[~finite], d[~finite])
        assert (np.abs(one[finite] - d[finite]) <= 1e-12 * np.abs(d[finite])).all()


def test_negative_weight_is_rejected_by_both_closures():
    g = WeightedGraph(3, {(0, 1): -1.0, (1, 2): 2.0})
    with pytest.raises(NegativeWeightError):
        all_pairs_metric(g)
    with pytest.raises(NegativeWeightError):
        _one_sweep_metric(g)
    with pytest.raises(NegativeWeightError):
        is_generating(g, all_pairs_metric(p3()))


def test_negative_weight_message_names_the_first_negative_pair():
    labels = ("a", "b", "c", "d")
    # Keys are stored sorted; a negative value on the diagonal, NaN and -inf join nothing.
    g = WeightedGraph(
        4,
        {(3, 2): -1.0, (1, 2): -2.5, (0, 0): -3.0, (0, 1): math.nan, (0, 3): -math.inf},
        labels,
    )
    with pytest.raises(NegativeWeightError) as err:
        all_pairs_metric(g)
    assert str(err.value) == "negative weight -2.5 on (b, c)"
    fine = WeightedGraph(3, {(0, 0): -3.0, (0, 1): math.nan, (1, 2): -math.inf, (0, 2): 1.0})
    assert np.array_equal(
        all_pairs_metric(fine).d, [[0.0, INFINITY, 1.0], [INFINITY, 0.0, INFINITY], [1.0, INFINITY, 0.0]]
    )


def sweeps_until_unchanged(g: WeightedGraph) -> np.ndarray:
    """The closure by its definition: full min-plus sweeps from the start
    table until one changes nothing.  ``all_pairs_metric`` must equal it
    bit for bit, whatever order it applies the same updates in."""
    n = g.n
    d = np.full((n, n), INFINITY)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in g.weights.items():
        if u != v and math.isfinite(w):
            d[u, v] = d[v, u] = w
    with np.errstate(over="ignore"):
        while True:
            before = d.copy()
            for k in range(n):
                np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
            if np.array_equal(before, d):
                return d


CLOSURE_WEIGHTS = {
    "integer": lambda rng: float(rng.randint(1, 10)),
    "tenths": lambda rng: rng.randint(1, 100) / 10,
    "hundredths": lambda rng: rng.randint(1, 1000) / 100,
    "dyadic": lambda rng: rng.randint(1, 10240) / 1024,
    "real": lambda rng: 10 ** rng.uniform(-6, 6),
}


def closure_case(seed: int) -> WeightedGraph:
    """A seeded sparse graph of 1-3 blocks plus 0-3 isolated vertices, ids
    shuffled, with weights of the kind ``seed`` picks from CLOSURE_WEIGHTS."""
    rng = random.Random(seed)
    draw = list(CLOSURE_WEIGHTS.values())[seed % len(CLOSURE_WEIGHTS)]
    n = rng.randint(2, 48)
    shape = random_sparse_weighted_graph(
        rng, n, degree=rng.choice([1.5, 3.0, 6.0, 10.0]), parts=rng.randint(1, 3)
    )
    total = n + rng.randint(0, 3)
    ids = rng.sample(range(total), total)
    return WeightedGraph(total, {(ids[u], ids[v]): draw(rng) for u, v in shape.weights})


def test_closure_equals_sweeps_until_unchanged_bitwise():
    for seed in range(250):
        g = closure_case(seed)
        assert np.array_equal(all_pairs_metric(g).d, sweeps_until_unchanged(g)), seed


@pytest.mark.parametrize("total, sweeps", [(2**52 - 1, 1), (2**52, 1), (2**52 + 1, 2)])
def test_integer_sums_up_to_2_52_stop_after_one_sweep(monkeypatch, total, sweeps):
    # A path a-b-c-d and a chord a-c, the four weights summing to ``total``.
    half = 2**51
    g = WeightedGraph(4, {(0, 1): half - 2.0, (1, 2): 2.0, (2, 3): total - half - 3.0, (0, 2): 3.0})
    calls = []
    sweep = pathmetric._min_plus_sweep
    monkeypatch.setattr(pathmetric, "_min_plus_sweep", lambda *a: calls.append(1) or sweep(*a))
    assert np.array_equal(all_pairs_metric(g).d, sweeps_until_unchanged(g))
    assert len(calls) == sweeps


def test_exact_sum_test_cannot_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not pathmetric._sums_exact(pathmetric._initial_table(HUGE))
        many = WeightedGraph(60, {(u, u + 1): 2.0**52 for u in range(59)})
        assert not pathmetric._sums_exact(pathmetric._initial_table(many))
        assert pathmetric._sums_exact(pathmetric._initial_table(WeightedGraph(3, {})))


def test_is_generating_examples():
    g = p3()
    t = all_pairs_metric(g)
    assert is_generating(g, t)
    assert is_generating(t.as_weight_graph(), t)
    shortcut = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.5})
    assert not is_generating(shortcut, t)
    with pytest.raises(SizeMismatch):
        is_generating(WeightedGraph(2, {}), t)


def test_first_step_lower_bound():
    # A route out of x costs at least the cheapest incident weight, so the
    # metric separates distinct vertices whenever weights do.
    rng = random.Random(47)
    for _ in range(30):
        g = random_weighted_graph(rng, rng.randint(2, 8))
        t = all_pairs_metric(g)
        for x in range(g.n):
            floor = min((w for _, w in g.neighbors(x)), default=INFINITY)
            for y in range(g.n):
                if y != x:
                    assert t.d[x, y] >= floor
                    assert t.d[x, y] > 0


def recursive_enumerate_geodesics(g: WeightedGraph, x: int, y: int, cap: int) -> GeodesicSet:
    """Reference: the recursive depth-first geodesic walk."""
    target = path_metric(g, x, y)
    if x == y:
        return GeodesicSet([Path((x,))], 0.0)
    slack = _sum_slack(g.n, target)
    to_y = single_source_distances(g, y)
    paths = []
    on_path = [False] * g.n
    on_path[x] = True
    stack = [x]

    def walk(u, acc):
        for v, w in g.neighbors(u):
            if on_path[v] or math.isinf(w):
                continue
            length = acc + w
            if length + to_y[v] > target + slack:
                continue
            stack.append(v)
            on_path[v] = True
            if v == y:
                if abs(length - target) <= slack:
                    if len(paths) >= cap:
                        on_path[v] = False
                        stack.pop()
                        return True
                    paths.append(Path(tuple(stack)))
            elif walk(v, length):
                on_path[v] = False
                stack.pop()
                return True
            on_path[v] = False
            stack.pop()
        return False

    truncated = walk(x, 0.0)
    return GeodesicSet(paths, target, truncated)


def test_enumerate_geodesics_matches_the_recursive_reference():
    rng = random.Random(173)
    for _ in range(200):
        n = rng.randint(2, 8)
        if rng.random() < 0.5:
            # Weights 1 and 2 on a dense graph: many tied routes, so caps bite.
            g = WeightedGraph(
                n,
                {(u, v): float(rng.randint(1, 2)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6},
            )
        else:
            g = random_weighted_graph(rng, n, integer=rng.random() < 0.5)
        cap = rng.choice([1, 2, 3, 64])
        t = all_pairs_metric(g)
        for x in range(g.n):
            for y in range(g.n):
                if math.isinf(t.d[x, y]):
                    continue
                assert enumerate_geodesics(g, x, y, cap=cap) == recursive_enumerate_geodesics(g, x, y, cap)


def test_enumerate_geodesics_on_a_deep_path():
    n = 3000
    g = WeightedGraph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    found = enumerate_geodesics(g, 0, n - 1)
    assert [p.vertices for p in found.paths] == [tuple(range(n))]
    assert found.distance == n - 1 and not found.truncated


def test_geodesic_weight_keeps_tiny_unique_geodesics():
    # Betweenness is relative without a floor: at scale 1e-10, c is not between a and b.
    g = WeightedGraph(3, {(0, 1): 1e-10, (1, 2): 1e-10})
    t = all_pairs_metric(g)
    for W in (geodesic_weight(t), geodesic_weight(t, graph=g)):
        assert W.table[0, 1] == W.table[1, 2] == 1e-10
        assert W.table[0, 2] == INFINITY
    assert is_generating(geodesic_weight(t).as_weight_graph(), t)


def test_geodesic_weight_is_scale_invariant():
    # Scaling by a power of two is exact in floats, so w_delta scales with it bit for bit.
    rng = random.Random(2718)
    for _ in range(40):
        g = random_sparse_weighted_graph(rng, rng.randint(3, 40), parts=rng.randint(1, 2))
        small = WeightedGraph(g.n, {k: math.ldexp(w, -40) for k, w in g.weights.items()})
        t, ts = all_pairs_metric(g), all_pairs_metric(small)
        assert np.array_equal(np.ldexp(t.d, -40), ts.d)
        expected = np.ldexp(geodesic_weight(t, graph=g).table, -40)
        assert np.array_equal(geodesic_weight(ts).table, expected)
        assert np.array_equal(geodesic_weight(ts, graph=small).table, expected)


HUGE = WeightedGraph(4, {(0, 1): 1e308, (1, 2): 1e308}, labels=("a", "b", "c", "d"))


def test_searches_report_a_distance_beyond_float_range():
    with pytest.raises(OutOfRange, match="between a and c"):
        single_source_distances(HUGE, 0)
    with pytest.raises(OutOfRange, match="between a and c"):
        path_metric(HUGE, 0, 2)
    with pytest.raises(OutOfRange, match="between c and a"):
        path_metric(HUGE, 2, 0)
    # Answered before the overflow is reached, or never reaching it.
    assert path_metric(HUGE, 0, 1) == 1e308
    assert list(single_source_distances(HUGE, 3)) == [INFINITY, INFINITY, INFINITY, 0.0]


def test_closures_report_a_distance_beyond_float_range_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="between a and c"):
            all_pairs_metric(HUGE)
        with pytest.raises(OutOfRange, match="between a and c"):
            _one_sweep_metric(HUGE)
        # inf between components, or across a NaN weight, is no overflow.
        split = WeightedGraph(4, {(0, 1): 1e308, (2, 3): 1e308})
        assert all_pairs_metric(split).d[0, 2] == INFINITY
        nan = WeightedGraph(3, {(0, 1): math.nan, (1, 2): 1.0})
        assert _one_sweep_metric(nan)[0, 1] == INFINITY


def full_scan_weight(d: np.ndarray) -> np.ndarray:
    """w_delta by testing every z on every pair, one row at a time.

    The reference that both routes of ``geodesic_weight`` must equal bit for
    bit: the same betweenness slack, n * 2**-51 * |d(x, y)|, and the same
    sums d(x, z) + d(z, y), on every pair instead of the tight edges.
    """
    n = len(d)
    out = np.full((n, n), INFINITY)
    np.fill_diagonal(out, 0.0)
    for x in range(n):
        row = d[x]
        sums = row[:, None] + d  # sums[z, y] = d(x,z) + d(z,y)
        with np.errstate(invalid="ignore"):
            # inf - inf in columns of infinite distance; those y are skipped.
            gap = np.abs(sums - row[None, :])
        between = gap <= (n * 2.0**-51) * np.abs(row)[None, :]
        between[x, :] = False
        np.fill_diagonal(between, False)  # z == y
        unique = ~between.any(axis=0) & np.isfinite(row)
        unique[x] = False
        out[x, unique] = row[unique]
    return np.minimum(out, out.T)


def assert_both_routes_match_the_full_scan(t, g):
    expected = full_scan_weight(t.d)
    assert np.array_equal(geodesic_weight(t).table, expected)
    assert np.array_equal(geodesic_weight(t, graph=g).table, expected)


def test_both_routes_match_the_full_scan_reference():
    for g in tight_edge_sweep():
        assert_both_routes_match_the_full_scan(all_pairs_metric(g), g)
        # Scaling by 2**-40 is exact, so the sweep's tables keep their ties.
        small = WeightedGraph(g.n, {k: math.ldexp(w, -40) for k, w in g.weights.items()})
        assert_both_routes_match_the_full_scan(all_pairs_metric(small), small)


def test_both_routes_match_the_full_scan_on_resistance_matrices():
    rng = random.Random(577)
    for _ in range(100):
        r = resistance_matrix(random_connected_conductance(rng, rng.randint(2, 30)))
        assert np.array_equal(geodesic_weight(r).table, full_scan_weight(r.d))
        # Fed back in as a weight, R closes to a table the graph route accepts.
        g = r.as_weight_graph()
        assert_both_routes_match_the_full_scan(all_pairs_metric(g), g)


@pytest.mark.parametrize("ratio", [3e9, 1e10, 1e12, 1e14, 1e15])
def test_geodesic_weight_keeps_a_spur_far_shorter_than_its_edge(ratio):
    # A relative slack of 1e-9 put c between a and b once w(a, b) / w(b, c)
    # passed about 2e9, and a lost every w_delta edge.
    for big in (20000.0, 1.0, 2.0**-40):
        g = WeightedGraph(3, {(0, 1): big, (1, 2): big / ratio})
        t = all_pairs_metric(g)
        assert_both_routes_match_the_full_scan(t, g)
        W = geodesic_weight(t, graph=g)
        assert W.table[0, 1] == big and W.table[1, 2] == big / ratio
        assert W.table[0, 2] == INFINITY
        assert verify_maximal_weight(g).passed


def test_geodesic_weight_rejects_an_asymmetric_table():
    # It passes the triangle gate; only the symmetry check stops it.
    skew = MetricTable(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]]))
    assert _triangle_violation(skew.d) is None
    with pytest.raises(InvalidMetric, match="!="):
        geodesic_weight(skew)


def test_triangle_gate_is_exact_at_infinity():
    # d(0, 2) = inf above the finite route 0 - 1 - 2 breaks the triangle inequality.
    gap = MetricTable(np.array([[0.0, 1.0, INFINITY], [1.0, 0.0, 1.0], [INFINITY, 1.0, 0.0]]))
    assert _triangle_violation(gap.d) == (0, 1, 2)
    assert any("triangle inequality fails" in line for line in gap.validate())
    with pytest.raises(InvalidMetric):
        geodesic_weight(gap)


def ordered_triangle_scan(d: np.ndarray) -> tuple[int, int, int] | None:
    """The triangle gate by its definition: every y in order, then the
    first (x, z) in row order with d[x,z] > fl(fl(d[x,y] + d[y,z]) + slack).
    ``_triangle_violation`` must return the same triple, or None, on every
    table, whatever prefilter it runs first."""
    n = d.shape[0]
    slack = TAU_EQ * np.abs(d)
    slack[np.isinf(d)] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for y in range(n):
            bad = d > d[:, y, None] + d[None, y, :] + slack
            if bad.any():
                x, z = np.argwhere(bad)[0]
                return int(x), int(y), int(z)
    return None


def triangle_gate_case(seed: int) -> np.ndarray:
    """A seeded table: a resistance metric, a closed path metric (1-3 blocks,
    isolated vertices) or a random table, with one change that ``seed``
    picks: none, one entry scaled by 1 + 1e-12, one pair within a few ulps
    of the gate's bound on a triple, a finite pair made +inf, one -inf, NaN
    or negative entry, a non-zero diagonal entry, one side of a pair
    changed, or every finite entry scaled up so that two legs overflow."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        d = resistance_matrix(random_connected_conductance(rng, rng.randint(1, 24))).d
    elif seed % 3 == 1:
        d = all_pairs_metric(closure_case(seed)).d
    else:
        n = rng.randint(1, 24)
        d = np.array([[float(rng.randint(1, 20)) for _ in range(n)] for _ in range(n)])
        d = np.minimum(d, d.T)
        d[np.array([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)])] = INFINITY
        np.fill_diagonal(d, 0.0)
    n, change = len(d), seed % 10
    if n < 2 or change == 0:
        return d
    x, z = rng.sample(range(n), 2)
    if change == 1:
        d[x, z] *= 1 + 1e-12
        if rng.random() < 0.5:
            d[z, x] = d[x, z]
    elif change == 2 and n > 2:
        y = rng.choice([v for v in range(n) if v not in (x, z)])
        value = (d[x, y] + d[y, z]) * (1 + TAU_EQ)
        if np.isfinite(value):
            for _ in range(rng.randint(0, 8)):
                value = np.nextafter(value, INFINITY if rng.random() < 0.6 else 0.0)
            d[x, z] = d[z, x] = value
    elif change == 3:
        d[x, z] = d[z, x] = INFINITY
    elif change == 4:
        d[x, z] = -INFINITY
    elif change == 5:
        d[x, z] = math.nan
    elif change == 6:
        d[x, z] = d[z, x] = -rng.choice([1e-300, 1.0, 2.0])
    elif change == 7:
        d[x, x] = rng.choice([1e-12, 1.0, -1.0, INFINITY])
    elif change == 8:
        d[x, z] *= rng.choice([0.5, 1 - 1e-12, 1 + 1e-8, 3.0])
    elif change == 9:
        finite = np.isfinite(d)
        d[finite] *= 1e308 / max(d[finite].max(), 1.0)
        if rng.random() < 0.5:
            d[x, z] = d[z, x] = INFINITY
    return d


def test_triangle_gate_equals_the_ordered_scan():
    # Counts of (clean table, violated): clean tables take the prefilter.
    counts = {(clean, fired): 0 for clean in (False, True) for fired in (False, True)}
    for seed in range(2200):
        d = triangle_gate_case(seed)
        expected = ordered_triangle_scan(d)
        assert _triangle_violation(d) == expected, seed
        clean = bool(len(d) and (d >= 0).all() and not np.diagonal(d).any())
        counts[clean, expected is not None] += 1
    assert min(counts.values()) > 100, counts


def test_triangle_gate_fires_on_an_inf_pair_with_two_finite_legs():
    g = random_sparse_weighted_graph(random.Random(11), 40, degree=3.0, parts=2)
    d = all_pairs_metric(g).d
    assert _triangle_violation(d) is None
    x, z = np.argwhere(np.isfinite(d) & (d > 0))[-1]
    d[x, z] = d[z, x] = INFINITY
    found = _triangle_violation(d)
    assert found is not None and found == ordered_triangle_scan(d)
