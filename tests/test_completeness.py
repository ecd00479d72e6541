"""Tests for completeness evidence, family scans, and prefix extraction."""

import dataclasses
import functools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from graphmetry import (
    BOUNDED_SO_FAR,
    DECAYING_RAY,
    DECAYING_STAR,
    EXCEEDS_THRESHOLD,
    FAMILIES,
    INFINITY,
    UNIT_RAY,
    UNIT_STAR,
    AsymmetryError,
    BallScan,
    DuplicatePath,
    ElfReport,
    EmptyInput,
    GraphFamily,
    InputError,
    InvalidArgument,
    MixedStart,
    OutOfRange,
    Path,
    TooLarge,
    UnknownVertex,
    WeightedGraph,
    extract_common_prefix_path,
    family_ball_scan,
    family_elf_scan,
    single_source_distances,
    verify_maximal_weight,
)
import graphmetry.completeness as completeness
from graphmetry.completeness import SCAN_BUDGET_CAP, _scan_counts
from graphmetry.pathmetric import GeodesicWeight, _settle

from .suites import complete_graph_for, random_weighted_graph


def test_family_registry():
    assert set(FAMILIES) == {"unit-star", "decaying-star", "unit-ray", "decaying-ray"}
    for fam in FAMILIES.values():
        assert FAMILIES[fam.name] is fam


def test_truncate_star():
    g = UNIT_STAR.truncate(5)
    assert g.n == 5
    assert g.labels == ("center", "leaf1", "leaf2", "leaf3", "leaf4")
    assert g.weight(0, 3) == 1.0
    assert g.weight(1, 2) == INFINITY


def test_truncate_ray():
    g = UNIT_RAY.truncate(4)
    assert g.labels == ("x0", "x1", "x2", "x3")
    assert g.weight(0, 1) == 1.0
    assert g.weight(0, 2) == INFINITY
    # Decaying variant: the step arriving at vertex k costs 2^-k.
    d = DECAYING_RAY.truncate(4)
    assert d.weight(1, 2) == 0.25
    assert d.weight(2, 3) == 0.125


def test_truncate_budget_guards():
    with pytest.raises(ValueError):
        UNIT_STAR.truncate(0)
    with pytest.raises(TooLarge):
        UNIT_STAR.truncate(2001)


def test_truncate_is_deterministic():
    a = DECAYING_STAR.truncate(50)
    b = DECAYING_STAR.truncate(50)
    assert a.weights == b.weights and a.labels == b.labels


def test_decaying_weights_stay_positive():
    # Far down the ray the step weight underflows; it must stay positive to
    # keep the truncated weight definite.
    w = DECAYING_RAY.weight(1100, 1101)
    assert 0.0 < w < 1e-300
    assert DECAYING_STAR.weight(0, 10**400) > 0.0


def test_ball_scan_unit_star():
    # Every leaf sits at distance 1, so B_2(center) swallows any budget.
    scan = family_ball_scan(UNIT_STAR, 0, 2.0, 1000)
    assert scan.found == 1000
    assert scan.verdict == EXCEEDS_THRESHOLD
    assert scan.budget == 1000 and scan.center == 0 and scan.radius == 2.0


def test_ball_scan_unit_ray():
    # Unit steps: only x0 .. x3 lie within radius 3.5.
    scan = family_ball_scan(UNIT_RAY, 0, 3.5, 200)
    assert scan.found == 4
    assert scan.verdict == BOUNDED_SO_FAR


def test_ball_scan_decaying_ray():
    # Total length converges below 1, so radius 1 reaches every vertex the
    # budget uncovers: bounded distances, infinite ball.
    scan = family_ball_scan(DECAYING_RAY, 0, 1.0, 200)
    assert scan.found == 200
    assert scan.verdict == EXCEEDS_THRESHOLD


def test_ball_scan_threshold_and_errors():
    assert family_ball_scan(UNIT_STAR, 0, 2.0, 300, threshold=100).verdict == EXCEEDS_THRESHOLD
    assert family_ball_scan(UNIT_RAY, 0, 3.5, 200, threshold=5).verdict == BOUNDED_SO_FAR
    with pytest.raises(ValueError):
        family_ball_scan(UNIT_STAR, 0, 2.0, 100, threshold=0)
    with pytest.raises(UnknownVertex):
        family_ball_scan(UNIT_STAR, 500, 2.0, 100)


def test_ball_scan_off_center():
    # From a leaf, radius 1.5 covers the leaf itself and the center only.
    scan = family_ball_scan(UNIT_STAR, 3, 1.5, 100)
    assert scan.found == 2
    assert scan.verdict == BOUNDED_SO_FAR


def test_elf_scan_star_center():
    report = family_elf_scan(UNIT_STAR, 0, 2.0, 1000)
    assert report.count == 1000
    assert report.verdict == EXCEEDS_THRESHOLD


def test_elf_scan_star_leaf():
    # A leaf has a single sub-radius neighbor: the center.
    report = family_elf_scan(UNIT_STAR, 1, 2.0, 1000)
    assert report.count == 1
    assert report.verdict == BOUNDED_SO_FAR


def test_elf_scan_decaying_star():
    # Leaves k with 1/k < 0.01 are k = 101 .. 1000 among the first 1000.
    report = family_elf_scan(DECAYING_STAR, 0, 0.01, 1000)
    assert report.count == 900
    assert report.verdict == BOUNDED_SO_FAR
    assert family_elf_scan(DECAYING_STAR, 0, 0.01, 1000, threshold=900).verdict == EXCEEDS_THRESHOLD


def test_elf_scan_unit_ray():
    report = family_elf_scan(UNIT_RAY, 0, 2.0, 500)
    assert report.count == 1
    assert report.verdict == BOUNDED_SO_FAR
    with pytest.raises(ValueError):
        family_elf_scan(UNIT_RAY, 0, 2.0, 0)


def test_prefix_trie_rejects_bad_input():
    unit = complete_graph_for([Path((0, 1, 2))])
    with pytest.raises(InvalidArgument):
        extract_common_prefix_path([], unit, k=1)
    with pytest.raises(EmptyInput):
        extract_common_prefix_path([], unit)
    with pytest.raises(DuplicatePath):
        extract_common_prefix_path([Path((0, 1)), Path((0, 1))], unit)
    with pytest.raises(MixedStart):
        extract_common_prefix_path([Path((0, 1)), Path((2, 1))], unit)
    # Duplicates are checked over all paths before any start is compared.
    with pytest.raises(DuplicatePath):
        extract_common_prefix_path([Path((0, 1)), Path((2, 1)), Path((0, 1))], unit)


def test_extract_common_prefix_example():
    g = WeightedGraph(5, {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0, (0, 4): 1.0})
    paths = [Path((0, 1, 2)), Path((0, 1, 3)), Path((0, 4))]
    out = extract_common_prefix_path(paths, g, k=2)
    assert out.path.vertices == (0, 1)
    assert out.multiplicities == [3, 2]
    assert out.length == 1.0


def test_extract_high_multiplicity():
    # Seven paths share (0, 1, 2) and then fan out; with k = 5 the shared
    # corridor is exactly what survives.
    paths = [Path((0, 1, 2, 3 + i)) for i in range(7)]
    w = {(0, 1): 1.0, (1, 2): 1.0}
    w.update({(2, 3 + i): 1.0 for i in range(7)})
    g = WeightedGraph(10, w)
    out = extract_common_prefix_path(paths, g, k=5)
    assert out.path.vertices == (0, 1, 2)
    assert out.multiplicities == [7, 7, 7]
    assert out.length == 2.0


def test_extract_length_reads_the_graph():
    paths = [Path((0, 1, 2)), Path((0, 1, 3))]
    out = extract_common_prefix_path(paths, complete_graph_for(paths, 0.5), k=2)
    assert out.path.vertices == (0, 1)
    assert out.length == 0.5


def test_extract_threshold_guard():
    with pytest.raises(ValueError):
        extract_common_prefix_path([Path((0, 1))], WeightedGraph(2, {(0, 1): 1.0}), k=1)


def test_extract_ties_pick_least_vertex():
    paths = [Path((0, 2, 4)), Path((0, 2, 5)), Path((0, 1, 6)), Path((0, 1, 7))]
    out = extract_common_prefix_path(paths, complete_graph_for(paths), k=2)
    assert out.path.vertices == (0, 1)


def test_extract_invariants_random():
    rng = random.Random(53)
    for _ in range(30):
        # A planted corridor plus noise branches.
        depth = rng.randint(2, 6)
        corridor = tuple(range(depth + 1))
        paths = [Path(corridor)]
        for cut in range(1, depth):
            paths.append(Path(corridor[: cut + 1]))
        fresh = depth + 1
        for _ in range(rng.randint(0, 3)):
            q = rng.randint(0, depth - 1)
            paths.append(Path(corridor[: q + 1] + (fresh,)))
            fresh += 1
        out = extract_common_prefix_path(paths, complete_graph_for(paths), k=2)
        assert out.multiplicities[0] == len(paths)
        assert all(m >= 2 for m in out.multiplicities[1:])
        # The result is a common prefix of that many inputs at every level.
        for level, m in enumerate(out.multiplicities):
            prefix = out.path.vertices[: level + 1]
            sharing = sum(1 for p in paths if p.vertices[: level + 1] == prefix)
            assert sharing == m
        assert out.length <= max(len(p) - 1 for p in paths)


def test_verify_maximal_weight_examples():
    p3 = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    report = verify_maximal_weight(p3)
    assert report.passed and report.generates and report.dominates
    assert report.witnesses == []

    c4 = WeightedGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    assert verify_maximal_weight(c4).passed

    lone = WeightedGraph(1, {})
    assert verify_maximal_weight(lone).passed


def test_verify_maximal_weight_on_a_disconnected_graph():
    g = WeightedGraph(5, {(0, 1): 1.0, (1, 2): 2.0, (3, 4): 3.0, (0, 2): 3.0})
    report = verify_maximal_weight(g)
    assert report.passed and report.witnesses == []
    assert report.weight.table[0, 2] == INFINITY and report.weight.table[3, 4] == 3.0
    assert report.weight.table[0, 4] == INFINITY


def test_verify_maximal_weight_names_witnesses_in_row_major_order(monkeypatch):
    # A W that fails both halves: every finite entry halved.
    real = completeness.geodesic_weight

    def halved(t, graph=None):
        w = real(t, graph=graph)
        return GeodesicWeight(w.table / 2, w.labels)

    monkeypatch.setattr(completeness, "geodesic_weight", halved)
    g = WeightedGraph(4, {(2, 3): 1.0, (0, 3): 5.0, (1, 2): 1.0, (0, 1): 1.0, (0, 0): 0.0})
    report = verify_maximal_weight(g)
    assert report.witnesses == [(0, 1), (1, 2), (2, 3)]
    assert not report.generates and not report.dominates and not report.passed


def test_verify_maximal_weight_random():
    rng = random.Random(59)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 8), integer=rng.random() < 0.5)
        assert verify_maximal_weight(g).passed


def test_metric_components():
    g = WeightedGraph(5, {(0, 1): 1.0, (2, 3): 1.0})
    assert g.components() == [[0, 1], [2, 3], [4]]
    assert WeightedGraph(0, {}).components() == []


def test_decaying_ray_partial_sums_stay_below_radius():
    # Float partial sums of 2^-1 + ... + 2^-m never exceed 1.
    total = 0.0
    for m in range(1, 300):
        total += math.ldexp(1.0, -m) if m < 1075 else 5e-324
        assert total <= 1.0


class RecursiveTrie:
    """Reference: the recursive trie insertion that copies the suffix per level."""

    def __init__(self, vertex):
        self.vertex = vertex
        self.multiplicity = 0
        self.children = {}

    def insert(self, suffix):
        self.multiplicity += 1
        if suffix:
            head, tail = suffix[0], suffix[1:]
            if head not in self.children:
                self.children[head] = RecursiveTrie(head)
            self.children[head].insert(tail)


def greedy_descent(root, k):
    """Path and multiplicities along the least child of multiplicity >= k."""
    vertices, mults, node = [root.vertex], [root.multiplicity], root
    while True:
        shared = [v for v, child in node.children.items() if child.multiplicity >= k]
        if not shared:
            return tuple(vertices), mults
        node = node.children[min(shared)]
        vertices.append(node.vertex)
        mults.append(node.multiplicity)


def test_prefix_trie_matches_the_recursive_reference():
    rng = random.Random(211)
    for _ in range(200):
        paths = set()
        for _ in range(rng.randint(1, 12)):
            rest = rng.sample(range(1, 10), rng.randint(0, 6))
            paths.add((0, *rest))
        paths = [Path(p) for p in sorted(paths, key=lambda _: rng.random())]
        reference = RecursiveTrie(0)
        for p in paths:
            reference.insert(p.vertices[1:])
        unit = complete_graph_for(paths)
        for k in (2, 3, 5):
            out = extract_common_prefix_path(paths, unit, k=k)
            assert (out.path.vertices, out.multiplicities) == greedy_descent(reference, k)


def test_extract_common_prefix_on_a_deep_path():
    n = 3000
    g = WeightedGraph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    paths = [Path(tuple(range(n))), Path(tuple(range(n - 1)))]
    out = extract_common_prefix_path(paths, g, k=2)
    assert out.path.vertices == tuple(range(n - 1))
    assert out.multiplicities == [2] * (n - 1)
    assert out.length == n - 2


@pytest.mark.parametrize("scan", [family_ball_scan, family_elf_scan])
@pytest.mark.parametrize("radius", [math.nan, -1.0, -INFINITY])
def test_scans_reject_a_nan_or_negative_radius(scan, radius):
    with pytest.raises(InvalidArgument, match="radius"):
        scan(UNIT_RAY, 0, radius, 10)


def test_scans_accept_zero_and_infinite_radius():
    assert family_ball_scan(UNIT_RAY, 0, 0.0, 10).found == 1
    assert family_ball_scan(UNIT_RAY, 0, INFINITY, 10).found == 10
    assert family_elf_scan(UNIT_RAY, 0, 0.0, 10).count == 0
    assert family_elf_scan(UNIT_RAY, 0, INFINITY, 10).count == 1


def dense_truncate(fam, budget):
    """Reference truncation: the family's weight on every pair of range(budget)."""
    weights = {}
    for i in range(budget):
        for j in range(i + 1, budget):
            w = fam.weight(i, j)
            if math.isfinite(w):
                weights[(i, j)] = w
    labels = tuple(fam.describe(v) for v in range(budget))
    return WeightedGraph(budget, weights, labels)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("budget", [1, 2, 3, 50, 600, 2000])
def test_truncate_equals_the_dense_reference(name, budget):
    fam = FAMILIES[name]
    g = fam.truncate(budget)
    ref = dense_truncate(fam, budget)
    assert g.n == ref.n and g.labels == ref.labels
    assert list(g.weights) == list(ref.weights)
    # Bitwise: the same floats, not merely equal ones.
    assert [w.hex() for w in g.weights.values()] == [w.hex() for w in ref.weights.values()]


def _tiny_floor(compute):
    try:
        w = compute()
    except OverflowError:
        return 5e-324
    return w if w > 0.0 else 5e-324


def _star_weight(decay):
    """Reference: the star's weight as a pairwise oracle."""

    def w(a, b):
        if a == b:
            return 0.0
        if a != 0 and b != 0:
            return INFINITY
        leaf = max(a, b)
        return _tiny_floor(lambda: 1.0 / leaf) if decay else 1.0

    return w


def _ray_weight(decay):
    """Reference: the ray's weight as a pairwise oracle (step k costs 2^-k)."""

    def w(a, b):
        if a == b:
            return 0.0
        if abs(a - b) != 1:
            return INFINITY
        step = max(a, b)
        return _tiny_floor(lambda: math.ldexp(1.0, -step)) if decay else 1.0

    return w


REFERENCE_WEIGHTS = {
    "unit-star": _star_weight(False),
    "decaying-star": _star_weight(True),
    "unit-ray": _ray_weight(False),
    "decaying-ray": _ray_weight(True),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_weight_equals_the_pairwise_reference(name):
    fam, ref = FAMILIES[name], REFERENCE_WEIGHTS[name]
    far = [(10**400, 0), (10**400, 10**400 - 1), (1075, 1074), (2000, 0)]
    pairs = [(a, b) for a in range(300) for b in range(300)] + far + [(b, a) for a, b in far]
    for a, b in pairs:
        # Bitwise: the same floats, not merely equal ones.
        assert fam.weight(a, b).hex() == ref(a, b).hex(), (a, b)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_builtins_hang_each_vertex_from_an_earlier_parent(name):
    fam = FAMILIES[name]
    for v in range(1, 2001):
        assert 0 <= fam.parent(v) < v
        assert 0.0 < fam.step(v) < INFINITY


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_truncate_calls_the_weight_linearly_often(name):
    fam = FAMILIES[name]
    calls = 0

    def counting(v):
        nonlocal calls
        calls += 1
        return fam.step(v)

    budget = 2000
    g = dataclasses.replace(fam, step=counting).truncate(budget)
    assert calls <= budget - 1
    assert g.weights == fam.truncate(budget).weights


def test_elf_scan_rejects_a_negative_vertex():
    # Off the family the weight is undefined (the decaying star divided by zero).
    for fam in FAMILIES.values():
        with pytest.raises(UnknownVertex):
            family_elf_scan(fam, -1, 1.0, 10)


# 0, the benchmark's radii, distances the families hit exactly, and inf.
BALL_RADII = (0.0, 0.3183, 0.7071, 1.4142, 2.5, 1.0, 2.0, 0.75, INFINITY)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("budget", [1, 2, 600, 2000])
def test_ball_scan_counts_what_the_full_search_counts(name, budget):
    fam = FAMILIES[name]
    g = fam.truncate(budget)
    for center in sorted({0, 1, 17, budget - 1} & set(range(budget))):
        dist = single_source_distances(g, center)
        for radius in BALL_RADII:
            scan = family_ball_scan(fam, center, radius, budget)
            assert scan.found == int((dist <= radius).sum()), (center, radius)


def test_ball_scan_stops_before_a_distance_beyond_float_range():
    # A ray of 1e308 steps: vertex 2 lies at 2e308, past float range.
    huge = GraphFamily("huge-ray", lambda v: v - 1, lambda v: 1e308, str)
    with pytest.raises(OutOfRange):
        family_ball_scan(huge, 0, INFINITY, 10)
    # The full search raised the same way; the scan now stops at vertex 1.
    assert family_ball_scan(huge, 0, 1.0, 10).found == 1
    assert family_ball_scan(huge, 0, 1e308, 2).found == 2


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_weight_rejects_a_negative_vertex(name):
    # A ray's parent(0) is -1, so weight(-1, 0) once read as the step up to x0.
    fam = FAMILIES[name]
    for a, b in [(-1, 0), (0, -1), (-1, 5), (5, -1), (-1, -1), (-3, 2000)]:
        with pytest.raises(UnknownVertex, match=f"vertex {min(a, b)} is not a vertex of {name}"):
            fam.weight(a, b)


@functools.cache
def _truncation(fam, budget):
    return fam.truncate(budget)


def reference_ball_scan(fam, center, radius, budget, threshold=None):
    """The ball scan as a search of the built truncation: Dijkstra on
    ``fam.truncate(budget)``, stopped at the first vertex beyond the radius."""
    budget, thr = _scan_counts(budget, threshold, radius)
    if not 0 <= center < budget:
        raise UnknownVertex(f"center {center} not among the first {budget} vertices")
    found = 0
    for _, d in _settle(_truncation(fam, budget), center):
        if d > radius:
            break
        found += 1
    verdict = EXCEEDS_THRESHOLD if found >= thr else BOUNDED_SO_FAR
    return BallScan(center=center, radius=radius, found=found, budget=budget, verdict=verdict)


def reference_elf_scan(fam, x, radius, budget, threshold=None):
    """The elf scan as the family's weight read for every enumerated y."""
    budget, thr = _scan_counts(budget, threshold, radius)
    if x < 0:
        raise UnknownVertex(f"vertex {x} is not a vertex of {fam.name}")
    naturals = range(budget + (x <= budget))
    count = sum(1 for y in naturals if y != x and fam.weight(x, y) < radius)
    verdict = EXCEEDS_THRESHOLD if count >= thr else BOUNDED_SO_FAR
    return ElfReport(vertex=x, radius=radius, count=count, verdict=verdict)


def outcome(scan, *args):
    """A scan's result, or its exception's type and message."""
    try:
        return scan(*args)
    except Exception as e:  # noqa: BLE001 -- the exception is the outcome compared
        return type(e), str(e)


def _tabled(name, parents, steps, describe=str):
    return GraphFamily(name, parents.__getitem__, steps.__getitem__, describe)


def _scan_families():
    """Families beyond the builtins: a binary heap, a seeded random tree,
    steps at the edges of float range, and values construction refuses."""
    rng = random.Random(2114)
    top = SCAN_BUDGET_CAP
    # inf is no edge; 1e308 + 1e308 overflows, 1.7e308 is finite and beyond 1e308
    odd = [1.0, 0.0, 5e-324, 1e308, 1.7e308, INFINITY]
    random_parent = [-1] + [rng.randrange(v) for v in range(1, top)]
    random_step = [0.0] + [rng.choice([rng.random(), rng.choice(odd)]) for _ in range(1, top)]
    ray = [-1] + list(range(top - 1))
    fams = [
        GraphFamily("heap", lambda v: (v - 1) // 2, lambda v: 1.0 / (1 + v % 7), str),
        _tabled("random-tree", random_parent, random_step),
        _tabled("odd-steps-ray", ray, [odd[v % 6] for v in range(top)]),
        _tabled("odd-steps-heap", [(v - 1) // 2 for v in range(top)], [odd[v % 3 + 1] for v in range(top)]),
        GraphFamily("huge-ray", lambda v: v - 1, lambda v: 1e308, str),
        GraphFamily("nan-step", lambda v: v - 1, lambda v: math.nan if v == 5 else 1.0, str),
        GraphFamily("negative-step", lambda v: 0, lambda v: -1.0 if v == 7 else 0.5, str),
        GraphFamily("duplicate-labels", lambda v: (v - 1) // 2, lambda v: 1.0, lambda v: str(v % 10)),
    ]
    return list(FAMILIES.values()) + fams


def _centers(budget):
    deep_leaf = (1 << (budget.bit_length() - 1)) - 1  # leftmost of a heap's last level
    return sorted({0, 1, 17, budget - 1, deep_leaf} & set(range(budget)))


# The benchmark's radii and more; 1e308 holds a vertex next to an overflow.
SCAN_RADII = BALL_RADII + (1e308,)


@pytest.mark.parametrize("budget", [1, 2, 600, 2000])
def test_ball_scan_equals_the_search_of_the_truncation(budget):
    for fam in _scan_families():
        for center in _centers(budget):
            for radius in SCAN_RADII:
                for threshold in (None, 3):
                    args = (fam, center, radius, budget, threshold)
                    expected = outcome(reference_ball_scan, *args)
                    assert outcome(family_ball_scan, *args) == expected, (fam.name, args[1:])


@pytest.mark.parametrize("budget", [1, 2, 600, 2000])
def test_elf_scan_equals_the_pairwise_count(budget):
    # The elf count reads no truncation, so a parent at or after v is no error.
    strays = [
        GraphFamily("stray-up", lambda v: v + 1 if v % 3 else v - 1, lambda v: 0.5, str),
        GraphFamily("stray-loop", lambda v: v, lambda v: 0.5, str),
    ]
    for fam in _scan_families() + strays:
        for x in _centers(budget) + [budget, budget + 1]:
            for radius in SCAN_RADII:
                for threshold in (None, 3):
                    args = (fam, x, radius, budget, threshold)
                    expected = outcome(reference_elf_scan, *args)
                    assert outcome(family_elf_scan, *args) == expected, (fam.name, args[1:])


@pytest.mark.parametrize(
    "parent, error",
    [
        # Construction refuses these truncations: the scan raises its error.
        (lambda v: v + 5, UnknownVertex),  # a parent beyond the budget
        (lambda v: -1 if v == 9 else v - 1, UnknownVertex),
        (lambda v: 2.0 if v == 9 else v - 1, UnknownVertex),  # no integer id
        (lambda v: v, InputError),  # a loop, with a nonzero step
        (lambda v: 4 if v == 3 else v - 1, AsymmetryError),  # (3, 4) twice, at two steps
        # Construction accepts these, but the walk cannot use them.
        (lambda v: 4 if v == 3 else 0, InvalidArgument),
        (lambda v: v + 1 if v < 20 else 0, InvalidArgument),
    ],
)
def test_ball_scan_rejects_a_parent_outside_the_earlier_vertices(parent, error):
    fam = GraphFamily("stray", parent, lambda v: 1.0 / v, str)
    try:
        fam.truncate(600)
    except Exception as e:  # noqa: BLE001 -- the scan must raise this same error
        assert type(e) is error
        expected = f"^{re.escape(str(e))}$"
    else:
        assert error is InvalidArgument
        v = next(v for v in range(1, 600) if not 0 <= parent(v) < v)
        expected = re.escape(f"stray: parent({v}) = {parent(v)} is not in [0, {v})")
    for center in (0, 3, 599):
        with pytest.raises(error, match=expected):
            family_ball_scan(fam, center, INFINITY, 600)


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["huge-ray"])
def test_ball_scan_reads_each_vertex_once(name):
    fam = FAMILIES.get(name) or GraphFamily(name, lambda v: v - 1, lambda v: 1e308, str)
    calls = Counter()

    def counted(kind, f):
        def call(v):
            calls[kind, v] += 1
            return f(v)

        return call

    fam = GraphFamily(name, counted("parent", fam.parent), counted("step", fam.step), counted("describe", fam.describe))
    budget = 2000
    for center in _centers(budget):
        for radius in SCAN_RADII:
            calls.clear()
            outcome(family_ball_scan, fam, center, radius, budget)
            assert set(calls.values()) == {1}
            for kind in ("parent", "step"):
                assert {v for k, v in calls if k == kind} == set(range(1, budget))
            assert {v for k, v in calls if k == "describe"} == set(range(budget))


@pytest.mark.parametrize("text", ["0.5", b"0.5"], ids=repr)
def test_a_text_step_is_refused_like_a_nan_step(text):
    fam = GraphFamily("text-ray", lambda v: v - 1, lambda v: text if v == 3 else 1.0, str)
    message = rf"^pair \(2, 3\): text {re.escape(repr(text))} is not a value$"
    with pytest.raises(InvalidArgument, match=message):
        fam.truncate(5)
    for budget in (5, 600):
        with pytest.raises(InvalidArgument, match=message):
            family_ball_scan(fam, 0, 2.0, budget)
    assert family_ball_scan(fam, 0, 2.0, 3).found == 3  # vertex 3 is beyond this truncation
    numbers = GraphFamily("int-ray", lambda v: v - 1, lambda v: 1 if v % 2 else 1.0, str)
    assert family_ball_scan(numbers, 0, 2.0, 600).found == 3


def test_family_vertices_are_the_naturals_as_construction_reads_ids():
    assert UNIT_RAY.weight(np.int64(2), 3) == 1.0 and UNIT_RAY.weight(True, 2) == 1.0
    for bad in (2.0, 1.5, "a", -1, None):
        with pytest.raises(UnknownVertex, match=rf"^vertex {re.escape(repr(bad))} is not a vertex of unit-ray$"):
            UNIT_RAY.weight(bad, 3)
        with pytest.raises(UnknownVertex, match=rf"^vertex {re.escape(repr(bad))} is not a vertex of unit-ray$"):
            family_elf_scan(UNIT_RAY, bad, 2.0, 10)
        with pytest.raises(UnknownVertex, match=rf"^center {re.escape(repr(bad))} not among the first 10 vertices$"):
            family_ball_scan(UNIT_RAY, bad, 2.0, 10)
    assert family_ball_scan(UNIT_RAY, np.int64(2), 1.0, 10).found == 3
    assert family_elf_scan(UNIT_RAY, np.int64(2), 2.0, 10).count == 2
