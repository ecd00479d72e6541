"""Tests for completeness evidence, family scans, and prefix extraction."""

import dataclasses
import math
import random

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
    DuplicatePath,
    EmptyInput,
    InvalidArgument,
    MixedStart,
    Path,
    TooLarge,
    UnknownVertex,
    WeightedGraph,
    extract_common_prefix_path,
    family_ball_scan,
    family_elf_scan,
    metric_components,
    validate,
    verify_maximal_weight,
)
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


def test_verify_maximal_weight_random():
    rng = random.Random(59)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(1, 8), integer=rng.random() < 0.5)
        assert verify_maximal_weight(g).passed


def test_metric_components():
    g = WeightedGraph(5, {(0, 1): 1.0, (2, 3): 1.0})
    assert metric_components(g) == [[0, 1], [2, 3], [4]]
    assert metric_components(WeightedGraph(0, {})) == []


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


def test_metric_components_skip_nan_weights():
    # Construction keeps a NaN or -inf weight (validate reports it); it joins nothing.
    g = WeightedGraph(5, {(0, 1): math.nan, (1, 2): 1.0, (3, 4): 2.0})
    assert any("NaN" in line for line in validate(g))
    assert metric_components(g) == [[0], [1, 2], [3, 4]]
    assert metric_components(WeightedGraph(3, {(0, 2): math.nan})) == [[0], [1], [2]]
    g = WeightedGraph(3, {(0, 1): -math.inf, (1, 2): 1.0})
    assert any("negative" in line for line in validate(g))
    assert metric_components(g) == [[0], [1, 2]]


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


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_earlier_lists_exactly_the_earlier_neighbours(name):
    fam = FAMILIES[name]
    for b in range(300):
        assert all(0 <= a < b for a in fam.earlier(b))
    for a in range(300):
        for b in range(a + 1, 300):
            finite = math.isfinite(fam.weight(a, b))
            assert finite == (a in fam.earlier(b) or b in fam.earlier(a)), (a, b)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_truncate_calls_the_weight_linearly_often(name):
    fam = FAMILIES[name]
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return fam.weight(a, b)

    budget = 2000
    g = dataclasses.replace(fam, weight=counting).truncate(budget)
    assert calls <= 2 * budget
    assert g.weights == fam.truncate(budget).weights


def test_elf_scan_rejects_a_negative_vertex():
    # Off the family the weight is undefined (the decaying star divided by zero).
    for fam in FAMILIES.values():
        with pytest.raises(UnknownVertex):
            family_elf_scan(fam, -1, 1.0, 10)
