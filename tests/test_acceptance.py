"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test prints a single ``criterion N: PASS`` line on success (visible with
``pytest -s``); a failure shows up as the test's own FAILED line.  Tolerances
are pinned here on purpose — loosening them is an API break, not a tweak.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from graphmetry import (
    BOUNDED_SO_FAR,
    DECAYING_RAY,
    EXCEEDS_THRESHOLD,
    UNIT_RAY,
    UNIT_STAR,
    ConductanceGraph,
    Path,
    all_pairs_metric,
    check_triangle_equality,
    compatible_resistance_weight,
    check_tree_theorem,
    effective_resistance,
    extract_common_prefix_path,
    family_ball_scan,
    family_elf_scan,
    geodesic_weight,
    harmonic_maximizer,
    is_block_graph,
    is_tree,
    laplacian_apply,
    verify_variational,
)
from graphmetry.oracle import (
    brute_metric_from,
    spanning_tree_resistance,
    unique_induced_path,
)
from .suites import (
    complete_graph_for,
    random_block_graph,
    random_connected_conductance,
    random_nontree,
    random_tree,
    random_weighted_graph,
)

REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def metric_suite():
    """300 graphs, n <= 9, weights from the 0.1 grid up to 10 plus infinity;
    every other instance integer-valued."""
    rng = random.Random(20260822)
    return [
        random_weighted_graph(rng, rng.randint(2, 9), integer=(i % 2 == 0))
        for i in range(300)
    ]


@pytest.fixture(scope="module")
def conductance_suite():
    """200 connected graphs, n <= 9, integer conductances 1..3."""
    rng = random.Random(31415926)
    return [random_connected_conductance(rng, rng.randint(3, 9)) for _ in range(200)]


def test_criterion_01_metric_matches_exact_oracle(metric_suite):
    started = time.monotonic()
    for i, g in enumerate(metric_suite):
        integer = i % 2 == 0
        t = all_pairs_metric(g)
        for x in range(g.n):
            exact = brute_metric_from(g, x)
            for y in range(g.n):
                got = float(t.d[x, y])
                if exact[y] is None:
                    assert math.isinf(got)
                elif integer:
                    assert got == float(exact[y])
                else:
                    want = float(exact[y])
                    assert abs(got - want) <= REL_TOL * max(1.0, want)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"criterion 1: PASS — shortest-path metric matches the exact oracle on "
        f"{len(metric_suite)} random graphs, exact on integer weights ({elapsed:.1f}s)"
    )


def test_criterion_02_metric_axioms_and_idempotence(metric_suite):
    for g in metric_suite:
        t = all_pairs_metric(g)
        for (x, y), w in g.weights.items():
            assert t.d[x, y] <= w
        again = all_pairs_metric(t.as_weight_graph())
        assert np.array_equal(t.d, again.d)
    print(
        "criterion 2: PASS — delta_w <= w everywhere and the metric regenerates "
        "itself bit for bit on all 300 graphs"
    )


def test_criterion_03_geodesic_weight_maximality(metric_suite):
    for g in metric_suite:
        t = all_pairs_metric(g)
        W = geodesic_weight(t)
        back = all_pairs_metric(W.as_weight_graph())
        for x in range(g.n):
            for y in range(g.n):
                assert close(float(back.d[x, y]), float(t.d[x, y]))
                assert g.weight(x, y) <= W.table[x, y] or x == y
    print(
        "criterion 3: PASS — the geodesic weight regenerates the metric within "
        "1e-9 and dominates the generating weight on all 300 graphs"
    )


def test_criterion_04_resistance_desk_values():
    started = time.monotonic()
    k3 = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    c4 = ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    p3 = ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    checks = [
        (k3, 0, 1, Fraction(2, 3)),
        (c4, 0, 1, Fraction(3, 4)),
        (c4, 0, 2, Fraction(1)),
        (p3, 0, 2, Fraction(2)),
    ]
    for b, x, y, want in checks:
        assert abs(effective_resistance(b, x, y) - float(want)) <= REL_TOL
        assert spanning_tree_resistance(b, x, y) == want
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        "criterion 4: PASS — resistance desk values 2/3, 3/4, 1, 2 hold within "
        f"1e-9 and exactly in the rational oracle ({elapsed:.2f}s)"
    )


def test_criterion_05_triangle_equality_iff_separation(conductance_suite):
    started = time.monotonic()
    triples = 0
    for b in conductance_suite:
        for x in range(b.n):
            for y in range(b.n):
                for z in range(b.n):
                    if len({x, y, z}) != 3:
                        continue
                    report = check_triangle_equality(b, x, y, z)
                    assert report.consistent
                    if not report.separated:
                        assert report.margin > REL_TOL
                    triples += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(
        f"criterion 5: PASS — triangle equality coincides with separation on "
        f"{triples} ordered triples across 200 graphs, margins above 1e-9 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_06_tree_characterization():
    rng = random.Random(2718281)
    for _ in range(100):
        t = check_tree_theorem(random_tree(rng, rng.randint(2, 9)))
        assert t.is_tree and t.metrics_equal and t.consistent
    for _ in range(100):
        t = check_tree_theorem(random_nontree(rng, rng.randint(3, 9)))
        assert not t.is_tree and not t.metrics_equal and t.consistent
    print(
        "criterion 6: PASS — resistance equals the inverse-conductance path "
        "metric on 100 trees and on none of 100 non-trees"
    )


def test_criterion_07_block_graph_triple_agreement():
    rng = random.Random(1618033)
    for i in range(200):
        n = rng.randint(2, 8)
        b = random_block_graph(rng, n) if i % 3 == 0 else random_connected_conductance(rng, n)
        blocky, _ = is_block_graph(b)
        compatible = compatible_resistance_weight(b).compatible
        induced = all(
            unique_induced_path(b, x, y)[0]
            for x in range(b.n)
            for y in range(x + 1, b.n)
        )
        assert blocky == compatible == induced
    print(
        "criterion 7: PASS — block recognition, weight compatibility, and the "
        "induced-path oracle agree on 200 connected graphs"
    )


def test_criterion_08_harmonicity_and_variational_bound():
    rng = random.Random(6022140)
    graphs = [random_connected_conductance(rng, rng.randint(2, 9)) for _ in range(20)]
    pairs = 0
    for b in graphs:
        for x in range(b.n):
            for y in range(x + 1, b.n):
                f = harmonic_maximizer(b, x, y)
                residual = max(
                    (abs(laplacian_apply(b, f, v)) for v in range(b.n) if v not in (x, y)),
                    default=0.0,
                )
                assert residual <= 1e-8
                report = verify_variational(b, x, y, trials=1000, seed=pairs)
                assert report.bound_holds and report.maximizer_attains
                pairs += 1
    print(
        f"criterion 8: PASS — maximizers are harmonic (residual <= 1e-8) and the "
        f"variational bound held for 1000 random potentials on each of {pairs} pairs"
    )


def test_criterion_09_family_scans():
    star_ball = family_ball_scan(UNIT_STAR, 0, 2.0, 1000)
    assert star_ball.found == 1000 and star_ball.verdict == EXCEEDS_THRESHOLD
    star_elf = family_elf_scan(UNIT_STAR, 0, 2.0, 1000)
    assert star_elf.count == 1000 and star_elf.verdict == EXCEEDS_THRESHOLD
    ray_ball = family_ball_scan(UNIT_RAY, 0, 3.5, 1000)
    assert ray_ball.found == 4 and ray_ball.verdict == BOUNDED_SO_FAR
    decay_ball = family_ball_scan(DECAYING_RAY, 0, 1.0, 1000)
    assert decay_ball.found == 1000 and decay_ball.verdict == EXCEEDS_THRESHOLD
    # The decaying ray really does stay inside radius 1: exact partial sums.
    total = Fraction(0)
    for m in range(1, 201):
        total += Fraction(1, 2**m)
        assert total == 1 - Fraction(1, 2**m)
        assert total < 1
    # And the float accumulation never overshoots the radius either.
    acc = 0.0
    for m in range(1, 201):
        acc += math.ldexp(1.0, -m)
        assert acc <= 1.0
    print(
        "criterion 9: PASS — star/ray scans hit their exact counts and verdicts; "
        "decaying-ray partial sums stay below radius 1 exactly and in float"
    )


def test_criterion_10_prefix_extraction():
    rng = random.Random(1414213)
    for trial in range(100):
        length = rng.randint(4, 10)
        corridor = tuple(range(length + 1))
        cuts = sorted(rng.sample(range(1, length), rng.randint(2, min(4, length - 1))))
        paths = [Path(corridor[: c + 1]) for c in cuts]
        second_longest = cuts[-2]
        fresh = length + 1
        for _ in range(rng.randint(0, 3)):
            q = rng.randint(0, second_longest)
            tail = tuple(range(fresh, fresh + rng.randint(1, 3)))
            fresh += len(tail)
            paths.append(Path(corridor[: q + 1] + tail))
        rng.shuffle(paths)
        out = extract_common_prefix_path(paths, complete_graph_for(paths), k=2)
        got = out.path.vertices
        assert got == corridor[: len(got)]
        assert len(got) - 1 >= second_longest
        assert all(m >= 2 for m in out.multiplicities[1:])
    print(
        "criterion 10: PASS — 100 extractions each return a planted-path prefix "
        "at least as long as the second-longest truncation"
    )
