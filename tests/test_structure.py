"""Tests for separation, triangle equality, and the tree/block characterizations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import graphmetry.resistance as resistance
import graphmetry.structure as structure
from graphmetry import (
    ConductanceGraph,
    Disconnected,
    WeightedGraph,
    NotDistinct,
    NotSeparated,
    OutOfRange,
    Path,
    SeparationCertificate,
    TriangleReport,
    UnknownVertex,
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
from graphmetry.core import weights_close, weights_close_array
from graphmetry.pathmetric import all_pairs_metric
from .enumerators import unique_induced_path
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


def test_triangle_equality_matches_the_resistance_matrix():
    b = bowtie()
    table = resistance_matrix(b).d
    report = check_triangle_equality(b, 0, 2, 4)
    assert (report.lhs, report.rhs) == (table[0, 4], table[0, 2] + table[2, 4])
    assert report.equal and report.separated


def test_triangle_equality_guards():
    with pytest.raises(NotDistinct):
        check_triangle_equality(k3(), 0, 1, 1)
    # Each vertex is read before the distinctness test, as separates does.
    for x, y, z in ((1.0, 1, 2), (0, 0, 99)):
        with pytest.raises(UnknownVertex):
            check_triangle_equality(k3(), x, y, z)
    split = ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(Disconnected):
        check_triangle_equality(split, 0, 1, 2)


def test_triangle_consistency_random():
    rng = random.Random(103)
    for _ in range(40):
        b = random_connected_conductance(rng, rng.randint(3, 8))
        for _ in range(10):
            x, y, z = rng.sample(range(b.n), 3)
            report = check_triangle_equality(b, x, y, z)
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

    with pytest.raises(Disconnected, match="compatibility check expects a connected graph"):
        compatible_resistance_weight(ConductanceGraph(3, {(0, 1): 1.0}))


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
    assert {key: w._exact(key) for key in w.weights} == {(0, 1): Fraction(1, 3), (1, 2): Fraction(5, 2)}


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


def edge_stack_biconnected_components(b: ConductanceGraph) -> list[list[int]]:
    """Reference: the iterative low-link DFS as it stood before it kept one
    vertex stack, with a stack of edges, a member set per block, and a
    parent skip and an ancestor test per visited neighbour."""
    index, low = [0] * b.n, [0] * b.n
    counter = 1
    edge_stack, blocks = [], []
    for s in range(b.n):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        stack = [(s, -1, iter(b.neighbors(s)))]
        while stack:
            u, parent, todo = stack[-1]
            for v, _ in todo:
                if v == parent:
                    continue
                if not index[v]:
                    edge_stack.append((u, v))
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append((v, u, iter(b.neighbors(v))))
                    break
                if index[v] < index[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], index[v])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= index[parent]:
                    members = set()
                    while True:
                        edge = edge_stack.pop()
                        members.update(edge)
                        if edge == (parent, u):
                            break
                    blocks.append(sorted(members))
    return blocks


def glued_blocks(rng: random.Random) -> ConductanceGraph:
    """Up to 30 vertices: components of trees, cycles, cliques and random
    blocks glued at cut vertices, isolated vertices, and shuffled ids."""
    n = rng.randint(0, 30)
    order = list(range(n))
    rng.shuffle(order)
    pairs, free = set(), list(order)
    while free:
        component = [free.pop()]
        for _ in range(rng.randint(0, 3)):  # blocks hung on this component
            k = rng.randint(1, 6)
            fresh = [free.pop() for _ in range(min(k, len(free)))]
            if not fresh:
                break
            block = [rng.choice(component), *fresh]
            kind = rng.choice(["tree", "cycle", "clique", "random"])
            for i in range(1, len(block)):
                if kind == "tree":
                    pairs.add((block[rng.randrange(i)], block[i]))
                else:
                    pairs.add((block[i - 1], block[i]))
            if kind == "cycle" and len(block) > 2:
                pairs.add((block[-1], block[0]))
            for i, u in enumerate(block):
                for v in block[i + 2 :]:
                    if kind == "clique" or (kind == "random" and rng.random() < 0.3):
                        pairs.add((u, v))
            component += fresh
    return ConductanceGraph(n, {(min(u, v), max(u, v)): 1.0 for u, v in pairs})


def test_biconnected_components_match_the_edge_stack_reference():
    rng = random.Random(3402)
    sizes = set()
    for _ in range(3000):
        b = glued_blocks(rng)
        blocks = biconnected_components(b)
        assert blocks == edge_stack_biconnected_components(b)
        sizes.update(len(block) for block in blocks)
    assert {2, 3, 7} <= sizes


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


# -- reference copies of the separation and triangle checks before the
# output-sensitive rewrite: full searches, one solve per pair, and a
# certificate check over every cross pair ----------------------------------


def reference_reach(b: ConductanceGraph, start: int, banned: int) -> dict[int, int]:
    parent = {start: start}
    queue = [start]
    for u in queue:
        for v, _ in b.neighbors(u):
            if v != banned and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def reference_verify(b: ConductanceGraph, cert: SeparationCertificate) -> bool:
    sx, sz = set(cert.side_x), set(cert.side_z)
    if sx & sz:
        return False
    if cert.separator in sx or cert.separator in sz:
        return False
    return all(b.conductance(v, w) == 0.0 for v in sx for w in sz)


def reference_separates(b: ConductanceGraph, y: int, x: int, z: int):
    for v in (x, y, z):
        b._check_vertex(v)
    if len({x, y, z}) != 3:
        raise NotDistinct("separator and endpoints must be pairwise distinct")
    if z not in reference_reach(b, x, -1):
        raise Disconnected(f"{b.label(x)} and {b.label(z)} are not connected")
    parent = reference_reach(b, x, y)
    if z in parent:
        route = [z]
        while route[-1] != x:
            route.append(parent[route[-1]])
        return NotSeparated(witness=Path(tuple(reversed(route))))
    cert = SeparationCertificate(y, sorted(parent), sorted(reference_reach(b, z, y)), False)
    cert.verified = reference_verify(b, cert)
    return cert


def reference_resistance(b: ConductanceGraph, x: int, y: int) -> float:
    """One dipole solve with a 1-D right-hand side against the cached factor."""
    b._check_vertex(x)
    b._check_vertex(y)
    component, members = b._labelling()
    i = component[x]
    if component[y] != i:
        return math.inf
    system = resistance._grounded(b)
    rhs = np.zeros(len(members[i]))
    rhs[system.position[x]] = 1.0
    rhs[system.position[y]] = -1.0
    f = np.zeros(len(rhs))
    with np.errstate(over="ignore", invalid="ignore"):
        f[1:] = scipy.linalg.lapack.dpotrs(resistance._factor(b, system, i), rhs[1:])[0]
        f -= f[system.position[y]]
    if not np.isfinite(f).all():
        raise OutOfRange(f"resistance between {b.label(x)} and {b.label(y)} is outside float range")
    return float(f[system.position[x]])


def reference_triangle(b: ConductanceGraph, x: int, y: int, z: int) -> TriangleReport:
    for v in (x, z, y):
        b._check_vertex(v)
    if len({x, y, z}) != 3:
        raise NotDistinct("triangle check needs three pairwise distinct vertices")
    lhs = reference_resistance(b, x, z)
    rhs = reference_resistance(b, x, y) + reference_resistance(b, y, z)
    if math.isinf(lhs) or math.isinf(rhs):
        raise Disconnected("triangle check needs a connected triple")
    separation = reference_separates(b, y, x, z)
    return TriangleReport(lhs, rhs, weights_close(lhs, rhs), separation.separated, separation)


def outcome(fn, *args):
    """(report fields, separation) or (exception type, message)."""
    try:
        out = fn(*args)
    except Exception as exc:  # the comparison includes which error and its text
        return type(exc), str(exc)
    if isinstance(out, TriangleReport):
        return (out.lhs, out.rhs, out.equal, out.separated, out.consistent), out.separation
    return out


def offset_union(parts) -> dict[tuple[int, int], float]:
    """Disjoint union of (offset, graph) parts with conductances c / 7."""
    weights = {}
    for start, g in parts:
        for (u, v), c in g.b.items():
            weights[(start + u, start + v)] = c / 7.0
    return weights


def pendant_tree(rng: random.Random) -> ConductanceGraph:
    core = random_tree(rng, rng.randint(2, 25), max_c=9)
    n = core.n + rng.randint(1, 6)
    weights = offset_union([(0, core)])
    for leaf in range(core.n, n):
        weights[(rng.randrange(leaf), leaf)] = rng.randint(1, 9) / 7.0
    return ConductanceGraph(n, weights)


def cut_vertex_hub(rng: random.Random) -> ConductanceGraph:
    """Vertex 0 joined to three to five blobs: deleting it leaves them apart."""
    parts, n = [], 1
    for _ in range(rng.randint(3, 5)):
        blob = rng.choice((random_connected_conductance, random_block_graph, random_tree))(rng, rng.randint(1, 7), max_c=9)
        parts.append((n, blob))
        n += blob.n
    weights = offset_union(parts)
    for start, blob in parts:
        for v in rng.sample(range(blob.n), min(blob.n, rng.randint(1, 2))):
            weights[(0, start + v)] = rng.randint(1, 9) / 7.0
    return ConductanceGraph(n, weights)


def disconnected_parts(rng: random.Random) -> ConductanceGraph:
    """Two or three components plus up to two isolated vertices."""
    parts, n = [], 0
    for _ in range(rng.randint(2, 3)):
        part = rng.choice((random_connected_conductance, random_nontree))(rng, rng.randint(3, 9), max_c=9)
        parts.append((n, part))
        n += part.n
    n += rng.randint(0, 2)
    return ConductanceGraph(n, offset_union(parts))


def overflowing_chain(rng: random.Random) -> ConductanceGraph:
    """A path whose resistance leaves float range across its 1e-309 edges."""
    n = rng.randint(3, 8)
    return ConductanceGraph(n + 1, {(v, v + 1): rng.choice((1e-309, 1e-300, 2e-300)) for v in range(n - 1)})


def triples(rng: random.Random, n: int, count: int):
    for _ in range(count):
        roll = rng.random()
        if roll < 0.7 and n >= 3:
            yield tuple(rng.sample(range(n), 3))
        elif roll < 0.85:
            yield tuple(rng.choice((-1, n, n + 3, *range(n))) for _ in range(3))  # out-of-range ids
        else:
            x, z = rng.randrange(n), rng.randrange(n)
            yield x, x, z  # not distinct


def test_separation_and_triangle_match_the_reference_copies():
    rng = random.Random(163)
    makers = (pendant_tree, cut_vertex_hub, disconnected_parts, overflowing_chain)
    kinds = set()
    for i in range(320):
        b = makers[i % 4](rng)
        for x, y, z in triples(rng, b.n, 8):
            got = outcome(check_triangle_equality, b, x, y, z)
            assert got == outcome(reference_triangle, b, x, y, z)
            kinds.add(got[0] if isinstance(got[0], type) else type(got[1]))
            assert outcome(separates, b, y, x, z) == outcome(reference_separates, b, y, x, z)
    assert {NotSeparated, SeparationCertificate, NotDistinct, Disconnected, UnknownVertex, OutOfRange} <= kinds


def test_certificate_check_matches_the_reference_on_corrupted_certificates():
    b = bowtie()  # triangles {0, 1, 2} and {2, 3, 4}
    cases = [
        SeparationCertificate(2, [0, 1], [3, 4], True),  # sound
        SeparationCertificate(2, [0, 1], [1, 3], True),  # overlapping shores
        SeparationCertificate(2, [0, 1, 2], [3, 4], True),  # separator in a shore
        SeparationCertificate(2, [0, 1], [2, 3, 4], True),
        SeparationCertificate(2, [0, 1, 3], [4], True),  # one crossing edge (3, 4)
        SeparationCertificate(2, [0, 1, 3], [], True),
        SeparationCertificate(2, [1, 3, 4], [0], True),  # larger shore first, crossing (0, 1)
        SeparationCertificate(2, [3, 4], [0], True),  # larger shore first, sound
    ]
    verdicts = [structure._verify_certificate(b, cert) for cert in cases]
    assert verdicts == [reference_verify(b, cert) for cert in cases]
    assert verdicts == [True, False, False, False, False, True, False, True]
    rng = random.Random(167)
    for _ in range(300):
        b = random_connected_conductance(rng, rng.randint(3, 14), extra=rng.choice((0.05, 0.2)))
        shores = [rng.sample(range(b.n), rng.randint(0, b.n // 2)) for _ in range(2)]
        cert = SeparationCertificate(rng.randrange(b.n), *shores, True)
        assert structure._verify_certificate(b, cert) == reference_verify(b, cert)


def test_two_cycles_separate_without_pair_lookups(monkeypatch):
    # Two 1000-vertex cycles sharing vertex 0.
    n = 1999
    weights = {(v, v + 1): 1.0 for v in range(1, n - 1) if v != 999}
    weights.update({(0, 1): 1.0, (0, 999): 1.0, (0, 1000): 1.0, (0, n - 1): 1.0})
    b = ConductanceGraph(n, weights)
    lookups = []
    original = ConductanceGraph.conductance

    def counted(self, u, v):
        lookups.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(ConductanceGraph, "conductance", counted)
    cert = separates(b, 0, 1, 1000)
    assert cert.verified and cert.side_x == list(range(1, 1000)) and cert.side_z == list(range(1000, n))
    assert lookups == []
    assert separates(b, 500, 1, 999).witness.vertices == (1, 0, 999)
    walked = []
    neighbors = ConductanceGraph.neighbors
    monkeypatch.setattr(ConductanceGraph, "neighbors", lambda self, u: walked.append(u) or neighbors(self, u))
    for shores in ([list(range(1, 1000)), [1500]], [[1500], list(range(1, 1000))]):
        walked.clear()
        assert structure._verify_certificate(b, SeparationCertificate(0, *shores, True))
        assert walked == [1500]  # only the smaller shore's neighbours are read
