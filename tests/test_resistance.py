"""Tests for the energy form, Laplacian, and effective resistance."""

import gc
import math
import random
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf as lapack_dpotrf, dpotrs as lapack_dpotrs

import graphmetry.resistance as resistance
from graphmetry import (
    ConductanceGraph,
    Disconnected,
    InputError,
    InternalInvariantError,
    InvalidArgument,
    OutOfRange,
    PotentialFunction,
    SameVertex,
    SizeMismatch,
    UnknownVertex,
    components,
    effective_resistance,
    energy,
    harmonic_maximizer,
    laplacian,
    laplacian_apply,
    parse_graph,
    laplacian_matrix,
    resistance_matrix,
    check_tree_theorem,
    check_triangle_equality,
    compatible_resistance_weight,
    is_tree,
    verify_variational,
)
from graphmetry.cli import main
from graphmetry.core import _row_sums
from graphmetry.oracle import spanning_tree_resistance
from .suites import random_connected_conductance, random_tree


def unit_edge() -> ConductanceGraph:
    return ConductanceGraph(2, {(0, 1): 1.0})


def k3() -> ConductanceGraph:
    return ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def c4() -> ConductanceGraph:
    return ConductanceGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})


def p3() -> ConductanceGraph:
    return ConductanceGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, labels=("a", "b", "c"))


def test_potential_function_guards():
    f = PotentialFunction(np.array([1.0, 0.0]))
    assert len(f) == 2 and f[0] == 1.0
    with pytest.raises(SizeMismatch):
        PotentialFunction(np.zeros((2, 2)))
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidArgument, match="finite") as err:
            PotentialFunction(np.array([1.0, bad]))
        assert isinstance(err.value, ValueError)  # callers catching ValueError still do


def test_gamma_and_energy_unit_edge():
    f = np.array([1.0, 0.0])
    g = unit_edge()
    assert energy(g, f) == 1.0


def test_energy_scales_with_conductance():
    g = ConductanceGraph(2, {(0, 1): 2.0})
    assert energy(g, np.array([1.0, 0.0])) == 2.0


def test_energy_is_sum_of_gamma():
    rng = random.Random(67)
    for _ in range(20):
        b = random_connected_conductance(rng, rng.randint(2, 8))
        f = np.array([rng.uniform(-2, 2) for _ in range(b.n)])
        q = energy(b, f)
        # Q(f) = sum_x Gamma(f)(x), Gamma(f)(x) = 1/2 sum_y b(x,y) (f(x) - f(y))^2.
        total = sum(0.5 * c * (f[x] - f[y]) ** 2 for x in range(b.n) for y, c in b.neighbors(x))
        assert math.isclose(q, total, rel_tol=1e-12, abs_tol=1e-12)
        assert q >= 0.0
        with pytest.raises(SizeMismatch):
            energy(b, np.zeros(b.n + 1))


def test_laplacian_apply_examples():
    g = p3()
    f = np.array([1.0, 0.5, 0.0])
    assert laplacian_apply(g, f, 1) == 0.0  # harmonic at the midpoint
    assert laplacian_apply(g, f, 0) == 0.5
    assert laplacian_apply(g, f, 2) == -0.5


def test_laplacian_matrix_structure():
    rng = random.Random(71)
    for _ in range(15):
        b = random_connected_conductance(rng, rng.randint(2, 7))
        L = laplacian_matrix(b)
        assert np.array_equal(L, L.T)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        f = np.array([rng.uniform(-1, 1) for _ in range(b.n)])
        applied = L @ f
        for x in range(b.n):
            assert math.isclose(applied[x], laplacian_apply(b, f, x), rel_tol=1e-10, abs_tol=1e-12)
        # The energy is the Laplacian quadratic form.
        assert math.isclose(energy(b, f), float(f @ L @ f), rel_tol=1e-10, abs_tol=1e-12)


def loop_laplacian(b: ConductanceGraph, f: list[float]) -> list[float]:
    """Lf(x) summed over b.neighbors(x) in order: the reference for the bincount."""
    out = []
    for x in range(b.n):
        total = 0.0
        for v, c in b.neighbors(x):
            total += c * (f[x] - f[v])
        out.append(total)
    return out


def loop_laplacian_matrix(b: ConductanceGraph) -> np.ndarray:
    L = np.zeros((b.n, b.n))
    for u, v, c in b.edges():
        L[u, v] -= c
        L[v, u] -= c
        L[u, u] += c
        L[v, v] += c
    return L


def test_edge_array_kernels_match_the_loops():
    # Lf and L sum the same terms in the same order as the loops, so they agree
    # bit for bit; Q sums its edge terms in another order, within m ulps.
    rng = random.Random(300)
    for _ in range(40):
        n = rng.randint(2, 60)
        scaled = random_connected_conductance(rng, n, extra=rng.choice([0.05, 0.3]))
        b = ConductanceGraph(n, {key: c * 10.0 ** rng.randint(-6, 6) for key, c in scaled.b.items()})
        f = harmonic_maximizer(b, 0, n - 1).values
        assert laplacian(b, f).tobytes() == np.array(loop_laplacian(b, f.tolist())).tobytes()
        assert laplacian_matrix(b).tobytes() == loop_laplacian_matrix(b).tobytes()
        g = np.array([rng.uniform(-1, 1) for _ in range(n)])
        q = sum(c * (g[u] - g[v]) ** 2 for u, v, c in b.edges())
        assert math.isclose(energy(b, g), q, rel_tol=len(b.b) * 2.0**-52)


def test_components():
    b = ConductanceGraph(5, {(0, 1): 1.0, (2, 3): 1.0})
    assert components(b) == [[0, 1], [2, 3], [4]]


def test_effective_resistance_desk_values():
    assert abs(effective_resistance(unit_edge(), 0, 1) - 1.0) <= 1e-9
    assert abs(effective_resistance(k3(), 0, 1) - 2.0 / 3.0) <= 1e-9
    assert abs(effective_resistance(c4(), 0, 1) - 3.0 / 4.0) <= 1e-9
    assert abs(effective_resistance(c4(), 0, 2) - 1.0) <= 1e-9
    assert abs(effective_resistance(p3(), 0, 2) - 2.0) <= 1e-9
    with pytest.raises(SameVertex):
        effective_resistance(k3(), 2, 2)


def test_effective_resistance_disconnected():
    b = ConductanceGraph(3, {(0, 1): 1.0})
    assert math.isinf(effective_resistance(b, 0, 2))


def test_series_and_parallel_rules():
    # Series: resistances add; parallel: conductances add.
    series = ConductanceGraph(3, {(0, 1): 2.0, (1, 2): 4.0})
    assert abs(effective_resistance(series, 0, 2) - (1 / 2 + 1 / 4)) <= 1e-12
    parallel = ConductanceGraph(2, {(0, 1): 3.0})
    assert abs(effective_resistance(parallel, 0, 1) - 1 / 3) <= 1e-12


def test_resistance_matrix_matches_pairwise():
    rng = random.Random(73)
    for _ in range(20):
        b = random_connected_conductance(rng, rng.randint(2, 8))
        t = resistance_matrix(b)
        assert t.labels == b.labels
        for x in range(b.n):
            for y in range(b.n):
                r = effective_resistance(b, x, y) if x != y else 0.0
                assert abs(t.d[x, y] - r) <= 1e-9 * max(1.0, r)


def test_resistance_matrix_is_a_metric():
    rng = random.Random(79)
    for _ in range(200):
        b = random_connected_conductance(rng, rng.randint(2, 12))
        t = resistance_matrix(b)
        assert t.validate() == []


def test_resistance_matrix_disconnected_blocks():
    b = ConductanceGraph(4, {(0, 1): 1.0, (2, 3): 2.0})
    t = resistance_matrix(b)
    assert t.d[0, 1] == pytest.approx(1.0)
    assert t.d[2, 3] == pytest.approx(0.5)
    assert math.isinf(t.d[0, 2]) and math.isinf(t.d[1, 3])
    assert t.d[0, 0] == 0.0


def test_resistance_agrees_with_forest_oracle():
    rng = random.Random(83)
    for _ in range(25):
        b = random_connected_conductance(rng, rng.randint(2, 8))
        exact = None
        for x in range(b.n):
            for y in range(x + 1, b.n):
                exact = spanning_tree_resistance(b, x, y)
                got = effective_resistance(b, x, y)
                assert abs(got - float(exact)) <= 1e-9 * max(1.0, float(exact))
        assert exact is not None


def test_harmonic_maximizer_properties():
    g = p3()
    f = harmonic_maximizer(g, 0, 2)
    r = effective_resistance(g, 0, 2)
    assert f[0] > f[2]
    assert abs(energy(g, f) - 1.0) <= 1e-9
    assert abs((f[0] - f[2]) ** 2 - r) <= 1e-9
    # Interior vertices satisfy the mean-value property.
    assert abs(f[1] - (f[0] + f[2]) / 2) <= 1e-12
    assert abs(laplacian_apply(g, f, 1)) <= 1e-8
    with pytest.raises(SameVertex):
        harmonic_maximizer(g, 1, 1)
    with pytest.raises(Disconnected):
        harmonic_maximizer(ConductanceGraph(3, {(0, 1): 1.0}), 0, 2)


def test_harmonic_maximizer_residuals_random():
    rng = random.Random(89)
    for _ in range(20):
        b = random_connected_conductance(rng, rng.randint(2, 9))
        x, y = rng.sample(range(b.n), 2)
        f = harmonic_maximizer(b, x, y)
        for v in range(b.n):
            if v not in (x, y):
                assert abs(laplacian_apply(b, f, v)) <= 1e-8
        assert abs(energy(b, f) - 1.0) <= 1e-9


def test_verify_variational_examples():
    report = verify_variational(unit_edge(), 0, 1, trials=500, seed=1)
    assert report.passed and report.bound_holds and report.maximizer_attains
    assert report.trials == 500 and report.skipped == 0
    assert report.max_quotient <= report.resistance * (1 + 1e-9)

    tri = verify_variational(k3(), 0, 1, trials=1000, seed=2)
    assert tri.passed
    assert abs(tri.resistance - 2 / 3) <= 1e-9
    assert abs(tri.maximizer_quotient - tri.resistance) <= 1e-9

    # A hand potential realizes a strictly smaller quotient.
    f = np.array([1.0, 0.0, 0.0])
    quotient = (f[0] - f[1]) ** 2 / energy(k3(), f)
    assert quotient == 0.5 < 2 / 3


def test_verify_variational_is_deterministic():
    a = verify_variational(c4(), 0, 2, trials=300, seed=7)
    b = verify_variational(c4(), 0, 2, trials=300, seed=7)
    assert a.max_quotient == b.max_quotient
    c = verify_variational(c4(), 0, 2, trials=300, seed=8)
    assert a.max_quotient != c.max_quotient


def test_verify_variational_guards():
    with pytest.raises(SameVertex):
        verify_variational(k3(), 0, 0)
    with pytest.raises(Disconnected):
        verify_variational(ConductanceGraph(3, {(0, 1): 1.0}), 0, 2)


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_variational_needs_a_sample(trials):
    # No samples is no evidence: it must not pass, nor fail inside numpy.
    with pytest.raises(InvalidArgument, match="^trials must be positive$"):
        verify_variational(k3(), 0, 1, trials=trials)


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_verify_variational_does_not_depend_on_the_unit(exponent):
    rng = random.Random(31)
    # The last edge scales to 1; at 2**-1000 an absolute cut-off dropped 99 of 100 samples.
    graphs = [unit_edge(), k3(), c4(), ConductanceGraph(2, {(0, 1): 2.0**-exponent})]
    graphs += [random_connected_conductance(rng, rng.randint(2, 8)) for _ in range(5)]
    for b in graphs:
        scaled = ConductanceGraph(b.n, {(u, v): math.ldexp(c, exponent) for u, v, c in b.edges()})
        report = verify_variational(b, 0, 1, trials=100, seed=5)
        other = verify_variational(scaled, 0, 1, trials=100, seed=5)
        assert (other.skipped, other.passed) == (report.skipped, report.passed) == (0, True)


def test_verify_variational_fails_without_a_surviving_sample(monkeypatch):
    class Constant:
        def standard_normal(self, shape):
            return np.ones(shape)

    monkeypatch.setattr(resistance.np.random, "default_rng", lambda seed: Constant())
    report = verify_variational(k3(), 0, 1, trials=20)
    assert report.skipped == 20 and report.bound_holds and report.maximizer_attains
    assert not report.passed


def test_verify_variational_solves_one_dipole(monkeypatch):
    solves = []
    original = resistance._dipole_potentials

    def counted(b, pairs):
        solves.append(pairs)
        return original(b, pairs)

    monkeypatch.setattr(resistance, "_dipole_potentials", counted)
    report = verify_variational(c4(), 0, 2, trials=50, seed=3)
    assert report.passed and solves == [[(0, 2)]]


def test_verify_variational_random_sweep():
    rng = random.Random(97)
    for _ in range(10):
        b = random_connected_conductance(rng, rng.randint(2, 8))
        x, y = rng.sample(range(b.n), 2)
        report = verify_variational(b, x, y, trials=200, seed=rng.randint(0, 10**6))
        assert report.passed


def two_components_and_an_isolated_vertex() -> ConductanceGraph:
    return ConductanceGraph(
        8,
        {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 1.0, (0, 3): 3.0, (1, 3): 1.0, (4, 5): 1.0, (5, 6): 2.0},
    )


@pytest.fixture
def factorizations(monkeypatch):
    calls = []
    original = scipy.linalg.lapack.dpotrf

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counted)
    return calls


def test_one_factorization_per_component_shared_by_every_query(factorizations):
    b = two_components_and_an_isolated_vertex()
    for _ in range(3):
        effective_resistance(b, 0, 2)
        effective_resistance(b, 6, 4)
        harmonic_maximizer(b, 3, 1)
        harmonic_maximizer(b, 5, 6)
        check_triangle_equality(b, 0, 1, 2)
        check_triangle_equality(b, 4, 5, 6)
        resistance_matrix(b)
        assert math.isinf(effective_resistance(b, 0, 7))
        components(b)
    assert sorted(factorizations) == [(2, 2), (3, 3)]

    edited = dict(b.b)
    edited[(0, 1)] = 5.0
    b2 = ConductanceGraph(b.n, edited)
    effective_resistance(b2, 0, 2)
    effective_resistance(b2, 2, 0)
    assert len(factorizations) == 3


@pytest.fixture
def solves(monkeypatch):
    calls = []
    original = scipy.linalg.lapack.dpotrs

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", counted)
    return calls


def test_a_callers_edit_to_the_resistance_table_never_reaches_a_later_call(factorizations):
    for b in (random_tree(random.Random(143), 12), random_connected_conductance(random.Random(143), 12)):
        reference = resistance_matrix(b).d.copy()
        verdicts = (check_tree_theorem(b), compatible_resistance_weight(b))
        assert verdicts[0].is_tree == verdicts[0].metrics_equal == verdicts[1].compatible == is_tree(b)
        for _ in range(2):
            table = resistance_matrix(b)
            assert table.d.tobytes() == reference.tobytes() and table.labels == b.labels
            table.d[0, 1] = table.d[1, 0] = -1.0  # a caller's edit stays in its own table
            table.d[2:, 3] = 0.0
            assert resistance_matrix(b).d.tobytes() == reference.tobytes()
            assert (check_tree_theorem(b), compatible_resistance_weight(b)) == verdicts
    assert factorizations == [(11, 11), (11, 11)]  # one factor per graph


def test_tree_and_block_checks_factor_once_and_solve_twice(factorizations, solves):
    # characterize --tree --block runs both on one graph; each reads its own table.
    b = random_connected_conductance(random.Random(141), 30)
    check_tree_theorem(b)
    compatible_resistance_weight(b)
    assert factorizations == [(29, 29)]
    assert solves == [(29, 29), (29, 29)]


def test_queries_in_one_component_factor_only_that_component(factorizations):
    b = two_components_and_an_isolated_vertex()
    effective_resistance(b, 4, 6)
    harmonic_maximizer(b, 6, 5)
    assert factorizations == [(2, 2)]


def scattered_components(rng: random.Random, parts: int, max_size: int = 7) -> ConductanceGraph:
    """``parts`` components of 1 to ``max_size`` vertices under a random vertex
    numbering, each a spanning tree plus chords, with conductances c/7 so that
    row sums are inexact."""
    sizes = [rng.randint(1, max_size) for _ in range(parts)]
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    pairs, start = {}, 0
    for size in sizes:
        vs = perm[start : start + size]
        start += size
        for i in range(1, size):
            for j in {rng.randrange(i), rng.randrange(i)}:
                pairs[(min(vs[i], vs[j]), max(vs[i], vs[j]))] = rng.randint(1, 20) / 7.0
    return ConductanceGraph(len(perm), pairs)


def per_component_resistance_table(b: ConductanceGraph):
    """The all-pairs table as ``resistance_matrix`` built it one component at a
    time: each grounded block from its own row sums, one ``dpotrf``, one
    ``dpotrs`` against the identity, the Green formula and an ``np.ix_``
    scatter.  Returns the table, each component's factor (None for a single
    vertex) and the ``dpotrf`` shapes in call order."""
    component, members = b._labelling()
    position = np.empty(b.n, dtype=np.intp)
    for comp in members:
        position[comp] = np.arange(len(comp))
    group = np.array(component, dtype=np.intp)[b._ends[:, 0]]
    d = np.full((b.n, b.n), math.inf)
    np.fill_diagonal(d, 0.0)
    factors, shapes = [], []
    for i, comp in enumerate(members):
        if len(comp) == 1:
            factors.append(None)
            continue
        k = len(comp) - 1
        ends, c = position[b._ends[group == i]], b._values[group == i]  # edges() order
        inner = (ends > 0).all(axis=1)
        u, v = ends[inner].T - 1
        A = np.zeros((k, k), order="F")
        A[u, v] = A[v, u] = -c[inner]
        A[np.diag_indices(k)] = _row_sums(ends, c, k + 1)[1:]
        shapes.append(A.shape)
        factor, info = lapack_dpotrf(A, overwrite_a=1, clean=0)
        assert info == 0
        factors.append(factor)
        G = lapack_dpotrs(factor, np.eye(k, order="F"), overwrite_b=1)[0]
        R = np.empty((k + 1, k + 1))
        G = 0.5 * G + 0.5 * G.T
        g = np.diag(G)
        R[1:, 1:] = g[:, None] + g[None, :] - 2.0 * G
        R[0, 1:] = R[1:, 0] = g + 0.0
        np.fill_diagonal(R, 0.0)
        assert np.isfinite(R).all()
        d[np.ix_(comp, comp)] = R
    return d, factors, shapes


def test_resistance_table_and_factors_equal_the_per_component_loop_bitwise(factorizations):
    rng = random.Random(157)
    graphs = [ConductanceGraph(1, {}), ConductanceGraph(3, {}), scattered_components(rng, 1)]
    graphs += [ConductanceGraph(b.n, {key: c / 7.0 for key, c in b.b.items()})
               for b in (random_connected_conductance(rng, n, max_c=20) for n in (2, 9, 40))]
    graphs += [scattered_components(rng, parts) for parts in (2, 3, 5, 17, 40, 80) for _ in range(3)]
    for b in graphs:
        d, factors, shapes = per_component_resistance_table(b)
        factorizations.clear()
        assert resistance_matrix(b).d.tobytes() == d.tobytes()
        assert factorizations == shapes
        kept = b._grounded._factors
        assert [f is None for f in kept] == [f is None for f in factors]
        assert all(f is None or f.tobytes() == g.tobytes() for f, g in zip(kept, factors))


def test_errors_name_the_component_the_per_component_loop_named(monkeypatch):
    # Two paths on conductance 1e-308 and an isolated h: R is 1e308 across one
    # edge and beyond float range across two, in both paths.  The component
    # of a, the least vertex, is named whether it is the larger (a-c-d-f beside
    # b-e-g) or the smaller (a-e-g beside b-c-d-f).
    for path, pair in [((0, 2, 3, 5), "a and d"), ((0, 4, 6), "a and g")]:
        other = [v for v in range(1, 7) if v not in path]
        pairs = {(u, v): 1e-308 for route in (path, other) for u, v in zip(route, route[1:])}
        with pytest.raises(OutOfRange, match=f"between {pair} is outside"):
            resistance_matrix(ConductanceGraph(8, pairs, labels=tuple("abcdefgh")))

    def broken(a, **kwargs):
        return a, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", broken)
    b = ConductanceGraph(7, {(0, 2): 1.0, (2, 3): 1.0, (3, 5): 1.0, (1, 4): 1.0}, labels=tuple("abcdefg"))
    with pytest.raises(InternalInvariantError, match="component of a is not"):
        resistance_matrix(b)
    with pytest.raises(InternalInvariantError, match="component of b is not"):
        effective_resistance(b, 4, 1)


def test_grounded_block_matches_the_laplacian_bit_for_bit():
    rng = random.Random(131)
    graphs = [random_connected_conductance(rng, rng.randint(2, 12), max_c=7) for _ in range(10)]
    graphs = [ConductanceGraph(b.n, {key: c / 7.0 for key, c in b.b.items()}) for b in graphs]  # inexact sums
    graphs += [scattered_components(rng, rng.randint(1, 30)) for _ in range(10)]
    for b in graphs:
        L = laplacian_matrix(b)
        system = resistance._grounded(b)
        for i, members in enumerate(b._labelling().members):
            if len(members) > 1:
                block = system.block(i, system._blocks)
                assert block.flags.f_contiguous
                assert block.tobytes() == L[np.ix_(members[1:], members[1:])].tobytes()


def test_raw_lapack_calls_equal_cho_factor_and_cho_solve_bitwise():
    rng = random.Random(141)
    for k in range(1, 61):
        b = random_connected_conductance(rng, k + 1, max_c=9)
        b = ConductanceGraph(b.n, {key: c / rng.choice((1.0, 7.0, 10.0)) for key, c in b.b.items()})
        system = resistance._grounded(b)
        reference = scipy.linalg.cho_factor(system.block(0, system._blocks))
        factor = resistance._factor(b, resistance._grounded(b), 0)
        assert np.array_equal(factor, reference[0])
        rhs = np.zeros(k)
        rhs[rng.randrange(k)] = 1.0
        assert np.array_equal(
            scipy.linalg.lapack.dpotrs(factor, rhs)[0], scipy.linalg.cho_solve(reference, rhs)
        )
        assert np.array_equal(
            scipy.linalg.lapack.dpotrs(factor, np.eye(k, order="F"), overwrite_b=1)[0],
            scipy.linalg.cho_solve(reference, np.eye(k)),
        )


def test_multi_column_solve_equals_one_column_solves_bitwise():
    # Pairs of one triple share one dpotrs call; each of its columns must be
    # the column a one-pair query would get, as a 2-D or a 1-D right-hand side.
    rng = random.Random(151)
    for k in [*range(1, 61), 200, 300, 600]:
        n = k + 1
        weights = {(rng.randrange(v), v): rng.randint(1, 9) / rng.choice((1.0, 7.0, 10.0)) for v in range(1, n)}
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))
            weights.setdefault((u, v), rng.randint(1, 9) / 7.0)
        b = ConductanceGraph(n, weights)
        factor = resistance._factor(b, resistance._grounded(b), 0)
        for m in (2, 3, 5):
            rhs = np.zeros((k, m), order="F")
            for col in range(m):
                i, j = rng.randrange(-1, k), rng.randrange(-1, k)  # -1 is the ground
                if i >= 0:
                    rhs[i, col] += 1.0
                if j >= 0:
                    rhs[j, col] -= 1.0
            multi = scipy.linalg.lapack.dpotrs(factor, rhs)[0]
            for col in range(m):
                one = scipy.linalg.lapack.dpotrs(factor, rhs[:, col : col + 1])[0][:, 0]
                flat = scipy.linalg.lapack.dpotrs(factor, rhs[:, col].copy())[0]
                assert np.array_equal(multi[:, col], one) and np.array_equal(one, flat)


def test_triangle_reports_the_first_pair_outside_float_range():
    # R is 1e309 across the edge (0, 1) and at most 2e300 elsewhere; vertex 4 is isolated.
    b = ConductanceGraph(5, {(0, 1): 1e-309, (1, 2): 1e-300, (2, 3): 1e-300})
    for triple, pair in [((0, 2, 3), "0 and 3"), ((1, 0, 3), "1 and 0"), ((0, 1, 4), "0 and 1"), ((4, 0, 1), "0 and 1")]:
        with pytest.raises(OutOfRange, match=f"between {pair} is outside"):
            check_triangle_equality(b, *triple)
    assert check_triangle_equality(b, 1, 2, 3).separated
    # Every vertex is checked before the solve, so an unknown y wins over an overflowing (x, z).
    with pytest.raises(UnknownVertex, match="vertex 9 out of range"):
        check_triangle_equality(b, 0, 9, 2)


def test_effective_resistance_is_bitwise_symmetric():
    rng = random.Random(137)
    for _ in range(20):
        b = random_connected_conductance(rng, rng.randint(2, 15), max_c=9)
        for _ in range(10):
            x, y = rng.sample(range(b.n), 2)
            assert effective_resistance(b, x, y) == effective_resistance(b, y, x)


def test_stiff_edge_far_from_the_ground_keeps_full_precision():
    b = {(i, i + 1): 1.0 for i in range(999)}
    b[(999, 1000)] = 1e9
    path = ConductanceGraph(1001, b)
    value = effective_resistance(path, 999, 1000)
    assert abs(value - 1e-9) <= 1e-12 * 1e-9
    f = harmonic_maximizer(path, 1000, 999)
    assert abs((f[1000] - f[999]) ** 2 - value) <= 1e-12 * value


def test_cached_system_keeps_no_reference_to_the_graph():
    enabled = gc.isenabled()
    gc.disable()
    try:
        b = random_connected_conductance(random.Random(139), 12)
        effective_resistance(b, 0, 5)
        harmonic_maximizer(b, 1, 4)
        resistance_matrix(b)
        ref = weakref.ref(b)
        del b
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_failed_factorization_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def broken(a, **kwargs):
        return a, 1  # LAPACK's info > 0: a leading minor is not positive definite

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", broken)
    with pytest.raises(InternalInvariantError, match="component of a"):
        effective_resistance(p3(), 0, 2)
    with pytest.raises(InternalInvariantError):
        resistance_matrix(k3())

    path = tmp_path / "p3.edges"
    path.write_text("a b 1\nb c 1\n")
    for argv in (["--pair", "a", "c"], ["--matrix"]):
        code = main(["resistance", str(path), *argv])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("internal error:") and "Traceback" not in err


def test_absorbed_conductances_fail_the_factor_as_out_of_range():
    # fl(1e308 + 10) = 1e308: the grounded block is singular in floats.
    b = ConductanceGraph(3, {(0, 1): 10.0, (1, 2): 1e308})
    for _ in range(2):  # the failed factor leaves no half-factored block to retry
        with pytest.raises(OutOfRange, match="10.0 and 1e[+]308"):
            effective_resistance(b, 0, 2)
        with pytest.raises(OutOfRange, match="10.0 and 1e[+]308"):
            resistance_matrix(b)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ({(0, 1): math.inf, (1, 2): 1.0}, r"conductance \(a, b\) must be finite"),
        ({(0, 1): math.nan, (1, 2): 1.0}, r"conductance \(a, b\) is NaN"),
        ({(0, 1): 1e308, (1, 2): 1e308}, "conductance row sum at b is not finite"),
    ],
    ids=["inf", "nan", "row-sum-overflow"],
)
def test_non_finite_grounded_block_is_an_input_error(pairs, message):
    # Construction rejects such graphs, so no query ever factors a non-finite block.
    with pytest.raises(InputError, match=message):
        ConductanceGraph(3, pairs, labels=("a", "b", "c"))


def test_concurrent_first_queries_agree():
    # Eight threads race to the first factors of one shared graph, with one
    # component or with many that share one buffer of blocks; half of them
    # ask for the table first and half for the pairs.
    rng = random.Random(151)
    for base in (random_connected_conductance(rng, 40), scattered_components(rng, 30)):
        pairs = [(x, y) for x in range(0, base.n, 7) for y in range(1, base.n, 9) if x != y]
        expected = ([effective_resistance(base, x, y) for x, y in pairs], resistance_matrix(base).d.tobytes())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = ConductanceGraph(base.n, base.b)
                start, results, errors = threading.Barrier(8), [None] * 8, []

                def work(k):
                    try:
                        start.wait()
                        table = resistance_matrix(shared).d.tobytes() if k % 2 else None
                        values = [effective_resistance(shared, x, y) for x, y in pairs]
                        results[k] = (values, table or resistance_matrix(shared).d.tobytes())
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert all(r == expected for r in results)
        finally:
            sys.setswitchinterval(interval)
