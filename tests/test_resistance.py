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

import graphmetry.resistance as resistance
from graphmetry import (
    ConductanceGraph,
    Disconnected,
    InputError,
    InternalInvariantError,
    OutOfRange,
    PotentialFunction,
    SameVertex,
    SizeMismatch,
    components,
    effective_resistance,
    energy,
    harmonic_maximizer,
    laplacian_apply,
    parse_graph,
    laplacian_matrix,
    resistance_matrix,
    check_triangle_equality,
    verify_variational,
)
from graphmetry.cli import main
from graphmetry.oracle import spanning_tree_resistance
from .suites import random_connected_conductance


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
    with pytest.raises(ValueError):
        PotentialFunction(np.array([1.0, math.inf]))


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

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return scipy.linalg.lapack.dpotrf(*args, **kwargs)

    monkeypatch.setattr(resistance, "dpotrf", counted)
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


def test_queries_in_one_component_factor_only_that_component(factorizations):
    b = two_components_and_an_isolated_vertex()
    effective_resistance(b, 4, 6)
    harmonic_maximizer(b, 6, 5)
    assert factorizations == [(2, 2)]


def test_grounded_block_matches_the_laplacian_bit_for_bit():
    rng = random.Random(131)
    for _ in range(10):
        b = random_connected_conductance(rng, rng.randint(2, 12), max_c=7)
        weights = {key: c / 7.0 for key, c in b.b.items()}  # inexact sums
        b = ConductanceGraph(b.n, weights)
        L = laplacian_matrix(b)
        block = resistance._grounded(b).grounded_block(0)
        assert np.array_equal(block, L[1:, 1:])


def test_raw_lapack_calls_equal_cho_factor_and_cho_solve_bitwise():
    rng = random.Random(141)
    for k in range(1, 61):
        b = random_connected_conductance(rng, k + 1, max_c=9)
        b = ConductanceGraph(b.n, {key: c / rng.choice((1.0, 7.0, 10.0)) for key, c in b.b.items()})
        block = resistance._grounded(b).grounded_block(0)
        reference = scipy.linalg.cho_factor(block)
        factor = resistance._factor(b, resistance._grounded(b), 0)
        assert np.array_equal(factor, reference[0])
        rhs = np.zeros(k)
        rhs[rng.randrange(k)] = 1.0
        assert np.array_equal(
            resistance.dpotrs(factor, rhs)[0], scipy.linalg.cho_solve(reference, rhs)
        )
        assert np.array_equal(
            resistance.dpotrs(factor, np.eye(k, order="F"), overwrite_b=1)[0],
            scipy.linalg.cho_solve(reference, np.eye(k)),
        )


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

    monkeypatch.setattr(resistance, "dpotrf", broken)
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
    with pytest.raises(OutOfRange, match="10.0 and 1e[+]308"):
        effective_resistance(b, 0, 2)


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
    # Construction keeps such graphs; validate names what is wrong with them.
    for query in (lambda b: effective_resistance(b, 0, 2), resistance_matrix):
        b = ConductanceGraph(3, pairs, labels=("a", "b", "c"))
        with pytest.raises(InputError, match=message):
            query(b)


def test_concurrent_first_queries_agree():
    base = random_connected_conductance(random.Random(151), 40)
    pairs = [(x, y) for x in range(0, 40, 7) for y in range(1, 40, 9) if x != y]
    expected = [effective_resistance(base, x, y) for x, y in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = ConductanceGraph(base.n, base.b)
            results, errors = [None] * 8, []

            def work(k):
                try:
                    results[k] = [effective_resistance(shared, x, y) for x, y in pairs]
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
