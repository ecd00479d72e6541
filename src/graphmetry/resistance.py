"""Energy form, Laplacian, and effective resistance of a conductance graph.

The quadratic form Q(f) = 1/2 sum_{x,y} b(x,y) (f(x) - f(y))^2 counts each
edge once; its Laplacian is Lf(v) = sum_w b(v,w) (f(v) - f(w)).  The
effective resistance R(x, y) is the supremum of (f(y) - f(x))^2 over
potentials of unit energy; :func:`energy` and :func:`verify_variational`
state that definition.

Every resistance query reads one grounded system per graph, built on first
use and kept on the graph: the components, and for each multi-vertex
component one Cholesky factor of its Laplacian block grounded at its least
vertex.  R(x, y) and the harmonic maximizer are one dipole solve each
(unit current in at x and out at y, then f(y) = 0 and R = f(x)); the
all-pairs table inverts the grounded block.  Graphs are immutable, so an
edit builds a new graph with a new system.  R is checked against its
variational description by sampling, against harmonicity of the maximizer,
and — in the tests — against an exact spanning-forest oracle.  R is a
metric; disconnected pairs get resistance inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import INFINITY, TAU_EQ, ConductanceGraph, invariant_error, validate, weights_close
from .errors import Disconnected, InputError, OutOfRange, SameVertex, SizeMismatch
from .pathmetric import MetricTable


@dataclass
class PotentialFunction:
    """Real-valued vertex potential with finite entries."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise SizeMismatch("potential must be a flat vector")
        if not np.isfinite(self.values).all():
            raise ValueError("potential entries must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> float:
        return float(self.values[x])


def _as_values(b: ConductanceGraph, f: PotentialFunction | np.ndarray) -> np.ndarray:
    values = f.values if isinstance(f, PotentialFunction) else np.asarray(f, dtype=float)
    if values.shape != (b.n,):
        raise SizeMismatch(f"potential has shape {values.shape}, graph has {b.n} vertices")
    return values


def energy(b: ConductanceGraph, f: PotentialFunction | np.ndarray) -> float:
    """Q(f) = sum over edges of b(u,v) (f(u) - f(v))^2."""
    values = _as_values(b, f)
    total = 0.0
    for u, v, c in b.edges():
        total += c * (values[u] - values[v]) ** 2
    return float(total)


def laplacian_apply(b: ConductanceGraph, f: PotentialFunction | np.ndarray, x: int) -> float:
    """Lf(x) = sum_w b(x,w) (f(x) - f(w))."""
    values = _as_values(b, f)
    b._check_vertex(x)
    return float(sum(c * (values[x] - values[v]) for v, c in b.neighbors(x)))


def laplacian_matrix(b: ConductanceGraph) -> np.ndarray:
    """Dense Laplacian L = diag(row sums) - conductance matrix.

    The resistance queries do not build it; they factor per-component
    grounded blocks with the same entries.
    """
    L = np.zeros((b.n, b.n))
    for u, v, c in b.edges():
        L[u, v] -= c
        L[v, u] -= c
        L[u, u] += c
        L[v, v] += c
    return L


class _GroundedSystem:
    """The components of one conductance graph and their grounded factors.

    Each vertex gets a component label (components are numbered by their
    least vertex) and a position in its sorted component.  The Laplacian
    block of a multi-vertex component, grounded at its least vertex, is
    Cholesky-factored on first use and kept.  The system holds arrays only,
    never the graph, so it makes no reference cycle; each part is built in
    full before it is stored, so racing readers at worst build it twice.
    """

    def __init__(self, b: ConductanceGraph) -> None:
        label = [0] * b.n
        position = [0] * b.n
        members = b.components()
        for i, comp in enumerate(members):
            for j, v in enumerate(comp):
                label[v], position[v] = i, j
        self.members = [np.array(comp, dtype=np.intp) for comp in members]
        self.label = label
        self.position = position
        # Edge arrays in edges() order, grouped by component with a stable
        # sort so each group keeps that order, in component positions.
        edges = b.edges()
        ends = np.array([(u, v) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2)
        weights = np.array([c for _, _, c in edges], dtype=float)
        group = np.array(label, dtype=np.intp)[ends[:, 0]]
        order = np.argsort(group, kind="stable")
        self._ends = np.array(position, dtype=np.intp)[ends[order]]
        self._weights = weights[order]
        self._starts = np.concatenate(
            ([0], np.cumsum(np.bincount(group, minlength=len(members))))
        )
        self._factors: list[np.ndarray | None] = [None] * len(members)

    def grounded_block(self, i: int) -> np.ndarray:
        """Laplacian block of component ``i`` without its least vertex's row and column.

        The entries equal those of ``laplacian_matrix`` bit for bit: the
        diagonal sums each vertex's conductances in edges() order.  The
        block is symmetric and Fortran-ordered, so LAPACK can factor it in
        place.
        """
        k = len(self.members[i]) - 1
        lo, hi = self._starts[i], self._starts[i + 1]
        ends, c = self._ends[lo:hi] - 1, self._weights[lo:hi]  # the ground is -1
        diag = np.bincount(ends.ravel() + 1, np.repeat(c, 2), k + 1)[1:]
        inner = (ends >= 0).all(axis=1)
        u, v, c = ends[inner, 0], ends[inner, 1], c[inner]
        A = np.zeros((k, k), order="F")
        A[u, v] = -c
        A[v, u] = -c
        A[np.arange(k), np.arange(k)] = diag
        return A


def _grounded(b: ConductanceGraph) -> _GroundedSystem:
    """The graph's grounded system, built on first use and kept on the graph."""
    system = b._grounded
    if system is None:
        system = _GroundedSystem(b)
        b._grounded = system
    return system


def _factor(b: ConductanceGraph, system: _GroundedSystem, i: int) -> np.ndarray:
    """Cholesky factor U of component ``i``'s grounded block (A = U^T U), built
    once.  An inf or NaN entry, which only an invalid graph has, is an
    InputError; a failed factorization is OutOfRange when the graph's
    conductances absorb one another in float sums, and a bug otherwise."""
    factor = system._factors[i]
    if factor is None:
        block = system.grounded_block(i)
        if not np.isfinite(block).all():  # bare dpotrf, unlike cho_factor, does not check
            raise InputError("; ".join(validate(b)))
        factor, info = dpotrf(block, overwrite_a=1, clean=0)
        if info > 0:
            raise invariant_error(
                b,
                f"grounded Laplacian of the component of {b.label(system.members[i][0])} is not "
                "positive definite; this is a bug",
            )
        system._factors[i] = factor
    return factor


def components(b: ConductanceGraph) -> list[list[int]]:
    """Connected components of the positive-conductance edge set, sorted."""
    return [m.tolist() for m in _grounded(b).members]


def _dipole_potentials(b: ConductanceGraph, pairs: list[tuple[int, int]]) -> list[np.ndarray | None]:
    """Potential of a unit current from x to y, f(y) = 0, zero off their
    component, for each pair (x, y); None for a pair that is not connected.

    The connected pairs lie in one component, as the pairs of one triple
    do, and are solved in one call against its cached factor, one
    right-hand side e_x - e_y per pair.  Every potential lies in
    [f(y), f(x)], so the shift to f(y) = 0 cancels nothing.  Raises
    OutOfRange for the first pair with a potential outside float range.
    """
    system = _grounded(b)
    label, position = system.label, system.position
    connected = [k for k, (x, y) in enumerate(pairs) if label[x] == label[y]]
    out: list[np.ndarray | None] = [None] * len(pairs)
    if not connected:
        return out
    i = label[pairs[connected[0]][0]]
    members = system.members[i]
    columns = np.arange(len(connected))
    xs = [position[pairs[k][0]] for k in connected]
    ys = [position[pairs[k][1]] for k in connected]
    rhs = np.zeros((len(members), len(connected)), order="F")
    rhs[xs, columns] = 1.0
    rhs[ys, columns] = -1.0
    f = np.zeros_like(rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        f[1:] = dpotrs(_factor(b, system, i), rhs[1:], overwrite_b=1)[0]
        f -= f[ys, columns]
    finite = np.isfinite(f).all(axis=0)
    for col, k in enumerate(connected):
        if not finite[col]:
            raise _out_of_range(b, *pairs[k])
        out[k] = np.zeros(b.n)
        out[k][members] = f[:, col]
    return out


def _out_of_range(b: ConductanceGraph, x: int, y: int) -> OutOfRange:
    return OutOfRange(f"resistance between {b.label(x)} and {b.label(y)} is outside float range")


def effective_resistance(b: ConductanceGraph, x: int, y: int) -> float:
    """R(x, y) = f(x) for the unit dipole potential; inf when x, y are not connected."""
    b._check_vertex(x)
    b._check_vertex(y)
    if x == y:
        raise SameVertex("resistance needs two distinct vertices")
    (values,) = _dipole_potentials(b, [(x, y)])
    if values is None:
        return INFINITY
    return float(values[x])


def resistance_matrix(b: ConductanceGraph) -> MetricTable:
    """All-pairs effective resistance as a MetricTable.

    From each component's cached factor, grounded at its least vertex g:
    invert the grounded Laplacian to G and read off
    R(i, j) = G[i,i] + G[j,j] - 2 G[i,j] (with G extended by zeros at g).
    The Green-matrix route keeps the table exactly symmetric.  Raises
    OutOfRange when R on a connected pair is outside float range.
    """
    d = np.full((b.n, b.n), INFINITY)
    np.fill_diagonal(d, 0.0)
    system = _grounded(b)
    for i, comp in enumerate(system.members):
        if len(comp) == 1:
            continue
        R = np.empty((len(comp), len(comp)))
        with np.errstate(over="ignore", invalid="ignore"):
            G = dpotrs(_factor(b, system, i), np.eye(len(comp) - 1, order="F"), overwrite_b=1)[0]
            G = 0.5 * G + 0.5 * G.T  # halving first keeps a large G[k,k] in range
            g = np.diag(G)
            R[1:, 1:] = g[:, None] + g[None, :] - 2.0 * G
        R[0, 1:] = R[1:, 0] = g + 0.0  # (0 + G[k,k]) - 2 * 0, with G = 0 at the ground
        np.fill_diagonal(R, 0.0)
        if not np.isfinite(R).all():
            x, y = np.argwhere(~np.isfinite(R))[0]
            raise _out_of_range(b, int(comp[x]), int(comp[y]))
        d[np.ix_(comp, comp)] = R
    return MetricTable(d, b.labels)


def harmonic_maximizer(b: ConductanceGraph, x: int, y: int) -> PotentialFunction:
    """The unit-energy potential attaining R: harmonic off {x, y}.

    Normalized so Q(f) = 1 and f(x) > f(y); then (f(y) - f(x))^2 = R(x, y).
    """
    b._check_vertex(x)
    b._check_vertex(y)
    if x == y:
        raise SameVertex("harmonic maximizer needs two distinct vertices")
    (values,) = _dipole_potentials(b, [(x, y)])
    if values is None:
        raise Disconnected(f"{b.label(x)} and {b.label(y)} are not connected")
    resistance = values[x]
    # Q(v) equals the injected current times the potential gap, i.e. R itself.
    return PotentialFunction(values / math.sqrt(resistance))


@dataclass
class VariationalReport:
    """Sampled evidence for the variational description of R."""

    resistance: float
    max_quotient: float
    bound_holds: bool
    maximizer_quotient: float
    maximizer_attains: bool
    trials: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.bound_holds and self.maximizer_attains


def verify_variational(
    b: ConductanceGraph, x: int, y: int, trials: int = 1000, seed: int = 0
) -> VariationalReport:
    """Sample random potentials and check (f(y)-f(x))^2 / Q(f) <= R(x, y).

    Near-constant samples (vanishing energy) are excluded — the supremum
    ranges over potentials with Q(f) > 0 — and the harmonic maximizer must
    attain the bound within tolerance.
    """
    b._check_vertex(x)
    b._check_vertex(y)
    if x == y:
        raise SameVertex("the variational quotient needs two distinct vertices")
    resistance = effective_resistance(b, x, y)
    if math.isinf(resistance):
        raise Disconnected(f"{b.label(x)} and {b.label(y)} are not connected")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((trials, b.n))
    edges = b.edges()
    q = np.zeros(trials)
    for u, v, c in edges:
        q += c * (samples[:, u] - samples[:, v]) ** 2
    gap2 = (samples[:, y] - samples[:, x]) ** 2
    alive = q > 1e-300
    skipped = int(trials - alive.sum())
    quotients = gap2[alive] / q[alive]
    max_quotient = float(quotients.max()) if quotients.size else 0.0
    bound_holds = bool((quotients <= resistance * (1.0 + TAU_EQ)).all())
    f = harmonic_maximizer(b, x, y)
    fq = energy(b, f)
    fgap2 = (f[y] - f[x]) ** 2
    maximizer_quotient = fgap2 / fq
    maximizer_attains = weights_close(maximizer_quotient, resistance)
    return VariationalReport(
        resistance=resistance,
        max_quotient=max_quotient,
        bound_holds=bound_holds,
        maximizer_quotient=maximizer_quotient,
        maximizer_attains=maximizer_attains,
        trials=trials,
        skipped=skipped,
    )
