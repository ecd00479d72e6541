"""Energy form, Laplacian, and effective resistance of a conductance graph.

The quadratic form Q(f) = 1/2 sum_{x,y} b(x,y) (f(x) - f(y))^2 counts each
edge once; its Laplacian is Lf(v) = sum_w b(v,w) (f(v) - f(w)).  The
effective resistance R(x, y) is the supremum of (f(y) - f(x))^2 over
potentials of unit energy; :func:`energy` and :func:`verify_variational`
state that definition.  Q, Lf and L each come from one kernel over the edge
arrays; the maximizer's residual is max |Lf| off its two terminals.

Every resistance query reads one grounded system per graph, built on first
use and kept on the graph: the Laplacian blocks of its components, grounded
at their least vertices and assembled at once, one (c, k, k) stack per
component size, and one Cholesky factor per block.  R(x, y) and the harmonic
maximizer are one dipole solve each (unit current in at x and out at y, then
f(y) = 0 and R = f(x)); the all-pairs table reads R off one stack of inverted
blocks at a time.  Graphs are immutable, so an edit builds a new graph with a
new system.  R is checked against its variational description by sampling,
against harmonicity of the maximizer, and — in the tests — against an exact
spanning-forest oracle.  R is a metric; disconnected pairs get resistance inf.

Construction already rejected every conductance that is NaN, negative or
infinite and every row sum beyond float range (:func:`core.validate`), so
each grounded block is finite and no query here checks the values again.

Every factorization is one ``dpotrf`` call in :func:`_factor` and every
solve one ``dpotrs`` call in :func:`_solve`.  Each is a plain import from
``scipy.linalg.lapack`` where it is called, so scipy loads at the first
factor or solve, not at import: ``import graphmetry`` loads numpy only, and
the path-metric commands never load scipy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import accumulate, chain, groupby

import numpy as np

from .core import INFINITY, TAU_EQ, ConductanceGraph, _count, _row_sums, _vertex, invariant_error, weights_close
from .errors import Disconnected, InvalidArgument, OutOfRange, SizeMismatch
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
            raise InvalidArgument("potential entries must be finite")

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
    return float(_energy(b, _as_values(b, f)))


def _energy(b: ConductanceGraph, f: np.ndarray, exponent: int = 0) -> np.ndarray:
    """Q along the last axis of ``f`` (a potential or a stack), on conductances times 2**exponent."""
    u, v = b._ends.T
    return (np.ldexp(b._values, exponent) * (f[..., u] - f[..., v]) ** 2).sum(axis=-1)


def laplacian(b: ConductanceGraph, f: PotentialFunction | np.ndarray) -> np.ndarray:
    """Lf at every vertex: one bincount over the edges, which sums each
    vertex's terms in ascending-neighbour order."""
    values = _as_values(b, f)
    ends = b._ends
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats are
        terms = b._values[:, None] * (values[ends] - values[ends[:, ::-1]])
        return np.bincount(ends.ravel(), terms.ravel(), b.n)


def laplacian_apply(b: ConductanceGraph, f: PotentialFunction | np.ndarray, x: int) -> float:
    """Lf(x) = sum_w b(x,w) (f(x) - f(w))."""
    return float(laplacian(b, f)[_vertex(x, b.n)])


def laplacian_matrix(b: ConductanceGraph) -> np.ndarray:
    """Dense Laplacian L = diag(row sums) - conductance matrix.  The queries
    factor grounded blocks with the same entries instead (:func:`_row_sums`)."""
    u, v = b._ends.T
    L = np.zeros((b.n, b.n))
    L[u, v] = L[v, u] = -b._values
    L[np.diag_indices(b.n)] = _row_sums(b._ends, b._values, b.n)
    return L


class _GroundedSystem:
    """The grounded blocks and factors of one conductance graph, over the
    graph's component labelling (:meth:`Graph._labelling`).

    Each vertex gets a position in its sorted component.  The blocks lie in
    one flat buffer, the components ordered by size and then by least
    vertex, so the c components of k + 1 vertices are one (c, k, k) stack.
    A block is Cholesky-factored in place on first use, under a lock, and
    the factor is kept.  The system holds arrays only, never the graph, so
    it makes no reference cycle.
    """

    _lock = threading.Lock()  # one thread at a time factors a block in place

    def __init__(self, b: ConductanceGraph) -> None:
        members = b._labelling().members
        # The vertices component by component, each component ascending: a
        # component is a slice of them, and a vertex's position is its index
        # within that slice.
        self._vertices = np.fromiter(chain.from_iterable(members), np.intp, b.n)
        self._offsets = np.fromiter(accumulate(map(len, members), initial=0), np.intp, len(members) + 1)
        ranks = chain.from_iterable(map(range, map(len, members)))
        self.position = np.empty(b.n, dtype=np.intp)
        self.position[self._vertices] = np.fromiter(ranks, np.intp, b.n)
        # Per size class, its (c, k + 1) vertices and where its stack starts;
        # in the t-th block, v's row starts at _row[v] = start + t k^2 + (position[v] - 1) k.
        self._classes: list[tuple[np.ndarray, int]] = []
        self._row = np.empty(b.n, dtype=np.intp)
        start = 0
        for size, group in groupby(sorted(members, key=len), len):
            if size > 1:
                vertices, k = np.array(list(group), dtype=np.intp), size - 1
                self._row[vertices] = start - k + k * np.add.outer(k * np.arange(len(vertices)), np.arange(size))
                self._classes.append((vertices, start))
                start += len(vertices) * k * k
        # Entry (u, v) sits at _row[u] + position[v] - 1; the diagonal holds
        # the row sums of :func:`_row_sums`, as in ``laplacian_matrix``.
        col = self.position - 1
        inner = col >= 0
        self._diagonal = (self._row + col)[inner]
        self._blocks = np.zeros(start)
        self._blocks[self._diagonal] = _row_sums(b._ends, b._values, b.n)[inner]
        edge = inner[b._ends].all(axis=1)
        (u, v), c = b._ends[edge].T, -b._values[edge]
        self._blocks[self._row[u] + col[v]] = self._blocks[self._row[v] + col[u]] = c
        self._factors: list[np.ndarray | None] = [None] * len(members)

    def members(self, i: int) -> np.ndarray:
        """Component ``i``'s vertices in ascending order, a view."""
        return self._vertices[self._offsets[i] : self._offsets[i + 1]]

    def block(self, i: int, flat: np.ndarray) -> np.ndarray:
        """Component ``i``'s block of ``flat``, laid out as the blocks: a Fortran-ordered view."""
        members = self.members(i)
        k, start = len(members) - 1, self._row[members[1]]
        return flat[start : start + k * k].reshape(k, k).T


def _grounded(b: ConductanceGraph) -> _GroundedSystem:
    """The graph's grounded system, built on first use and kept on the graph."""
    system = b._grounded
    if system is None:
        system = _GroundedSystem(b)
        b._grounded = system
    return system


def _factor(b: ConductanceGraph, system: _GroundedSystem, i: int) -> np.ndarray:
    """Cholesky factor U of component ``i``'s grounded block (A = U^T U), built
    once.  The block is finite: construction rejects inf and NaN conductances
    and row sums beyond float range.  A failed factorization is OutOfRange
    when the graph's conductances absorb one another in float sums, and a
    bug otherwise; it zeroes the block, so every later attempt fails alike."""
    from scipy.linalg.lapack import dpotrf

    with system._lock:
        if system._factors[i] is None:
            block = system.block(i, system._blocks)
            factor, info = dpotrf(block, overwrite_a=1, clean=0)
            if info > 0:
                block[...] = 0.0
                where = f"the component of {b.label(int(system.members(i)[0]))}"
                raise invariant_error(b, f"grounded Laplacian of {where} is not positive definite; this is a bug")
            system._factors[i] = factor
        return system._factors[i]


def _solve(b: ConductanceGraph, system: _GroundedSystem, i: int, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for component ``i``'s grounded block A, one right-hand side per
    column of ``rhs``, which the solve may overwrite.  LAPACK raises no numpy
    warning: a solution beyond float range comes back as inf or NaN."""
    from scipy.linalg.lapack import dpotrs

    return dpotrs(_factor(b, system, i), rhs, overwrite_b=1)[0]


def components(b: ConductanceGraph) -> list[list[int]]:
    """Connected components of the positive-conductance edge set, sorted."""
    return b.components()


def _dipole_potentials(b: ConductanceGraph, pairs: list[tuple[int, int]]) -> list[np.ndarray | None]:
    """Potential of a unit current from x to y, f(y) = 0, zero off their
    component, for each pair (x, y); None for a pair that is not connected.

    The connected pairs lie in one component, as the pairs of one triple
    do, and are solved in one call against its cached factor, one
    right-hand side e_x - e_y per pair.  Every potential lies in
    [f(y), f(x)], so the shift to f(y) = 0 cancels nothing.  Raises
    OutOfRange for the first pair with a potential outside float range.
    """
    component = b._labelling().component
    connected = [k for k, (x, y) in enumerate(pairs) if component[x] == component[y]]
    out: list[np.ndarray | None] = [None] * len(pairs)
    if not connected:
        return out
    system = _grounded(b)
    i = component[pairs[connected[0]][0]]
    members = system.members(i)
    columns = np.arange(len(connected))
    xs = system.position[[pairs[k][0] for k in connected]]
    ys = system.position[[pairs[k][1] for k in connected]]
    rhs = np.zeros((len(members), len(connected)), order="F")
    rhs[xs, columns] = 1.0
    rhs[ys, columns] = -1.0
    f = np.zeros_like(rhs)
    f[1:] = _solve(b, system, i, rhs[1:])
    with np.errstate(over="ignore", invalid="ignore"):
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


def _dipole(b: ConductanceGraph, x: int, y: int, what: str) -> np.ndarray | None:
    """The unit dipole potential f of x and y, R(x, y) = f(x); None when
    they are not connected."""
    b._check_pair(x, y, what)
    (values,) = _dipole_potentials(b, [(x, y)])
    return values


def effective_resistance(b: ConductanceGraph, x: int, y: int) -> float:
    """R(x, y) = f(x) for the unit dipole potential; inf when x, y are not connected."""
    values = _dipole(b, x, y, "resistance")
    return INFINITY if values is None else float(values[x])


def resistance_matrix(b: ConductanceGraph) -> MetricTable:
    """All-pairs effective resistance as a MetricTable, a new table per call.

    From each component's cached factor, grounded at its least vertex g:
    invert the grounded Laplacian to G, one solve per component, and read off
    R(i, j) = G[i,i] + G[j,j] - 2 G[i,j] (with G extended by zeros at g) for
    one stack at a time; this Green-matrix route keeps the table exactly
    symmetric.  Raises OutOfRange for the first pair with R outside float
    range in the component with the least vertex.
    """
    system = _grounded(b)
    d = np.full((b.n, b.n), INFINITY)
    np.fill_diagonal(d, 0.0)
    G = np.zeros_like(system._blocks)  # laid out as the blocks, each solved in place against the identity
    G[system._diagonal] = 1.0
    for i in np.flatnonzero(np.diff(system._offsets) > 1).tolist():
        rhs = system.block(i, G)
        rhs[...] = _solve(b, system, i, rhs)
    outside = []
    for vertices, start in system._classes:
        c, k = len(vertices), vertices.shape[1] - 1
        X = G[start : start + c * k * k].reshape(c, k, k)  # each G transposed, which the symmetrization undoes
        R = np.empty((c, k + 1, k + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            X *= 0.5  # halving first keeps a large G[k,k] in range
            S = X + X.transpose(0, 2, 1)
            g = np.diagonal(S, axis1=1, axis2=2)
            np.add(g[:, :, None], g[:, None, :], out=R[:, 1:, 1:])
            R[:, 1:, 1:] -= np.multiply(S, 2.0, out=X)  # X's halves are spent
        R[:, 0, 1:] = R[:, 1:, 0] = g + 0.0  # (0 + G[k,k]) - 2 * 0, with G = 0 at the ground
        R.reshape(c, -1)[:, :: k + 2] = 0.0
        if not np.isfinite(R).all():
            t, x, y = np.argwhere(~np.isfinite(R))[0]
            outside.append(tuple(vertices[t, [0, x, y]].tolist()))
        d[vertices[:, :, None], vertices[:, None, :]] = R
    if outside:
        raise _out_of_range(b, *min(outside)[1:])
    return MetricTable(d, b.labels)


def _connected(b: ConductanceGraph, x: int, y: int, values: np.ndarray | None) -> np.ndarray:
    """``values``, the dipole potential of x and y; Disconnected for None."""
    if values is None:
        raise Disconnected(f"{b.label(x)} and {b.label(y)} are not connected")
    return values


def _maximizer(b: ConductanceGraph, x: int, y: int, values: np.ndarray | None) -> PotentialFunction:
    """The harmonic maximizer from :func:`_dipole`'s potential of x and y, so
    that R and the maximizer can come from one solve."""
    values = _connected(b, x, y, values)
    # Q(v) equals the injected current times the potential gap, i.e. R itself.
    return PotentialFunction(values / math.sqrt(values[x]))


def harmonic_maximizer(b: ConductanceGraph, x: int, y: int) -> PotentialFunction:
    """The unit-energy potential attaining R: harmonic off {x, y}.

    Normalized so Q(f) = 1 and f(x) > f(y); then (f(y) - f(x))^2 = R(x, y).
    """
    return _maximizer(b, x, y, _dipole(b, x, y, "harmonic maximizer"))


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
        return self.skipped < self.trials and self.bound_holds and self.maximizer_attains


def verify_variational(
    b: ConductanceGraph, x: int, y: int, trials: int = 1000, seed: int = 0
) -> VariationalReport:
    """Sample random potentials and check (f(y)-f(x))^2 / Q(f) <= R(x, y).

    Near-constant samples (vanishing energy) are excluded — the supremum
    ranges over potentials with Q(f) > 0 — and the harmonic maximizer must
    attain the bound within tolerance; a run with no sample left fails.  The
    energies read conductances scaled into [1/2, 1) by a power of two: the
    cut-off is unit-free, and the reported figures keep their bits.
    """
    trials = _count(trials, "trials")
    values = _connected(b, x, y, _dipole(b, x, y, "the variational quotient"))
    resistance = float(values[x])
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((trials, b.n))
    exponent = -int(np.frexp(b._values.max())[1])
    q = _energy(b, samples, exponent)
    gap2 = (samples[:, y] - samples[:, x]) ** 2
    alive = q > 1e-300
    skipped = int(trials - alive.sum())
    quotients = gap2[alive] / q[alive]
    max_quotient = float(np.ldexp(quotients.max(), exponent)) if quotients.size else 0.0
    bound_holds = max_quotient <= resistance * (1.0 + TAU_EQ)
    f = values / math.sqrt(resistance)
    maximizer_quotient = float((f[y] - f[x]) ** 2 / _energy(b, f))
    return VariationalReport(
        resistance=resistance,
        max_quotient=max_quotient,
        bound_holds=bound_holds,
        maximizer_quotient=maximizer_quotient,
        maximizer_attains=weights_close(maximizer_quotient, resistance),
        trials=trials,
        skipped=skipped,
    )
