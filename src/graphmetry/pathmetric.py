"""Shortest-path pseudo metrics, geodesic enumeration, and geodesic weights.

A weight function induces the pseudo metric delta(x, y) = inf over injective
paths of the summed step weights.  On a finite graph the infimum is attained,
``inf`` marks unreachable pairs, and the induced table satisfies the triangle
inequality.  The geodesic weight keeps delta on pairs whose only geodesic is
the direct two-vertex path and is ``inf`` elsewhere; it generates the same
metric and dominates every other weight that does.

Two closure routes share one start table.  :func:`all_pairs_metric` runs
one min-plus sweep, a second that records what it leaves stale, and passes
over only the stale entries until one changes nothing: the bitwise fixpoint
that sweeps-until-unchanged reach, which serves wherever delta is printed
or fed back in as a weight.  On integer weights summing to at most 2**52
every sum is exact and the first sweep is already that fixpoint.  Checks
that only compare a metric within a tolerance (:func:`is_generating`, the
tree and block-graph checks) read the single sweep, which is exact up to
rounding.  Given the graph that generated its table, :func:`geodesic_weight`
tests only the tight edges (w = delta bitwise): every other finite pair has
a vertex between its ends.  A bare table has every finite pair tested by the
same kernel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import (
    INFINITY,
    TAU_EQ,
    Path,
    WeightedGraph,
    _check_labels,
    _count,
    _vertex,
    invariant_error,
    weights_close_array,
)
from .errors import InvalidMetric, OutOfRange, SizeMismatch, Unreachable

# Entries per temporary block of the chunked table kernels: cache-sized, whatever n is.
_CHUNK = 1 << 16


@dataclass
class MetricTable:
    """Symmetric all-pairs distance matrix with pseudo-metric invariants;
    ``n`` is its side."""

    d: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        if self.d.ndim != 2 or self.d.shape[0] != self.d.shape[1]:
            raise SizeMismatch(f"expected a square matrix, got {self.d.shape}")
        _check_labels(self.labels, self.n)

    @property
    def n(self) -> int:
        return len(self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricTable):
            return NotImplemented
        return bool(np.array_equal(self.d, other.d))

    def label(self, u: int) -> str:
        u = _vertex(u, self.n)
        return self.labels[u] if self.labels is not None else str(u)

    def validate(self) -> list[str]:
        """Diagnostics for violated pseudo-metric invariants (empty iff valid).

        Zero off-diagonal entries are legal in a pseudo metric but worth
        surfacing, so they are reported as well (on a table with no NaN).
        """
        report = list(self._violations())
        d = self.d
        finite_zero = (d == 0) & ~np.eye(self.n, dtype=bool)
        if finite_zero.any() and not np.isnan(d).any():
            x, y = np.argwhere(finite_zero)[0]
            report.append(
                f"zero distance between distinct vertices ({self.label(x)}, {self.label(y)}) "
                "(pseudo metric, not definite)"
            )
        return report

    def _violations(self) -> Iterator[str]:
        """Each violated invariant in order: the first NaN entry in row-major
        order (and then nothing else), each nonzero diagonal entry, and the
        first asymmetric, negative and triangle-violating entries."""
        d = self.d
        nan = np.isnan(d)
        if nan.any():
            x, y = np.argwhere(nan)[0]
            yield f"d({self.label(x)}, {self.label(y)}) is NaN"
            return
        for x in np.flatnonzero(np.diagonal(d)):
            yield f"diagonal entry at {self.label(x)} is {d[x, x]}, not 0"
        if not np.array_equal(d, d.T):
            x, y = np.argwhere(d != d.T)[0]
            yield f"asymmetry at ({self.label(x)}, {self.label(y)})"
        if (d < 0).any():
            x, y = np.argwhere(d < 0)[0]
            yield f"negative entry at ({self.label(x)}, {self.label(y)})"
        viol = _triangle_violation(d)
        if viol is not None:
            x, y, z = viol
            yield (
                f"triangle inequality fails: d({self.label(x)}, {self.label(z)}) > "
                f"d({self.label(x)}, {self.label(y)}) + d({self.label(y)}, {self.label(z)})"
            )

    def as_weight_graph(self) -> WeightedGraph:
        """Reinterpret the table as a weight function (metric-as-weight)."""
        return _table_weight_graph(self.d, self.labels)


def _table_weight_graph(table: np.ndarray, labels: tuple[str, ...] | None) -> WeightedGraph:
    """The finite entries above the diagonal of a symmetric table as weights."""
    xs, ys = np.nonzero(np.triu(np.isfinite(table), 1))
    weights = dict(zip(zip(xs.tolist(), ys.tolist()), table[xs, ys].tolist()))
    return WeightedGraph(len(table), weights, labels)


def _triangle_violation(d: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z), by y and then by (x, z), with d[x,z] > d[x,y] + d[y,z]
    by more than TAU_EQ times d[x,z] (by anything when d[x,z] is inf), if any.
    With no NaN, no negative entry and a zero diagonal, monotone rounding
    clears each pair with d[x,z] <= fl(fl(r + c) + slack), r and c the least
    off-diagonal entries of row x and column z, and each inf pair with no y
    finite on both legs.  The other pairs are tested on every y in chunks of
    ``_CHUNK`` sums (row x, plus column z as a row of d.T, plus the slack, in
    the test's order), each chunk naming its least (y, x, z) hit."""
    n = d.shape[0]
    slack = TAU_EQ * np.abs(d)
    slack[np.isinf(d)] = 0.0  # exact at infinity, as in weights_close
    hits = []
    with np.errstate(over="ignore", invalid="ignore"):  # +inf or NaN sums never violate
        if n > 0 and (d >= 0).all() and not np.diagonal(d).any():
            off = np.where(np.eye(n, dtype=bool), INFINITY, d)
            scan = d > (off.min(axis=1)[:, None] + off.min(axis=0)) + slack
            gap = scan & np.isinf(d)
            if gap.any():
                finite = np.isfinite(d).astype(np.float32)  # counts up to n are exact
                scan[gap] = (finite @ finite)[gap] > 0
        else:
            scan = np.ones((n, n), dtype=bool)
        xs, zs = np.nonzero(scan)
        columns = d.T.copy()
        step = max(1, _CHUNK // max(n, 1))
        for lo in range(0, len(xs), step):
            x, z = xs[lo : lo + step], zs[lo : lo + step]
            sums = d[x]
            sums += columns[z]
            sums += slack[x, z][:, None]
            hit = d[x, z][:, None] > sums
            if hit.any():
                y, i = np.argwhere(hit.T)[0]
                hits.append((int(x[i]), int(y), int(z[i])))
    return min(hits, key=lambda xyz: (xyz[1], xyz), default=None)  # least y, then (x, z)


@dataclass
class GeodesicWeight:
    """The weight that is delta on unique-geodesic pairs and inf elsewhere."""

    table: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_labels(self.labels, len(self.table))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeodesicWeight):
            return NotImplemented
        return bool(np.array_equal(self.table, other.table)) and self.labels == other.labels

    def weight(self, x: int, y: int) -> float:
        n = len(self.table)
        return float(self.table[_vertex(x, n), _vertex(y, n)])

    def as_weight_graph(self) -> WeightedGraph:
        return _table_weight_graph(self.table, self.labels)


@dataclass
class GeodesicSet:
    """All geodesics between a pair, cap-truncated, with the realized distance."""

    paths: list[Path]
    distance: float
    truncated: bool = False


def path_length(g: WeightedGraph, p: Path) -> float:
    """l_w(p): sum of step weights; 0 for a single vertex, inf absorbing."""
    for u in p:
        g._check_vertex(u)
    total = 0.0
    for u, v in p.steps():
        total += g.weight(u, v)
    return total


def _out_of_range(g: WeightedGraph, x: int, y: int) -> OutOfRange:
    return OutOfRange(f"distance between {g.label(x)} and {g.label(y)} is outside float range")


def _settle(g: WeightedGraph, x: int) -> Iterator[tuple[int, float]]:
    """Dijkstra from x: each reachable vertex with its distance, in the order
    they settle.  Raises OutOfRange, once the search runs out, if a vertex
    next to a settled one never settled: every sum offered to it overflowed
    to inf."""
    g._check_vertex(x)
    dist = [INFINITY] * g.n
    dist[x] = 0.0
    heap: list[tuple[float, int]] = [(0.0, x)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        yield u, d
        for v, w in g.neighbors(u):
            if done[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for v in range(g.n):
        if not done[v] and any(done[u] for u, _ in g.neighbors(v)):
            raise _out_of_range(g, x, v)


def single_source_distances(g: WeightedGraph, x: int) -> np.ndarray:
    """Dijkstra distances from x; inf where no route exists."""
    dist = np.full(g.n, INFINITY)
    for u, d in _settle(g, x):
        dist[u] = d
    return dist


def path_metric(g: WeightedGraph, x: int, y: int) -> float:
    """delta_w(x, y) by a search that stops when y settles; inf iff no finite-weight route."""
    g._check_vertex(x)
    g._check_vertex(y)
    for u, d in _settle(g, x):
        if u == y:
            return d
    return INFINITY


def _initial_table(g: WeightedGraph) -> np.ndarray:
    """Diagonal 0, the stored weight per pair, inf elsewhere; no entry is -0.0."""
    n = g.n
    d = np.full((n, n), INFINITY)
    u, v = g._ends.T
    d[u, v] = d[v, u] = g._values + 0.0  # one key per pair; -0.0 + 0.0 is +0.0
    np.fill_diagonal(d, 0.0)  # a stored diagonal entry is 0
    return d


def _min_plus_sweep(d: np.ndarray, seen: np.ndarray | None = None) -> None:
    """One Floyd-Warshall pass over k = 0 .. n-1, in place, on a symmetric d.

    Step k applies every update d[x,y] <- min(d[x,y], fl(d[x,k] + d[k,y]))
    at once; with ``seen``, row k of it receives row k of d as step k read
    it.  A sum beyond float range becomes inf without a warning;
    :func:`_check_range` reports it once the closure is done.
    d stays symmetric, so column k is row k, r, and the outer sum is one BLAS
    rank-2 product [r 1][1; r]: r[x]*1 + 1*r[y] has two exact products and
    rounds once, to the broadcast add's fl(r[x] + r[y]); no entry is -0.0, so
    no sign hangs on the accumulator.  0 * inf in OpenBLAS's zero-padded edge
    tiles raises ``invalid`` in lanes it never stores.
    """
    via = np.empty_like(d)
    ends = np.ones((3, len(d)))  # rows 1, r, 1
    left, right = ends[1:].T, ends[:2]  # [r 1] and [1; r]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(d)):
            ends[1] = d[k]
            np.matmul(left, right, out=via)
            np.minimum(d, via, out=d)
            if seen is not None:
                seen[k] = d[k]  # step k leaves row k as it found it: d[k,k] = 0


def _check_range(g: WeightedGraph, d: np.ndarray) -> None:
    """Raise OutOfRange for an inf entry of a closure table between vertices
    of one component, whose distance is finite but beyond float range."""
    infinite = np.isinf(d)
    if not infinite.any():
        return
    component = np.array(g._labelling().component, dtype=np.intp)
    xs, ys = np.nonzero(infinite & (component[:, None] == component[None, :]))
    if len(xs):
        raise _out_of_range(g, int(xs[0]), int(ys[0]))


def _one_sweep_metric(g: WeightedGraph) -> np.ndarray:
    """delta_w from a single min-plus sweep, for checks within a tolerance.

    One pass gives shortest paths up to rounding (a few ulps per step, far
    below TAU_EQ for nonnegative weights) but not the bitwise fixpoint of
    :func:`all_pairs_metric`, so the table is never printed or fed back in.
    """
    d = _initial_table(g)
    _min_plus_sweep(d)
    _check_range(g, d)
    return d


def _sums_exact(d: np.ndarray) -> bool:
    """Whether every float sum a closure of the start table ``d`` forms is
    exact: its finite entries are integers summing to at most 2**52 above
    the diagonal, so no path is longer than 2**52 and no sum of two path
    lengths exceeds 2**53."""
    upper = np.triu(d, 1)
    w = upper[np.isfinite(upper)]
    # Each entry at most 2**52 first: then the sum of n**2 of them cannot overflow.
    return bool(w.max(initial=0.0) <= 2.0**52 and (w == np.rint(w)).all() and w.sum() <= 2.0**52)


def _relax_rows(d: np.ndarray, xs: np.ndarray, ks: np.ndarray) -> None:
    """d[x,:] <- min(d[x,:], fl(d[x,k] + d[k,:])) for each pair (xs[i], ks[i]),
    then d <- min(d, d.T), so that a symmetric ``d`` stays symmetric.

    ``xs`` must be sorted: the candidate rows of one x are reduced together
    with ``np.minimum.reduceat``, in slices of about ``_CHUNK`` entries.
    """
    n = d.shape[0]
    step = max(1, _CHUNK // n)
    with np.errstate(over="ignore"):  # a sum beyond float range is inf, as in a sweep
        for lo in range(0, len(xs), step):
            x, k = xs[lo : lo + step], ks[lo : lo + step]
            starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
            rows = x[starts]
            sums = d[k]
            sums += d[x, k, None]
            best = np.minimum.reduceat(sums, starts)
            d[rows] = np.minimum(d[rows], best, out=best)
    np.minimum(d, d.T, out=d)


def all_pairs_metric(g: WeightedGraph) -> MetricTable:
    """All-pairs delta_w as a MetricTable, at the bitwise fixpoint.

    At the fixpoint d[x,y] <= fl(d[x,k] + d[k,y]) holds exactly for every
    k, which makes the table idempotent: feeding it back in as a weight
    function reproduces it bit for bit (delta_delta = delta with no
    tolerance), something per-source float accumulation cannot promise at
    the last ulp.  Use it where delta is printed or fed back in; a
    comparison within a tolerance needs only one sweep.

    Why the route below reaches it.  Each update d[x,y] <- min(d[x,y],
    fl(d[x,k] + d[k,y])) is monotone (float rounding is) and deflationary,
    and fl(a + b) = fl(b + a).  The tables at most the start table d0 that
    no update lowers are closed under entrywise max, so there is a greatest
    one, G; it is symmetric, and every table that updates reach from d0
    stays at or above it.  An iteration that stops only when no update would
    lower any entry therefore stops at G, in whatever order it applies them
    (chaotic relaxation, Chazan & Miranker 1969), and equals
    sweeps-until-unchanged bit for bit.  It is fair if every update either
    is applied again or reads only entries unchanged since it last held:
    d[x,y] only falls, so such an update still holds.

    - When every finite weight is an integer and they sum to at most 2**52
      (:func:`_sums_exact`, tested on d0), every sum a sweep forms is
      exact, so the first sweep ends at the true shortest paths, which no
      update lowers: it is already G.
    - Otherwise a second sweep records row k as its step k reads it.  The
      update (x, k, y) is due again only where d[k,x] or d[k,y] changed
      after that step.
    - Each later pass applies every due update (x, k, .), and its mirror
      the updates (., k, x) (:func:`_relax_rows`).  The updates due after
      it are those reading an entry the pass changed.  The first pass that
      changes nothing leaves none due.

    Raises OutOfRange when a distance between connected vertices is beyond
    float range.
    """
    d = _initial_table(g)
    exact = _sums_exact(d)
    _min_plus_sweep(d)
    if not exact:
        seen = np.empty_like(d)
        _min_plus_sweep(d, seen)
        # Row update (x, k) is due where d[k,x] changed after step k read it.
        xs, ks = np.nonzero(d != seen.T)
        while len(xs):
            np.copyto(seen, d)
            _relax_rows(d, xs, ks)
            xs, ks = np.nonzero(d != seen)
    _check_range(g, d)
    return MetricTable(d, g.labels)


def _sum_slack(n: int, d: float | np.ndarray) -> float | np.ndarray:
    """n * 2**-51 * |d|: how far rounding alone moves two float sums of fewer
    than n nonnegative path terms near d apart (Higham 2002, 4.2).  It scales
    with d, and distinct integer sums below 2**51 / n differ by more."""
    return n * 2.0**-51 * abs(d)


def enumerate_geodesics(g: WeightedGraph, x: int, y: int, cap: int = 64) -> GeodesicSet:
    """All w-geodesics from x to y in lexicographic vertex order.

    A path qualifies when its length is within the rounding bound
    :func:`_sum_slack` of delta_w(x, y), and the search prunes a branch
    only when it exceeds delta_w by more than that bound.  Stops after
    ``cap`` paths and sets the truncation flag.  The depth-first walk's one
    stack is the current path; each vertex on it keeps its unread neighbours
    (``todo``, None off the path) and the length walked to it.
    """
    cap = _count(cap, "cap")
    x, y = _vertex(x, g.n), _vertex(y, g.n)
    target = path_metric(g, x, y)
    if math.isinf(target):
        raise Unreachable(f"no finite-weight path from {g.label(x)} to {g.label(y)}")
    if x == y:
        return GeodesicSet([Path((x,))], 0.0)
    slack = _sum_slack(g.n, target)
    to_y = single_source_distances(g, y).tolist()  # float sums overflow to inf silently
    limit = target + slack
    paths: list[Path] = []
    truncated = False
    todo: list[Iterator[tuple[int, float]] | None] = [None] * g.n
    walked = [0.0] * g.n
    todo[x] = iter(g.neighbors(x))
    path = [x]
    while path and not truncated:
        acc = walked[path[-1]]
        for v, w in todo[path[-1]]:
            if todo[v] is not None:  # v is on the path
                continue
            length = acc + w
            if length + to_y[v] > limit:
                continue
            if v == y:
                if abs(length - target) <= slack:
                    if len(paths) >= cap:
                        truncated = True
                        break
                    paths.append(Path((*path, y)))
                continue
            todo[v] = iter(g.neighbors(v))
            walked[v] = length
            path.append(v)
            break
        else:
            todo[path.pop()] = None
    return GeodesicSet(paths, target, truncated)


def geodesic_weight(t: MetricTable, graph: WeightedGraph | None = None) -> GeodesicWeight:
    """w_delta: keep d(x, y) when no third vertex sits metrically between
    x and y, use inf otherwise (and always on infinite-distance pairs).

    A strictly-between z (d(x,z) + d(z,y) = d(x,y), z distinct from both)
    witnesses a second geodesic through z, so the direct pair is no longer
    the unique one.  Betweenness allows the rounding of sums of fewer than
    n steps, n * 2**-51 * |d(x, y)|, with no absolute floor, and asks both
    legs to be strictly shorter than d(x, y): distances far below 1 keep
    their unique geodesics, a spur far shorter than the pair stays off it,
    and no cycle of dropped pairs can cut a vertex off.  A gap of exactly 0
    with one leg equal to d(x, y) and the other positive is a float sum that
    absorbed its smaller term: OutOfRange naming the two legs on a bare
    table, ``invariant_error(graph, ...)`` given the graph.

    ``graph`` must satisfy ``t == all_pairs_metric(graph)``; a graph whose
    vertex count is not the table's raises SizeMismatch.  Only its tight
    edges (stored weight equal to d bitwise) are then tested: the closure
    lowered every other finite pair through some k outside the pair with
    fl(d[x,k] + d[k,y]) = d[x,y] at the fixpoint, so both legs are at most
    d[x,y], and k is between unless a leg absorbed the other or is 0; short
    of those, the result equals testing every pair bit for bit.  Such a
    table skips the gate below, which it passes: at the fixpoint
    d[x,z] <= fl(d[x,y] + d[y,z]) holds exactly for every y.

    Without ``graph`` the table must pass :meth:`MetricTable.validate`,
    zero distances allowed (InvalidMetric carrying its first violation
    otherwise), and every finite pair above the diagonal is tested: each is
    a tight edge of the table itself.
    """
    n, d = t.n, t.d
    if graph is None:
        problem = next(t._violations(), None)
        if problem is not None:
            raise InvalidMetric(problem)
        xs, ys = np.nonzero(np.triu(np.isfinite(d), 1))
    else:
        if graph.n != n:
            raise SizeMismatch(f"graph has {graph.n} vertices, table {n}")
        xs, ys = graph._ends.T
        tight = (xs != ys) & (graph._values == d[xs, ys])
        xs, ys = xs[tight], ys[tight]
    out = np.full((n, n), INFINITY)
    np.fill_diagonal(out, 0.0)
    absorbed = _tight_edge_weight(d, xs, ys, out)
    if absorbed is not None:
        x, y, z = absorbed
        if d[x, z] < d[z, y]:  # name the long leg, equal to d[x, y], first
            x, y = y, x
        large, small = float(d[x, z]), float(d[z, y])  # fl(large + small) == large == d[x, y]
        message = (
            f"distances d({t.label(x)}, {t.label(z)}) = {large!r} and "
            f"d({t.label(z)}, {t.label(y)}) = {small!r} are too far apart for float sums: "
            f"{large!r} + {small!r} == {large!r}"
        )
        raise OutOfRange(message) if graph is None else invariant_error(graph, message)
    return GeodesicWeight(out, t.labels)


def _tight_edge_weight(
    d: np.ndarray, xs: np.ndarray, ys: np.ndarray, out: np.ndarray
) -> tuple[int, int, int] | None:
    """Write d into ``out`` on the pairs (xs, ys), both ways, that have
    nothing between their ends.

    z is between x and y when d[x,z] + d[z,y] is within
    ``_sum_slack(n, d[x,y])`` of d[x,y] and both legs are strictly shorter
    than d[x,y], so every dropped pair is covered by strictly shorter ones.
    The gap is read on a (pairs x n) block in slices of about ``_CHUNK``
    entries; the legs only on the entries within the slack.  Returns the
    first (x, y, z) whose gap is exactly 0 with one leg equal to d[x,y] and
    the other positive (a float sum that absorbed its smaller term), if any.
    """
    n = d.shape[0]
    step = max(1, _CHUNK // max(n, 1))
    for lo in range(0, len(xs), step):
        x, y = xs[lo : lo + step], ys[lo : lo + step]
        dxy = d[x, y]
        with np.errstate(over="ignore"):  # a sum beyond float range is inf: z is not between
            gap = np.abs((d[x, :] + d[:, y].T) - dxy[:, None])  # gap[i, z] for z = 0 .. n-1
        near = gap <= _sum_slack(n, dxy)[:, None]
        rows = np.arange(len(x))
        near[rows, x] = False
        near[rows, y] = False
        i, z = np.nonzero(near)
        legs = d[x[i], z], d[z, y[i]]
        long, short = np.maximum(*legs), np.minimum(*legs)
        absorbed = (gap[i, z] == 0) & (long == dxy[i]) & (short > 0)
        if absorbed.any():
            k = int(np.argmax(absorbed))
            return int(x[i[k]]), int(y[i[k]]), int(z[k])
        unique = np.ones(len(x), dtype=bool)
        unique[i[long < dxy[i]]] = False
        out[x[unique], y[unique]] = dxy[unique]
        out[y[unique], x[unique]] = dxy[unique]
    return None


def is_generating(g: WeightedGraph, t: MetricTable) -> bool:
    """Whether g's weight generates the metric t (delta_w = t entrywise).

    Compares within TAU_EQ, so delta_w comes from one min-plus sweep rather
    than the bitwise fixpoint.
    """
    if g.n != t.n:
        raise SizeMismatch(f"graph has {g.n} vertices, table {t.n}")
    return _first_mismatch(g, lambda: t.d) is None


def _first_mismatch(g: WeightedGraph, table: Callable[[], np.ndarray]) -> tuple[int, int] | None:
    """The first pair in row-major order where delta_w and ``table()`` differ by
    more than TAU_EQ (x < y on a symmetric table with a zero diagonal), or None:
    every "w generates delta" check.  The table is read after the sweep, so the
    sweep's OutOfRange comes before any error building the table raises."""
    d = _one_sweep_metric(g)
    differ = ~weights_close_array(d, table())
    if not differ.any():
        return None
    x, y = np.argwhere(differ)[0]
    return int(x), int(y)
