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
from typing import Iterator

import numpy as np

from .core import (
    INFINITY,
    TAU_EQ,
    Path,
    WeightedGraph,
    weights_close_array,
)
from .errors import (
    InvalidArgument,
    InvalidMetric,
    NegativeWeightError,
    OutOfRange,
    SizeMismatch,
    Unreachable,
)


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

    @property
    def n(self) -> int:
        return len(self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricTable):
            return NotImplemented
        return bool(np.array_equal(self.d, other.d))

    def label(self, u: int) -> str:
        return self.labels[u] if self.labels is not None else str(u)

    def validate(self) -> list[str]:
        """Diagnostics for violated pseudo-metric invariants (empty iff valid).

        Zero off-diagonal entries are legal in a pseudo metric but worth
        surfacing, so they are reported as well.
        """
        report: list[str] = []
        d = self.d
        if np.isnan(d).any():
            report.append("matrix contains NaN")
            return report
        for x in range(self.n):
            if d[x, x] != 0.0:
                report.append(f"diagonal entry at {self.label(x)} is {d[x, x]}, not 0")
        if not np.array_equal(d, d.T):
            x, y = np.argwhere(d != d.T)[0]
            report.append(f"asymmetry at ({self.label(x)}, {self.label(y)})")
        if (d < 0).any():
            x, y = np.argwhere(d < 0)[0]
            report.append(f"negative entry at ({self.label(x)}, {self.label(y)})")
        viol = _triangle_violation(d)
        if viol is not None:
            x, y, z = viol
            report.append(
                f"triangle inequality fails: d({self.label(x)}, {self.label(z)}) > "
                f"d({self.label(x)}, {self.label(y)}) + d({self.label(y)}, {self.label(z)})"
            )
        finite_zero = (d == 0) & ~np.eye(self.n, dtype=bool)
        if finite_zero.any():
            x, y = np.argwhere(finite_zero)[0]
            report.append(
                f"zero distance between distinct vertices ({self.label(x)}, {self.label(y)}) "
                "(pseudo metric, not definite)"
            )
        return report

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
    by more than TAU_EQ times d[x,z] (by anything when d[x,z] is inf), if any."""
    n = d.shape[0]
    slack = TAU_EQ * np.abs(d)
    slack[np.isinf(d)] = 0.0  # exact at infinity, as in weights_close
    if n > 0 and (d >= 0).all() and not np.diagonal(d).any() and not _may_violate(d, slack):
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # +inf or NaN sums never violate
        for y in range(n):
            sums = d[:, y, None] + d[None, y, :]
            bad = d > sums + slack
            if bad.any():
                x, z = np.argwhere(bad)[0]
                return int(x), int(y), int(z)
    return None


def _may_violate(d: np.ndarray, slack: np.ndarray) -> bool:
    """Whether _triangle_violation's test can fire on a table with no NaN, no
    negative entry and a zero diagonal.  Monotone rounding clears each pair
    with d[x,z] <= fl(fl(r + c) + slack) for r, c the least off-diagonal
    entries of row x and column z; the rest are tested on every y."""
    off = np.where(np.eye(len(d), dtype=bool), INFINITY, d)
    with np.errstate(over="ignore"):  # a sum beyond float range is inf: no violation
        survive = d > (off.min(axis=1)[:, None] + off.min(axis=0)) + slack
        gap = survive & np.isinf(d)
        if gap.any():
            finite = np.isfinite(d).astype(np.float32)  # counts up to n are exact
            survive[gap] = (finite @ finite)[gap] > 0
        xs, zs = np.nonzero(survive)
        step = max(1, (1 << 20) // len(d))
        for lo in range(0, len(xs), step):
            x, z = xs[lo : lo + step], zs[lo : lo + step]
            if (d[x, z][:, None] > d[x, :] + d[:, z].T + slack[x, z][:, None]).any():
                return True
    return False


@dataclass
class GeodesicWeight:
    """The weight that is delta on unique-geodesic pairs and inf elsewhere."""

    table: np.ndarray
    labels: tuple[str, ...] | None = None

    def weight(self, x: int, y: int) -> float:
        return float(self.table[x, y])

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
    they settle; inf-weight pairs are not edges.  Raises OutOfRange, once
    the search runs out, if a vertex reached over a finite edge never
    settled: every sum offered to it overflowed to inf."""
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
            if done[v] or math.isinf(w):
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for v in range(g.n):
        if not done[v]:
            for u, w in g.neighbors(v):
                if done[u] and w < INFINITY:  # inf and NaN pairs are not edges
                    raise _out_of_range(g, x, v)


def single_source_distances(g: WeightedGraph, x: int) -> np.ndarray:
    """Dijkstra distances from x; inf-weight pairs are not edges."""
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
    """Diagonal 0, the stored finite weight per pair, inf elsewhere."""
    n = g.n
    d = np.full((n, n), INFINITY)
    keys = np.array(list(g.weights), dtype=np.intp).reshape(-1, 2)
    w = np.fromiter(g.weights.values(), float, len(keys))
    u, v = keys[:, 0], keys[:, 1]
    finite = np.isfinite(w) & (u != v)
    negative = finite & (w < 0)
    if negative.any():
        # A negative weight has no shortest paths: the sweeps would run to -inf.
        i = int(np.argmax(negative))
        raise NegativeWeightError(
            f"negative weight {float(w[i])} on ({g.label(int(u[i]))}, {g.label(int(v[i]))})"
        )
    u, v, w = u[finite], v[finite], w[finite]
    d[u, v] = w  # one stored key per unordered pair
    d[v, u] = w
    np.fill_diagonal(d, 0.0)
    return d


def _min_plus_sweep(d: np.ndarray, via: np.ndarray, seen: np.ndarray | None = None) -> None:
    """One Floyd-Warshall pass over k = 0 .. n-1, in place; ``via`` is scratch.

    Step k applies every update d[x,y] <- min(d[x,y], fl(d[x,k] + d[k,y]))
    at once; with ``seen``, row k of it receives row k of d as step k read
    it.  A sum beyond float range becomes inf without a warning;
    :func:`_check_range` reports it once the closure is done.
    """
    with np.errstate(over="ignore"):
        for k in range(d.shape[0]):
            np.add(d[:, k, None], d[None, k, :], out=via)
            np.minimum(d, via, out=d)
            if seen is not None:
                seen[k] = d[k]  # step k leaves row k as it found it: d[k,k] = 0


def metric_components(g: WeightedGraph) -> list[list[int]]:
    """Finite-distance classes, smallest id first; a NaN or -inf weight joins nothing."""
    finite = {key: w for key, w in g.weights.items() if math.isfinite(w)}
    return (WeightedGraph(g.n, finite) if len(finite) < len(g.weights) else g).components()


def _check_range(g: WeightedGraph, d: np.ndarray) -> None:
    """Raise OutOfRange for an inf entry of a closure table between vertices
    of one metric component, whose distance is finite but beyond float range."""
    infinite = np.isinf(d)
    if not infinite.any():
        return
    component = np.empty(g.n, dtype=np.intp)
    for i, members in enumerate(metric_components(g)):
        component[members] = i
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
    _min_plus_sweep(d, np.empty_like(d))
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
    with ``np.minimum.reduceat``, in cache-sized slices of about 2**15 entries.
    """
    n = d.shape[0]
    step = max(1, (1 << 15) // n)
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

    Raises NegativeWeightError on a negative finite weight and OutOfRange
    when a distance between connected vertices is beyond float range.
    """
    d = _initial_table(g)
    exact = _sums_exact(d)
    via = np.empty_like(d)
    _min_plus_sweep(d, via)
    if not exact:
        seen = np.empty_like(d)
        _min_plus_sweep(d, via, seen)
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
    ``cap`` paths and sets the truncation flag.
    """
    if cap < 1:
        raise InvalidArgument("cap must be positive")
    g._check_vertex(x)
    g._check_vertex(y)
    target = path_metric(g, x, y)
    if math.isinf(target):
        raise Unreachable(f"no finite-weight path from {g.label(x)} to {g.label(y)}")
    if x == y:
        return GeodesicSet([Path((x,))], 0.0)
    slack = _sum_slack(g.n, target)
    to_y = single_source_distances(g, y).tolist()  # float sums overflow to inf silently
    paths: list[Path] = []
    truncated = False
    on_path = [False] * g.n
    on_path[x] = True
    stack = [x]
    # Depth-first with an explicit stack of neighbour iterators, one per
    # vertex on the current path, each paired with the length walked so far.
    frames = [(iter(g.neighbors(x)), 0.0)]
    while frames and not truncated:
        neighbours, acc = frames[-1]
        for v, w in neighbours:
            if on_path[v] or math.isinf(w):
                continue
            length = acc + w
            if length + to_y[v] > target + slack:
                continue
            if v == y:
                if abs(length - target) <= slack:
                    if len(paths) >= cap:
                        truncated = True
                        break
                    paths.append(Path((*stack, y)))
                continue
            stack.append(v)
            on_path[v] = True
            frames.append((iter(g.neighbors(v)), length))
            break
        else:
            frames.pop()
            on_path[stack.pop()] = False
    return GeodesicSet(paths, target, truncated)


def geodesic_weight(t: MetricTable, graph: WeightedGraph | None = None) -> GeodesicWeight:
    """w_delta: keep d(x, y) when no third vertex sits metrically between
    x and y, use inf otherwise (and always on infinite-distance pairs).

    A strictly-between z (d(x,z) + d(z,y) = d(x,y), z distinct from both)
    witnesses a second geodesic through z, so the direct pair is no longer
    the unique one.  Betweenness allows the rounding of sums of fewer than
    n steps, n * 2**-51 * |d(x, y)|, with no absolute floor: distances far
    below 1 keep their unique geodesics, a spur far shorter than the pair
    stays off it, and a gap of exactly 0 is always between.

    ``graph`` must satisfy ``t == all_pairs_metric(graph)``; a graph whose
    vertex count is not the table's raises SizeMismatch.  Only its tight
    edges (stored weight equal to d bitwise) are then tested: the closure
    lowered every other finite pair through some k outside the pair with
    fl(d[x,k] + d[k,y]) = d[x,y] at the fixpoint, so k is between and
    the result equals testing every pair bit for bit.  Such a table also
    skips the triangle gate, which cannot fire on it: a full sweep
    left every entry unchanged, so d[x,z] <= fl(d[x,y] + d[y,z]) holds
    exactly for every y, and adding the nonnegative slack cannot lower that
    sum (rounding is monotone; the table holds no NaN, or the closure would
    not have stopped).  Without ``graph`` the table must be symmetric and
    pass the triangle gate (InvalidMetric otherwise), and every finite pair
    above the diagonal is tested: each is a tight edge of the table itself.
    """
    n, d = t.n, t.d
    if graph is None:
        asymmetric = (d != d.T) & (d == d)  # NaN in both places is not an asymmetry
        if asymmetric.any():
            x, y = np.argwhere(asymmetric)[0]
            raise InvalidMetric(f"d({t.label(x)}, {t.label(y)}) != d({t.label(y)}, {t.label(x)})")
        viol = _triangle_violation(d)
        if viol is not None:
            x, y, z = viol
            raise InvalidMetric(
                f"d({t.label(x)}, {t.label(z)}) > d({t.label(x)}, {t.label(y)}) "
                f"+ d({t.label(y)}, {t.label(z)})"
            )
        xs, ys = np.nonzero(np.triu(np.isfinite(d), 1))
    else:
        if graph.n != n:
            raise SizeMismatch(f"graph has {graph.n} vertices, table {n}")
        keys = np.array(list(graph.weights), dtype=np.intp).reshape(-1, 2)
        xs, ys = keys[:, 0], keys[:, 1]
        stored = np.fromiter(graph.weights.values(), float, len(keys))
        tight = (xs != ys) & (stored == d[xs, ys])
        xs, ys = xs[tight], ys[tight]
    out = np.full((n, n), INFINITY)
    np.fill_diagonal(out, 0.0)
    _tight_edge_weight(d, xs, ys, out)
    return GeodesicWeight(out, t.labels)


def _tight_edge_weight(d: np.ndarray, xs: np.ndarray, ys: np.ndarray, out: np.ndarray) -> None:
    """Write d into ``out`` on the pairs (xs, ys), both ways, that have
    nothing between their ends.

    z is between x and y when d[x,z] + d[z,y] is within
    ``_sum_slack(n, d[x,y])`` of d[x,y]; tested on a (pairs x n) block, cut
    into slices of about 2**20 entries.
    """
    n = d.shape[0]
    step = max(1, (1 << 20) // max(n, 1))
    for lo in range(0, len(xs), step):
        x, y = xs[lo : lo + step], ys[lo : lo + step]
        dxy = d[x, y]
        with np.errstate(over="ignore"):  # a sum beyond float range is inf: z is not between
            gap = np.abs((d[x, :] + d[:, y].T) - dxy[:, None])  # gap[i, z] for z = 0 .. n-1
        between = gap <= _sum_slack(n, dxy)[:, None]
        rows = np.arange(len(x))
        between[rows, x] = False
        between[rows, y] = False
        unique = ~between.any(axis=1)
        out[x[unique], y[unique]] = dxy[unique]
        out[y[unique], x[unique]] = dxy[unique]


def is_generating(g: WeightedGraph, t: MetricTable) -> bool:
    """Whether g's weight generates the metric t (delta_w = t entrywise).

    Compares within TAU_EQ, so delta_w comes from one min-plus sweep rather
    than the bitwise fixpoint.
    """
    if g.n != t.n:
        raise SizeMismatch(f"graph has {g.n} vertices, table {t.n}")
    return bool(weights_close_array(_one_sweep_metric(g), t.d).all())

