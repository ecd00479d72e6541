"""Exact rational reference computations used to cross-check the fast paths.

Everything here runs in exact rational arithmetic (:class:`~fractions.Fraction`)
over the parsed decimal values and shares no code with the float algorithms
it checks.  It reads graphs as construction left them (:func:`core.validate`
holds): every stored weight is finite and nonnegative, every stored
conductance positive and finite, so no oracle checks a value again.  Two
oracles are polynomial and back ``--oracle`` on the CLI:

* :func:`brute_metric_from` runs Dijkstra over the source's component;
* :func:`spanning_tree_resistance` reads R(x, y) = det L(-x,-y) / det L(-x)
  off the pair's component by Kirchhoff's matrix-tree theorem, with both
  determinants by fraction-free (Bareiss) elimination over integers.

Both read the component's exact values scaled once to integers by the lcm D
of their denominators: integer sums and comparisons are those of the
rationals times D, so each result is the rational Fractions would give.

The rest are definitional enumerators, exponential by design and kept as
slow checks of the two above: :func:`enumerate_simple_paths` and
:func:`brute_metric` (every injective path), :func:`spanning_tree_sum` and
:func:`two_forest_sum` (every spanning forest), and
:func:`unique_induced_path`.  Sizes are capped; these are test oracles, not
user-facing tools.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterator

from .core import ConductanceGraph, Graph, Path, WeightedGraph, _vertex, edge_key
from .errors import SameVertex, TooLarge

PATH_CAP = 12
TREE_CAP = 8

ExactWeight = Fraction | None  # None spells +infinity in the exact lane.


def _cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise TooLarge(f"{what} capped at {cap} vertices, got {g.n}")


def exact_weight(g: Graph, u: int, v: int) -> ExactWeight:
    """w(u, v) (or b(u, v)) as an exact rational, or None for infinity."""
    x = g._value(u, v)  # checks u and v
    if u == v:
        return Fraction(0)
    key = edge_key(u, v)
    if key in g.exact:
        return g.exact[key]
    return None if math.isinf(x) else _decimal_shadow(x)


@functools.lru_cache(maxsize=4096)
def _decimal_shadow(x: float) -> Fraction:
    """The rational a float's shortest decimal spells, parsed once per value."""
    return Fraction(repr(x))


def _scaled_component(g: Graph, x: int) -> tuple[list[int], dict[tuple[int, int], int], int]:
    """x's component (its sorted vertices, from the kept labelling), the exact
    value of each of its stored pairs times D, and D: the lcm of those
    values' denominators."""
    g._check_vertex(x)  # a negative x would index the labelling from its end
    labelling = g._labelling()
    members = labelling.members[labelling.component[x]]
    ratios = {
        (u, v): (g.exact[u, v] if (u, v) in g.exact else _decimal_shadow(c)).as_integer_ratio()
        for u in members
        for v, c in g.neighbors(u)
        if u < v
    }
    scale = math.lcm(*{q for _, q in ratios.values()})
    return members, {key: p * (scale // q) for key, (p, q) in ratios.items()}, scale


def enumerate_simple_paths(g: Graph, x: int, y: int) -> Iterator[Path]:
    """All injective paths from x to y over stored pairs (finite weights,
    positive conductances), in lexicographic vertex order."""
    _cap(g, PATH_CAP, "path enumeration")
    x, y = _vertex(x, g.n), _vertex(y, g.n)
    if x == y:
        yield Path((x,))
        return
    on_path = [False] * g.n
    on_path[x] = True
    stack: list[int] = [x]

    def walk(u: int) -> Iterator[Path]:
        for v, _ in g.neighbors(u):
            if on_path[v]:
                continue
            stack.append(v)
            on_path[v] = True
            if v == y:
                yield Path(tuple(stack))
            else:
                yield from walk(v)
            on_path[v] = False
            stack.pop()

    yield from walk(x)


def exact_path_length(g: WeightedGraph, path: Path) -> ExactWeight:
    total = Fraction(0)
    for u, v in path.steps():
        w = exact_weight(g, u, v)
        if w is None:
            return None
        total += w
    return total


def brute_metric(g: WeightedGraph, x: int, y: int) -> ExactWeight:
    """Exact shortest-path value by enumerating every injective path."""
    best: ExactWeight = None
    for path in enumerate_simple_paths(g, x, y):
        length = exact_path_length(g, path)
        if length is not None and (best is None or length < best):
            best = length
    return best


def brute_metric_from(g: WeightedGraph, x: int) -> list[ExactWeight]:
    """Exact distances from x to every vertex: Dijkstra over the exact weights.

    The search adds and compares the scaled exact weights of x's component
    (every stored weight is finite and nonnegative, as construction checks)
    and returns each distance d as d/D: the same rational as the Fraction
    sum, in the same order of steps.
    """
    _cap(g, PATH_CAP, "exact path oracle")
    _, scaled, scale = _scaled_component(g, x)
    best: list[int | None] = [None] * g.n
    best[x] = 0
    heap: list[tuple[int, int]] = [(0, x)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, _ in g.neighbors(u):
            if done[v]:
                continue
            total = d + scaled[edge_key(u, v)]
            if best[v] is None or total < best[v]:
                best[v] = total
                heapq.heappush(heap, (total, v))
    return [None if d is None else Fraction(d, scale) for d in best]


def _forest_sum(
    n: int,
    edges: list[tuple[int, int, Fraction]],
    groups: tuple[tuple[int, ...], ...],
) -> Fraction:
    """Sum of edge-conductance products over constrained spanning forests.

    A subset of edges counts when it is acyclic, has exactly ``len(groups)``
    trees once all ``n`` vertices are included, and each group lies entirely
    in its own tree (distinct groups in distinct trees).  With one group this
    is the weighted spanning-tree sum; with two singleton groups it is the
    two-forest sum whose ratio to the tree sum is the effective resistance.

    Enumerates include/exclude per edge; an edge may only be included while
    its endpoints are in different components, which walks each acyclic
    subset exactly once.
    """
    target = len(groups)
    side = [-1] * n
    for gi, members in enumerate(groups):
        for v in members:
            side[v] = gi

    def shore_conflict(comp: list[int]) -> bool:
        seen: dict[int, int] = {}
        for v in range(n):
            s = side[v]
            if s < 0:
                continue
            r = comp[v]
            if r in seen and seen[r] != s:
                return True
            seen[r] = s
        return False

    def rec(idx: int, comp: list[int], acc: Fraction) -> Fraction:
        if shore_conflict(comp):
            return Fraction(0)
        # Prune: even merging every remaining edge cannot reach the target
        # component count.
        trial = comp[:]
        for a, b, _ in edges[idx:]:
            ra, rb = trial[a], trial[b]
            if ra != rb:
                trial = [ra if c == rb else c for c in trial]
        if len(set(trial)) > target:
            return Fraction(0)
        if idx == len(edges):
            if len(set(comp)) != target:
                return Fraction(0)
            shores = {comp[v] for v in range(n) if side[v] >= 0}
            return acc if len(shores) == target else Fraction(0)
        u, v, c = edges[idx]
        total = rec(idx + 1, comp, acc)  # leave the edge out
        ru, rv = comp[u], comp[v]
        if ru != rv:
            merged = [ru if x == rv else x for x in comp]
            total += rec(idx + 1, merged, acc * c)
        return total

    return rec(0, list(range(n)), Fraction(1))


def spanning_tree_sum(g: ConductanceGraph) -> Fraction:
    """Weighted count of spanning trees (sum of edge-conductance products)."""
    _cap(g, TREE_CAP, "tree enumeration")
    if g.n == 0:
        return Fraction(1)
    edges = [(u, v, exact_weight(g, u, v)) for u, v, _ in g.edges()]
    return _forest_sum(g.n, edges, ((0,),))


def two_forest_sum(g: ConductanceGraph, x: int, y: int) -> Fraction:
    """Weighted count of 2-tree spanning forests separating x from y."""
    _cap(g, TREE_CAP, "tree enumeration")
    g._check_vertex(x)
    g._check_vertex(y)
    if x == y:
        raise SameVertex("the separated vertices must be distinct")
    edges = [(u, v, exact_weight(g, u, v)) for u, v, _ in g.edges()]
    return _forest_sum(g.n, edges, ((x,), (y,)))


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free elimination.

    Every intermediate entry is a minor of ``m``, so the divisions are exact
    and the integers stay polynomially sized.  Rows are swapped past a zero
    pivot; the empty matrix has determinant 1.
    """
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def spanning_tree_resistance(g: ConductanceGraph, x: int, y: int) -> ExactWeight:
    """Exact effective resistance on the component of x, by the matrix-tree theorem.

    With L the component's Laplacian over the scaled exact conductances
    (so its entries are integers), R(x, y) = D * det L(-x,-y) / det L(-x):
    the two-forest sum over the spanning-tree sum, here without enumerating
    either.  Unrelated components do not enter; None when x and y are not
    connected.
    """
    g._check_pair(x, y, "resistance")
    # The enumerators' cap and message, so --oracle stops at the same sizes.
    _cap(g, TREE_CAP, "tree enumeration")
    members, scaled, scale = _scaled_component(g, x)
    index = {v: i for i, v in enumerate(members)}
    if y not in index:
        return None
    k = len(index)
    lap = [[0] * k for _ in range(k)]
    for (u, v), e in scaled.items():
        i, j = index[u], index[v]
        lap[i][j] -= e
        lap[j][i] -= e
        lap[i][i] += e
        lap[j][j] += e
    keep_x = [i for i in range(k) if i != index[x]]
    keep_xy = [i for i in keep_x if i != index[y]]
    forests = _bareiss_det([[lap[i][j] for j in keep_xy] for i in keep_xy])
    trees = _bareiss_det([[lap[i][j] for j in keep_x] for i in keep_x])
    return Fraction(scale * forests, trees)


def unique_induced_path(g: ConductanceGraph, x: int, y: int) -> tuple[bool, list[Path]]:
    """Whether exactly one induced x-y path exists; returns up to two found.

    A path is induced when no edge joins two non-consecutive path vertices.
    The walk of :func:`enumerate_simple_paths` stops as soon as two induced
    paths are known.
    """
    _cap(g, PATH_CAP, "path enumeration")
    g._check_pair(x, y, "induced-path search")

    def induced(p: Path) -> bool:
        v = p.vertices
        return not any(
            g.conductance(v[i], v[j]) > 0 for i in range(len(v)) for j in range(i + 2, len(v))
        )

    found = list(itertools.islice(filter(induced, enumerate_simple_paths(g, x, y)), 2))
    return len(found) == 1, found
