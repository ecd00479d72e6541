"""Exact rational reference computations used to cross-check the fast paths.

Everything here runs in exact rational arithmetic (:class:`~fractions.Fraction`)
over each pair's exact value, as the graph decides it (``Graph._exact``: a
parsed token, else the float's shortest decimal, or 1/q of one of those on
a graph made by ``reciprocal``), and shares no code with
the float algorithms it checks.  It reads graphs as construction left them
(:func:`core.validate` holds): every stored weight is finite and
nonnegative, every stored conductance positive and finite, so no oracle
checks a value again.  Two oracles are polynomial and back ``--oracle`` on
the CLI:

* :func:`brute_metric_from` runs Dijkstra over the source's component;
* :func:`spanning_tree_resistance` reads R(x, y) = det L(-x,-y) / det L(-x)
  off the pair's component by Kirchhoff's matrix-tree theorem, with both
  determinants by fraction-free (Bareiss) elimination over integers.  det
  L(-x), the tree sum, is the same for every x: it is computed once per
  component and kept on the graph.

Both read the component's exact values scaled once to integers by the lcm D
of their denominators: integer sums and comparisons are those of the
rationals times D, so each result is the rational Fractions would give.

:func:`brute_metric` enumerates every injective path
(:func:`enumerate_simple_paths`), exponential by design, as a slow check of
the first.  Sizes are capped; these are test oracles, not user-facing tools.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterator

from .core import ConductanceGraph, Graph, Path, WeightedGraph, _vertex, edge_key
from .errors import TooLarge

PATH_CAP = 12
TREE_CAP = 8

ExactWeight = Fraction | None  # None spells +infinity in the exact lane.


def _cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise TooLarge(f"{what} capped at {cap} vertices, got {g.n}")


def exact_weight(g: Graph, u: int, v: int) -> ExactWeight:
    """w(u, v) (or b(u, v)) as the graph's exact rational, or None for infinity."""
    x = g._value(u, v)  # checks u and v
    if u == v:
        return Fraction(0)
    return None if math.isinf(x) else g._exact(edge_key(u, v))


def _scaled_component(g: Graph, x: int) -> tuple[list[int], dict[tuple[int, int], int], int]:
    """x's component (its sorted vertices, from the kept labelling), the exact
    value of each of its stored pairs times D, and D: the lcm of those
    values' denominators.  Each component is scaled on first use and kept
    on the graph; racing readers may both scale it, and all read the first
    one kept."""
    g._check_vertex(x)  # a negative x would index the labelling from its end
    labelling = g._labelling()
    c = labelling.component[x]
    members = labelling.members[c]
    kept = g._scaled.get(c)
    if kept is None:
        ratios = {
            key: g._exact(key).as_integer_ratio()
            for key in g._pairs
            if key[0] != key[1] and labelling.component[key[0]] == c
        }
        scale = math.lcm(*{q for _, q in ratios.values()})
        kept = g._scaled.setdefault(c, ({key: p * (scale // q) for key, (p, q) in ratios.items()}, scale))
    return members, *kept


def enumerate_simple_paths(g: Graph, x: int, y: int) -> Iterator[Path]:
    """All injective paths from x to y over stored pairs (finite weights,
    positive conductances), in lexicographic vertex order."""
    _cap(g, PATH_CAP, "path enumeration")
    x, y = _vertex(x, g.n), _vertex(y, g.n)
    if x == y:
        yield Path((x,))
        return
    offsets, partners, _ = g._adjacency()
    on_path = [False] * g.n
    on_path[x] = True
    stack: list[int] = [x]

    def walk(u: int) -> Iterator[Path]:
        for v in partners[offsets[u] : offsets[u + 1]]:
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
    offsets, partners, _ = g._adjacency()
    best: list[int | None] = [None] * g.n
    best[x] = 0
    heap: list[tuple[int, int]] = [(0, x)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in partners[offsets[u] : offsets[u + 1]]:
            if done[v]:
                continue
            total = d + scaled[edge_key(u, v)]
            if best[v] is None or total < best[v]:
                best[v] = total
                heapq.heappush(heap, (total, v))
    return [None if d is None else Fraction(d, scale) for d in best]


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
    # The forest enumerators' cap and message, so --oracle stops where they do.
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
    # Every cofactor of a Laplacian is its tree sum, so det L(-x) is det L(-0)
    # for each x of the component: one determinant per component, kept.
    c = g._labelling().component[x]
    trees = g._trees.get(c)
    if trees is None:
        trees = g._trees.setdefault(c, _bareiss_det([row[1:] for row in lap[1:]]))
    return Fraction(scale * forests, trees)
