"""Definitional enumerators, exponential by design: slow checks of the
polynomial oracles in :mod:`graphmetry.oracle`, kept beside the tests that
read them.  Each has the oracles' caps and errors."""

from __future__ import annotations

import itertools
from fractions import Fraction

from graphmetry.core import ConductanceGraph, Path
from graphmetry.errors import SameVertex
from graphmetry.oracle import PATH_CAP, TREE_CAP, _cap, enumerate_simple_paths, exact_weight


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
