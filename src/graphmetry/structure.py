"""Separation, triangle equality, and the tree / block-graph resistance theorems.

A vertex y separates x from z exactly when the resistance triangle
inequality is tight at (x, y, z); resistance equals the inverse-conductance
path metric exactly on trees; and resistance is itself a path metric for a
weight that lives only on edges exactly on block graphs (every biconnected
component a clique, equivalently unique induced paths).  Each recognition
returns a constructive certificate or counterexample, and each theorem is
exercised from both directions in the test suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import INFINITY, ConductanceGraph, Path, WeightedGraph, _vertex, weights_close
from .errors import Disconnected, NotDistinct
from .pathmetric import _first_mismatch
from .resistance import _dipole_potentials, resistance_matrix


@dataclass
class SeparationCertificate:
    """Separator plus the two shores it cuts x's and z's sides into."""

    separator: int
    side_x: list[int]
    side_z: list[int]
    verified: bool

    @property
    def separated(self) -> bool:
        return True


@dataclass
class NotSeparated:
    """Witness path from x to z that avoids the candidate separator."""

    witness: Path

    @property
    def separated(self) -> bool:
        return False


def separates(
    b: ConductanceGraph, y: int, x: int, z: int
) -> SeparationCertificate | NotSeparated:
    """Does every path from x to z pass through y?

    Equivalent to x and z falling into different components after deleting
    y, so one breadth-first search from x in the graph minus y decides it.
    The search stops when it reaches z and returns the route it found as
    the witness path avoiding y; otherwise the vertices it reached are x's
    shore, a second search from z gives z's shore, and the certificate is
    re-checked before it is returned.
    """
    x, y, z = (_vertex(v, b.n) for v in (x, y, z))
    if len({x, y, z}) != 3:
        raise NotDistinct("separator and endpoints must be pairwise distinct")
    component = b._labelling().component
    if component[x] != component[z]:
        raise Disconnected(f"{b.label(x)} and {b.label(z)} are not connected")
    parent = b.reach(x, banned=y, stop=z)
    if z in parent:
        route = [z]
        while route[-1] != x:
            route.append(parent[route[-1]])
        return NotSeparated(witness=Path(tuple(reversed(route))))
    cert = SeparationCertificate(
        separator=y,
        side_x=sorted(parent),
        side_z=sorted(b.reach(z, banned=y)),
        verified=False,
    )
    cert.verified = _verify_certificate(b, cert)
    return cert


def _verify_certificate(b: ConductanceGraph, cert: SeparationCertificate) -> bool:
    """Re-check the certificate invariants independently of how it was built:
    disjoint shores without the separator, and no edge between them.  Every
    stored pair is an edge, so the neighbours of the smaller shore show it."""
    sx, sz = set(cert.side_x), set(cert.side_z)
    if sx & sz:
        return False
    if cert.separator in sx or cert.separator in sz:
        return False
    small, large = (sx, sz) if len(sx) <= len(sz) else (sz, sx)
    return not any(w in large for v in small for w, _ in b.neighbors(v))


@dataclass
class TriangleReport:
    """Both sides of the resistance triangle inequality at (x, y, z)."""

    lhs: float
    rhs: float
    equal: bool
    separated: bool
    separation: SeparationCertificate | NotSeparated | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def consistent(self) -> bool:
        return self.equal == self.separated

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def check_triangle_equality(b: ConductanceGraph, x: int, y: int, z: int) -> TriangleReport:
    """Compare R(x,z) with R(x,y) + R(y,z) and the separation test at y.

    Equality within :func:`weights_close` must coincide with y
    separating x from z.  The three resistances come from one solve
    against the graph's cached grounded factor, one right-hand side per
    pair.  The report keeps the separation certificate or witness it was
    decided by.
    """
    x, z, y = (_vertex(v, b.n) for v in (x, z, y))
    if len({x, y, z}) != 3:
        raise NotDistinct("triangle check needs three pairwise distinct vertices")
    pairs = [(x, z), (x, y), (y, z)]
    xz, xy, yz = (
        INFINITY if f is None else float(f[u])
        for f, (u, _) in zip(_dipole_potentials(b, pairs), pairs)
    )
    lhs, rhs = xz, xy + yz
    if math.isinf(lhs) or math.isinf(rhs):
        raise Disconnected("triangle check needs a connected triple")
    equal = weights_close(lhs, rhs)
    separation = separates(b, y, x, z)
    return TriangleReport(
        lhs=lhs, rhs=rhs, equal=equal, separated=separation.separated, separation=separation
    )


def is_tree(b: ConductanceGraph) -> bool:
    """Connected and acyclic: edge count n - 1 with a single component."""
    return len(b._labelling().members) <= 1 and len(b.b) == max(b.n - 1, 0)


def _check_connected(b: ConductanceGraph, check: str) -> None:
    if len(b._labelling().members) > 1:
        raise Disconnected(f"{check} expects a connected graph")


def biconnected_components(b: ConductanceGraph) -> list[list[int]]:
    """Vertex sets of the biconnected components (blocks), via DFS low-links.

    Bridges appear as two-vertex blocks; isolated vertices yield no block.
    The DFS keeps its own stack of (vertex, parent, neighbour iterator,
    height) frames, so path length is not bounded by the recursion limit,
    and puts each vertex it discovers on one vertex stack, at that height.
    A child u of p that finishes with low[u] >= index[p] closes the block of
    p and the vertices stacked from u up.  The tree edge back to p sets
    low[u] no lower than index[p], so the walk need not skip it.
    """
    index = [0] * b.n  # 0 = unvisited
    low = [0] * b.n
    counter = 1
    blocks: list[list[int]] = []

    for s in range(b.n):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        vertices = [s]
        stack = [(s, -1, iter(b.neighbors(s)), 0)]
        while stack:
            u, parent, todo, height = stack[-1]
            for v, _ in todo:
                if index[v]:
                    if index[v] < low[u]:
                        low[u] = index[v]
                    continue
                index[v] = low[v] = counter
                counter += 1
                stack.append((v, u, iter(b.neighbors(v)), len(vertices)))
                vertices.append(v)
                break
            else:
                # u is finished: hand its low-link to the parent, and close
                # the block of edge (parent, u) when u's subtree reaches no
                # higher than the parent.
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= index[parent]:
                    blocks.append(sorted([parent, *vertices[height:]]))
                    del vertices[height:]
    return blocks


def is_block_graph(b: ConductanceGraph) -> tuple[bool, list[int] | None]:
    """Is every biconnected component a clique in the positive-edge set?

    Classically equivalent to every vertex pair having a unique induced
    path (the definitional form, used as the oracle in tests).  Returns the
    first offending block the block search closes when the answer is no.
    """
    _check_connected(b, "block-graph recognition")
    for block in biconnected_components(b):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if b.conductance(u, v) == 0.0:
                    return False, block
    return True, None


@dataclass
class CompatibilityCertificate:
    """Whether resistance is a path metric of a weight living only on edges."""

    verdict: str
    weight: WeightedGraph | None = None
    counterexample: tuple[int, int] | None = None

    @property
    def compatible(self) -> bool:
        return self.verdict == "COMPATIBLE"


def compatible_resistance_weight(b: ConductanceGraph) -> CompatibilityCertificate:
    """Try w = R on edges (inf off edges) and test whether delta_w = R.

    The candidate is the only possible one: a compatible weight generating
    R must agree with R on edges.  COMPATIBLE comes with the constructed
    weight; INCOMPATIBLE with a pair where the shortest-path value differs
    from the resistance.  The verdict matches block-graph recognition.
    """
    _check_connected(b, "compatibility check")
    R = resistance_matrix(b).d
    weights = {(u, v): float(R[u, v]) for u, v, _ in b.edges()}
    w_graph = WeightedGraph(b.n, weights, b.labels)
    pair = _first_mismatch(w_graph, lambda: R)
    if pair is not None:
        return CompatibilityCertificate(verdict="INCOMPATIBLE", counterexample=pair)
    return CompatibilityCertificate(verdict="COMPATIBLE", weight=w_graph)


def inverse_conductance_weight(b: ConductanceGraph) -> WeightedGraph:
    """The weight 1/b on positive-conductance edges, inf elsewhere.

    Each pair's exact value, read only when an oracle asks, is the exact
    reciprocal of its conductance's; a conductance whose reciprocal
    overflows raises InputError.
    """
    return b.reciprocal(WeightedGraph)


@dataclass
class TreeTheoremReport:
    """R = delta_{1/b} happens exactly on trees; both facts side by side."""

    is_tree: bool
    metrics_equal: bool

    @property
    def consistent(self) -> bool:
        return self.is_tree == self.metrics_equal


def check_tree_theorem(b: ConductanceGraph) -> TreeTheoremReport:
    """Compare delta_{1/b}, over :func:`inverse_conductance_weight`, with the
    resistance matrix entrywise."""
    _check_connected(b, "tree theorem check")
    w_graph = inverse_conductance_weight(b)
    equal = _first_mismatch(w_graph, lambda: resistance_matrix(b).d) is None
    return TreeTheoremReport(is_tree=is_tree(b), metrics_equal=equal)
