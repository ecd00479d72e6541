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

import numpy as np

from .core import INFINITY, ConductanceGraph, Path, WeightedGraph, weights_close, weights_close_array
from .errors import Disconnected, NotDistinct
from .pathmetric import _one_sweep_metric
from .resistance import _dipole_potentials, _grounded, components, resistance_matrix


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
    for v in (x, y, z):
        b._check_vertex(v)
    if len({x, y, z}) != 3:
        raise NotDistinct("separator and endpoints must be pairwise distinct")
    label = _grounded(b).label
    if label[x] != label[z]:
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
    if len({x, y, z}) != 3:
        raise NotDistinct("triangle check needs three pairwise distinct vertices")
    for v in (x, z, y):
        b._check_vertex(v)
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
    return len(components(b)) <= 1 and len(b.edges()) == max(b.n - 1, 0)


def biconnected_components(b: ConductanceGraph) -> list[list[int]]:
    """Vertex sets of the biconnected components (blocks), via DFS low-links.

    Bridges appear as two-vertex blocks; isolated vertices yield no block.
    The DFS keeps its own stack of (vertex, parent, neighbour iterator)
    frames, so path length is not bounded by the recursion limit.
    """
    index = [0] * b.n  # 0 = unvisited
    low = [0] * b.n
    counter = 1
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[int]] = []

    for s in range(b.n):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        stack = [(s, -1, iter(b.neighbors(s)))]
        while stack:
            u, parent, todo = stack[-1]
            for v, _ in todo:
                if v == parent:
                    continue
                if not index[v]:
                    edge_stack.append((u, v))
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append((v, u, iter(b.neighbors(v))))
                    break
                if index[v] < index[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], index[v])
            else:
                # u is finished: hand its low-link to the parent, and close
                # the block of edge (parent, u) when u's subtree reaches no
                # higher than the parent.
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= index[parent]:
                    members: set[int] = set()
                    while True:
                        edge = edge_stack.pop()
                        members.update(edge)
                        if edge == (parent, u):
                            break
                    blocks.append(sorted(members))
    return blocks


def is_block_graph(b: ConductanceGraph) -> tuple[bool, list[int] | None]:
    """Is every biconnected component a clique in the positive-edge set?

    Classically equivalent to every vertex pair having a unique induced
    path (the definitional form, used as the oracle in tests).  Returns the
    first offending block when the answer is no.
    """
    if len(components(b)) > 1:
        raise Disconnected("block-graph recognition expects a connected graph")
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
    if len(components(b)) > 1:
        raise Disconnected("compatibility check expects a connected graph")
    R = resistance_matrix(b)
    weights = {(u, v): float(R.d[u, v]) for u, v, _ in b.edges()}
    w_graph = WeightedGraph(b.n, weights, b.labels)
    d = _one_sweep_metric(w_graph)
    differ = np.triu(~weights_close_array(d, R.d), 1)
    if differ.any():
        x, y = np.argwhere(differ)[0]  # first pair x < y in row-major order
        return CompatibilityCertificate(
            verdict="INCOMPATIBLE", counterexample=(int(x), int(y))
        )
    return CompatibilityCertificate(verdict="COMPATIBLE", weight=w_graph)


def inverse_conductance_weight(b: ConductanceGraph) -> WeightedGraph:
    """The weight 1/b on positive-conductance edges, inf elsewhere.

    Exact shadows carry over as exact reciprocals; a conductance whose
    reciprocal overflows raises InputError.
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
    """Compare delta_{1/b} with the resistance matrix entrywise."""
    if len(components(b)) > 1:
        raise Disconnected("tree theorem check expects a connected graph")
    d = _one_sweep_metric(inverse_conductance_weight(b))
    R = resistance_matrix(b).d
    upper = np.triu_indices(b.n, 1)
    equal = bool(weights_close_array(d[upper], R[upper]).all())
    return TreeTheoremReport(is_tree=is_tree(b), metrics_equal=equal)
