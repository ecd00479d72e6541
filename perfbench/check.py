"""Independent output checks: every reference here is computed without graphmetry.

* delta: ``scipy.sparse.csgraph.shortest_path`` on the scaled integer values
  (exact), compared with ``weights_close`` semantics and exact at ``inf``;
* w_delta: must generate the reference delta, dominate the input weight and
  be finite exactly on the pairs with no vertex strictly between them;
* R: a dense Laplacian pseudo-inverse per component (CLI inputs) or a sparse
  LU of the grounded Laplacian (the session graph, which changes under edits);
* separation, tree and block verdicts: ``networkx``;
* oracle ``p/q`` values: equal to the float reference within 1e-9;
* family scan counts: the families' closed forms.

A check returns nothing when the output is right and raises ``Mismatch``
otherwise; the runner counts any exception from a check as a failed op.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import csgraph_from_dense, shortest_path
from scipy.sparse.linalg import splu

from corpus import Graph, label, vertex

REL = 1e-9


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(a: float, b: float, rel: float = REL) -> bool:
    """Equality of extended values: exact at infinity, relative otherwise."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def all_close(a: np.ndarray, b: np.ndarray, rel: float = REL) -> bool:
    if a.shape != b.shape or np.isnan(a).any() or np.isnan(b).any():
        return False
    inf_a, inf_b = np.isinf(a), np.isinf(b)
    if not np.array_equal(inf_a, inf_b) or not np.array_equal(a[inf_a], b[inf_b]):
        return False
    fa, fb = a[~inf_a], b[~inf_b]
    return bool((np.abs(fa - fb) <= rel * np.maximum(1.0, np.maximum(np.abs(fa), np.abs(fb)))).all())


def document(rc: int, text: str) -> dict:
    expect(rc == 0, f"exit code {rc}")
    return json.loads(text)


def table_matrix(table: dict, n: int) -> np.ndarray:
    """A ``{label: {label: value}}`` table as a matrix in generator ids."""
    expect(len(table) == n, f"table has {len(table)} rows, expected {n}")
    out = np.full((n, n), np.nan)
    for row_label, row in table.items():
        expect(len(row) == n, f"row {row_label} has {len(row)} entries")
        i = vertex(row_label)
        for col_label, value in row.items():
            out[i, vertex(col_label)] = float(value)
    expect(not np.isnan(out).any(), "table is missing entries")
    return out


def adjacency(g: Graph) -> csr_matrix:
    """Scaled integer values as a symmetric sparse matrix."""
    rows = [u for u, _ in g.edges] + [v for _, v in g.edges]
    cols = [v for _, v in g.edges] + [u for u, _ in g.edges]
    vals = [float(k) for k in g.values] * 2
    return csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def scaled_delta(g: Graph, indices=None) -> np.ndarray:
    """Exact shortest-path values in units of 1/scale (integers as floats)."""
    return shortest_path(adjacency(g), method="D", directed=False, indices=indices)


def delta(g: Graph) -> np.ndarray:
    return scaled_delta(g) / g.scale


def nx_graph(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def resistance(g: Graph) -> np.ndarray:
    """All-pairs effective resistance from a dense pseudo-inverse per component."""
    R = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(R, 0.0)
    L = np.zeros((g.n, g.n))
    for (u, v), k in zip(g.edges, g.values):
        c = k / g.scale
        L[u, v] -= c
        L[v, u] -= c
        L[u, u] += c
        L[v, v] += c
    for comp in nx.connected_components(nx_graph(g)):
        members = sorted(comp)
        if len(members) == 1:
            continue
        P = np.linalg.pinv(L[np.ix_(members, members)], hermitian=True)
        d = np.diag(P)
        block = d[:, None] + d[None, :] - 2.0 * P
        np.fill_diagonal(block, 0.0)
        R[np.ix_(members, members)] = block
    return R


class GroundedLU:
    """Effective resistance on a connected graph from a sparse LU of the
    Laplacian grounded at vertex 0; refactored when a conductance changes."""

    def __init__(self, n: int, conductance: dict[tuple[int, int], float]) -> None:
        self.n = n
        self.conductance = conductance
        self._lu = None

    def set(self, u: int, v: int, value: float) -> None:
        self.conductance[(u, v) if u < v else (v, u)] = value
        self._lu = None

    def resistance(self, x: int, y: int) -> float:
        if self._lu is None:
            rows, cols, vals = [], [], []
            degree = np.zeros(self.n)
            for (u, v), c in self.conductance.items():
                rows += [u, v]
                cols += [v, u]
                vals += [-c, -c]
                degree[u] += c
                degree[v] += c
            rows += list(range(self.n))
            cols += list(range(self.n))
            vals += list(degree)
            L = csc_matrix((vals, (rows, cols)), shape=(self.n, self.n))
            self._lu = splu(L[1:, 1:].tocsc())
        current = np.zeros(self.n)  # unit current in at x, out at y
        current[x] += 1.0
        current[y] -= 1.0
        potential = np.zeros(self.n)
        potential[1:] = self._lu.solve(current[1:])
        return float(potential[x] - potential[y])


def separated(G: nx.Graph, x: int, y: int, z: int) -> bool:
    """Does removing y leave x and z in different components?"""
    return z not in side(G, y, x)


def side(G: nx.Graph, banned: int, start: int) -> set[int]:
    return nx.node_connected_component(nx.restricted_view(G, [banned], []), start)


def path_vertices(text: str) -> list[int]:
    return [vertex(token) for token in text.split(" -> ")]


def check_walk(G: nx.Graph, walk: list[int], start: int, end: int, banned: int | None = None) -> None:
    expect(walk[0] == start and walk[-1] == end, f"path {walk} has the wrong ends")
    expect(len(set(walk)) == len(walk), f"path {walk} repeats a vertex")
    expect(banned not in walk, f"path {walk} passes the separator")
    expect(all(G.has_edge(a, b) for a, b in zip(walk, walk[1:])), f"path {walk} leaves the graph")


# -- pathmetric-cli ----------------------------------------------------------


def metric_table(g: Graph, rc: int, text: str) -> None:
    doc = document(rc, text)
    expect(all_close(table_matrix(doc["results"]["table"], g.n), delta(g)), "delta differs")


def geodesic_weight(g: Graph, rc: int, text: str) -> None:
    doc = document(rc, text)
    res = doc["results"]
    expect(res["generates"] is True and res["dominates"] is True, "maximality verdicts")
    expect(res["witnesses"] == [], "dominance witnesses listed")
    W = table_matrix(res["geodesic_weight"], g.n)
    expect(np.array_equal(W, W.T) and not np.diag(W).any(), "w_delta not symmetric with zero diagonal")
    D = scaled_delta(g)
    # Generates: the path metric of w_delta is the reference delta.
    expect(all_close(shortest_path(csgraph_from_dense(W), directed=False), D / g.scale), "w_delta does not generate delta")
    # Dominates: w_delta >= w on every input edge.
    for (u, v), k in zip(g.edges, g.values):
        expect(W[u, v] >= (k / g.scale) * (1 - REL), f"w_delta below w at {label(u)},{label(v)}")
    # Support: finite exactly where no third vertex lies between (exact integers).
    finite = np.isfinite(D)
    support = np.zeros((g.n, g.n), dtype=bool)
    for x in range(g.n):
        between = D[x][:, None] + D == D[x][None, :]
        between[x, :] = False
        np.fill_diagonal(between, False)
        support[x] = finite[x] & ~between.any(axis=0)
    np.fill_diagonal(support, False)
    off = ~np.eye(g.n, dtype=bool)
    expect(np.array_equal(np.isfinite(W) & off, support), "w_delta support differs")


def _geodesic_count(g: Graph, s: int, t: int) -> tuple[np.ndarray, int]:
    """Scaled distances from s and the exact number of s-t geodesics."""
    D = scaled_delta(g, indices=s)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (u, v), k in zip(g.edges, g.values):
        adj[u].append((v, k))
        adj[v].append((u, k))
    count = [0] * g.n
    count[s] = 1
    for v in sorted(range(g.n), key=lambda v: D[v]):
        if v != s and math.isfinite(D[v]):
            count[v] = sum(count[u] for u, k in adj[v] if D[u] + k == D[v])
    return D, count[t]


def geodesic_set(g: Graph, s: int, t: int, paths: list[list[int]], truncated: bool, cap: int) -> None:
    D, total = _geodesic_count(g, s, t)
    expect(len(paths) == min(total, cap), f"{len(paths)} geodesics listed, {total} exist")
    expect(truncated == (total > cap), "truncation flag")
    expect(len({tuple(p) for p in paths}) == len(paths), "a geodesic is listed twice")
    G = nx_graph(g)
    values = {e: k for e, k in zip(g.edges, g.values)}
    for p in paths:
        check_walk(G, p, s, t)
        length = sum(values[(a, b) if a < b else (b, a)] for a, b in zip(p, p[1:]))
        expect(length == D[t], f"path {p} is not a geodesic")


def geodesics_text(g: Graph, rc: int, text: str, cap: int = 64) -> None:
    expect(rc == 0, f"exit code {rc}")
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    s, t = g.query
    expect(close(float(fields["distance"]), scaled_delta(g, indices=s)[t] / g.scale), "distance differs")
    paths = []
    while f"geodesics[{len(paths)}].path" in fields:
        i = len(paths)
        paths.append(path_vertices(fields[f"geodesics[{i}].path"]))
        expect(close(float(fields[f"geodesics[{i}].length"]), float(fields["distance"])), "length differs")
    geodesic_set(g, s, t, paths, fields["truncated"] == "True", cap)


def characterize_tree_block(g: Graph, rc: int, text: str) -> None:
    res = document(rc, text)["results"]
    G = nx_graph(g)
    tree = nx.is_tree(G)
    blocks = [set(b) for b in nx.biconnected_components(G)]
    cliques = [all(G.has_edge(a, b) for a in blk for b in blk if a < b) for blk in blocks]
    expect(res["tree"] == {"is_tree": tree, "metrics_equal": tree, "consistent": True}, "tree verdicts")
    blk = res["block"]
    expect(blk["is_block_graph"] == all(cliques), "block-graph verdict")
    expect(blk["verdict"] == ("COMPATIBLE" if all(cliques) else "INCOMPATIBLE"), "compatibility verdict")
    R = resistance(g)
    if all(cliques):
        cert = {tuple(sorted(map(vertex, key.split(",")))): float(v) for key, v in blk["certificate"].items()}
        expect(set(cert) == set(g.edges), "certificate edges")
        expect(all(close(w, R[e]) for e, w in cert.items()), "certificate weights")
        return
    offender = {vertex(t) for t in blk["offending_block"]}
    expect(any(offender == b and not c for b, c in zip(blocks, cliques)), "offending block")
    u, v = map(vertex, blk["counterexample"].split(","))
    on_edges = np.full((g.n, g.n), np.inf)
    for a, b in g.edges:
        on_edges[a, b] = on_edges[b, a] = R[a, b]
    d = shortest_path(csgraph_from_dense(on_edges), directed=False, indices=u)
    expect(not close(d[v], R[u, v]), "counterexample pair agrees")


# -- resistance-cli ----------------------------------------------------------


def resistance_table(g: Graph, rc: int, text: str) -> None:
    doc = document(rc, text)
    expect(all_close(table_matrix(doc["results"]["resistance"], g.n), resistance(g)), "R differs")


def conductances(g: Graph) -> dict[tuple[int, int], float]:
    return {e: k / g.scale for e, k in zip(g.edges, g.values)}


def maximizer(conductance: dict[tuple[int, int], float], x: int, y: int, R: float, f: np.ndarray) -> None:
    """f (generator ids) has unit energy, is harmonic off {x, y} and
    attains (f(y) - f(x))^2 = R with f(x) > f(y)."""
    energy = 0.0
    flow = np.zeros(len(f))
    for (u, v), c in conductance.items():
        energy += c * (f[u] - f[v]) ** 2
        flow[u] += c * (f[u] - f[v])
        flow[v] += c * (f[v] - f[u])
    flow[[x, y]] = 0.0
    expect(close(energy, 1.0), f"maximizer energy {energy}")
    expect(f[x] > f[y] and close((f[y] - f[x]) ** 2, R), "maximizer gap")
    expect(np.abs(flow).max() <= 1e-8, "maximizer not harmonic")


def resistance_pair(g: Graph, rc: int, text: str) -> None:
    res = document(rc, text)["results"]
    x, y = g.query
    R = resistance(g)[x, y]
    expect(close(float(res["resistance"]), R), "R differs")
    result = res["maximizer"]
    expect(len(result["potential"]) == g.n, "potential size")
    f = np.zeros(g.n)
    for token, value in result["potential"].items():
        f[vertex(token)] = float(value)
    maximizer(conductances(g), x, y, R, f)
    expect(float(result["residual"]) <= 1e-8 and close(float(result["gap_squared"]), R), "reported residual or gap")


def triangle_verdict(G: nx.Graph, R, x: int, y: int, z: int, report) -> None:
    """``report``: (lhs, rhs, equal, separated, consistent) as printed or returned."""
    lhs, rhs, equal, sep, consistent = report
    expect(close(lhs, R(x, z)) and close(rhs, R(x, y) + R(y, z)), "triangle sides differ")
    truth = separated(G, x, y, z)
    expect(equal == truth and sep == truth and consistent is True, "triangle verdicts")


def separation(G: nx.Graph, x: int, y: int, z: int, cert: dict) -> None:
    """``cert`` holds ``witness`` or ``separator``/``side_x``/``side_z``/``verified``."""
    if separated(G, x, y, z):
        expect(cert["separator"] == y and cert["verified"] is True, "certificate separator")
        expect(set(cert["side_x"]) == side(G, y, x), "certificate side of x")
        expect(set(cert["side_z"]) == side(G, y, z), "certificate side of z")
    else:
        check_walk(G, cert["witness"], x, z, banned=y)


def characterize_triangle(g: Graph, rc: int, text: str) -> None:
    tri = document(rc, text)["results"]["triangle"]
    x, y, z = g.query
    R = resistance(g)
    G = nx_graph(g)
    triangle_verdict(
        G, lambda a, b: R[a, b], x, y, z,
        (float(tri["lhs"]), float(tri["rhs"]), tri["equal"], tri["separated"], tri["consistent"]),
    )
    if "witness" in tri:
        cert = {"witness": path_vertices(tri["witness"])}
    else:
        c = tri["certificate"]
        cert = {
            "separator": vertex(c["separator"]),
            "side_x": [vertex(t) for t in c["side_x"]],
            "side_z": [vertex(t) for t in c["side_z"]],
            "verified": c["verified"],
        }
    separation(G, x, y, z, cert)


# -- exact-small -------------------------------------------------------------


def rational(token: str) -> float:
    if token == "inf":
        return math.inf
    p, q = token.split("/")
    return float(Fraction(int(p), int(q)))


def metric_oracle(g: Graph, rc: int, text: str) -> None:
    res = document(rc, text)["results"]
    ref = delta(g)
    expect(all_close(table_matrix(res["table"], g.n), ref), "delta differs")
    exact = np.full((g.n, g.n), np.nan)
    for a, row in res["oracle"].items():
        for b, token in row.items():
            exact[vertex(a), vertex(b)] = rational(token)
    expect(all_close(exact, ref), "oracle differs")


def resistance_oracle(g: Graph, rc: int, text: str) -> None:
    res = document(rc, text)["results"]
    x, y = g.query
    R = resistance(g)[x, y]
    expect(close(float(res["resistance"]), R), "R differs")
    expect(close(rational(res["oracle"]), R), "oracle differs")
    expect(float(res["discrepancy"]) <= REL * max(1.0, R), "discrepancy")


def _star_weight(decay: bool, a: int, b: int) -> Fraction | None:
    if a != 0 and b != 0:
        return None
    return Fraction(1, max(a, b)) if decay else Fraction(1)


def _ray_weight(decay: bool, a: int, b: int) -> Fraction | None:
    if abs(a - b) != 1:
        return None
    return Fraction(1, 2 ** max(a, b)) if decay else Fraction(1)


def _ray_distance(decay: bool, c: int, k: int) -> Fraction:
    if not decay:
        return Fraction(abs(k - c))
    return abs(Fraction(1, 2**c) - Fraction(1, 2**k))


def ball_count(family: str, c: int, r: Fraction, budget: int) -> int:
    """Closed form of the ball B_r(c) inside the first ``budget`` vertices."""
    decay = family.startswith("decaying")
    if family.endswith("ray"):
        return sum(1 for k in range(budget) if _ray_distance(decay, c, k) <= r)
    leaf = lambda k: Fraction(1, k) if decay else Fraction(1)  # noqa: E731
    if c == 0:
        return 1 + sum(1 for k in range(1, budget) if leaf(k) <= r)
    return 1 + (leaf(c) <= r) + sum(1 for k in range(1, budget) if k != c and leaf(c) + leaf(k) <= r)


def elf_count(family: str, x: int, r: Fraction, budget: int) -> int:
    """Closed form of #{y among the first ``budget`` candidates: w(x, y) < r}."""
    decay = family.startswith("decaying")
    weight = _ray_weight if family.endswith("ray") else _star_weight
    candidates = [y for y in range(budget + 1) if y != x][:budget]
    if family.endswith("star") and x == 0:
        return sum(1 for y in candidates if weight(decay, x, y) < r)
    near = [y for y in (x - 1, x + 1, 0) if 0 <= y != x and y in candidates]
    return sum(1 for y in set(near) if (w := weight(decay, x, y)) is not None and w < r)


def family_scan(family: str, mode: str, center: int, radius: str, budget: int, rc: int, text: str) -> None:
    scan = document(rc, text)["results"]["scan"]
    r = Fraction(radius)
    if family.endswith("ray"):
        name = f"x{center}"
    else:
        name = "center" if center == 0 else f"leaf{center}"
    expect(scan["kind"] == mode and scan["radius"] == f"{float(radius):.17g}", "scan echo")
    if mode == "ball":
        found = ball_count(family, center, r, budget)
        expect(scan["center"] == name and scan["budget"] == budget, "ball scan echo")
        expect(scan["found"] == found, f"ball count {scan['found']} != {found}")
    else:
        found = elf_count(family, center, r, budget)
        expect(scan["vertex"] == name and scan["exhausted"] is False, "elf scan echo")
        expect(scan["count"] == found, f"elf count {scan['count']} != {found}")
    expect(scan["verdict"] == ("EXCEEDS_THRESHOLD" if found >= budget else "BOUNDED_SO_FAR"), "scan verdict")


def prefix_extraction(
    g: Graph, to_gen: list[int], paths: list[list[int]], k: int, prefix: list[int], mults: list[int], length: float
) -> None:
    """Paths and prefix are in the program's ids, ``to_gen`` maps them to the
    generator's.  At each level the least continuation shared by at least k
    of the paths that still agree is taken."""
    want, want_mults = [paths[0][0]], [len(paths)]
    alive = paths
    while True:
        depth = len(want)
        counts: dict[int, int] = {}
        for p in alive:
            if len(p) > depth:
                counts[p[depth]] = counts.get(p[depth], 0) + 1
        shared = [v for v, c in counts.items() if c >= k]
        if not shared:
            break
        nxt = min(shared)
        want.append(nxt)
        want_mults.append(counts[nxt])
        alive = [p for p in alive if len(p) > depth and p[depth] == nxt]
    expect(prefix == want and mults == want_mults, "extracted prefix differs")
    values = dict(zip(g.edges, g.values))
    walk = [to_gen[v] for v in want]
    total = sum(values[(a, b) if a < b else (b, a)] for a, b in zip(walk, walk[1:]))
    expect(close(length, total / g.scale), "prefix length differs")
