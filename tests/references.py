"""The front end as it stood before the array parser and the CSR adjacency:
a parse loop that decides every check line by line over an ``entries`` map,
and walks over per-vertex lists of ``(partner, value)`` tuples.  Kept beside
the tests that compare the library with them, as references."""

from __future__ import annotations

import heapq
import math

from fractions import Fraction

from graphmetry.core import INFINITY, Components, ConductanceGraph, Graph, Path, WeightedGraph, _vertex, edge_key
from graphmetry.errors import (
    AsymmetryError,
    DiagonalError,
    Disconnected,
    InvalidArgument,
    NegativeWeightError,
    NotDistinct,
    ParseError,
)
from graphmetry.pathmetric import GeodesicSet, _sum_slack
from graphmetry.structure import NotSeparated, SeparationCertificate


def parse_value(token: str, line_no: int) -> tuple[float, str | None]:
    """A value token's float and the spelling of its exact value, or the
    error that refuses it on line ``line_no``."""
    if token.lower() == "inf":
        return INFINITY, None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: bad value {token!r}") from None
    if math.isnan(value):
        raise ParseError(f"line {line_no}: NaN is not a valid value")
    if math.isinf(value):
        raise ParseError(f"line {line_no}: overflowing value {token!r}; use 'inf'")
    if value:
        if value < 0:
            raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
        return value, token.replace("_", "")
    mantissa = Fraction(token.replace("_", "").lower().partition("e")[0])
    if mantissa.numerator < 0:
        raise NegativeWeightError(f"line {line_no}: negative value {token!r}")
    if mantissa:
        raise ParseError(f"line {line_no}: underflowing value {token!r}")
    return value, None


def parse_graph(text: str, mode: str = "weight") -> Graph:
    """The line-by-line parse loop: each check runs as its line is read, and
    the graph is built from the ``entries`` map."""
    if mode not in ("weight", "conductance"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    ids: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}
    spelled: dict[tuple[int, int], str] = {}
    parsed: dict[str, tuple[float, str | None]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        tokens = raw_line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 2 and tokens[0] == "vertex":
            ids.setdefault(tokens[1], len(ids))
            continue
        if len(tokens) != 3:
            raise ParseError(f"line {line_no}: expected '<label> <label> <value>', got {raw_line!r}")
        u = ids.setdefault(tokens[0], len(ids))
        v = ids.setdefault(tokens[1], len(ids))
        value_frac = parsed.get(tokens[2])
        if value_frac is None:
            value_frac = parsed[tokens[2]] = parse_value(tokens[2], line_no)
        value, spelling = value_frac
        if u == v:
            if mode == "conductance":
                raise DiagonalError(f"line {line_no}: self-loop on {tokens[0]!r}")
            if value != 0.0:
                raise DiagonalError(f"line {line_no}: self-loop on {tokens[0]!r} with nonzero weight")
            continue
        if mode == "weight" and value == 0.0:
            raise ParseError(
                f"line {line_no}: zero weight between distinct vertices "
                f"{tokens[0]!r} and {tokens[1]!r} breaks definiteness"
            )
        if mode == "conductance" and math.isinf(value):
            raise ParseError(f"line {line_no}: conductances must be finite")
        key = edge_key(u, v)
        if entries.setdefault(key, value) != value:
            raise AsymmetryError(
                f"line {line_no}: pair ({tokens[0]}, {tokens[1]}) redeclared "
                f"with conflicting value {tokens[2]}"
            )
        if spelling is not None:
            spelled[key] = spelling
    kind = WeightedGraph if mode == "weight" else ConductanceGraph
    g = kind(len(ids), entries, tuple(ids))
    g._tokens = {key: spelled[key] for key in g._pairs if key in spelled}
    return g


def adjacency(g: Graph) -> list[list[tuple[int, float]]]:
    """Each vertex's (partner, value) tuples, appended pair by pair in stored
    order, so each list is ascending."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for (a, b), w in g._pairs.items():
        if a != b:
            adj[a].append((b, w))
            adj[b].append((a, w))
    return adj


def reach(g: Graph, start: int, banned: int | None = None, stop: int | None = None) -> dict[int, int]:
    """Breadth-first parents from ``start`` over the tuple lists."""
    adj = adjacency(g)
    parent = {start: start}
    if start == stop:
        return parent
    queue = [start]
    for u in queue:
        for v, _ in adj[u]:
            if v != banned and v not in parent:
                parent[v] = u
                if v == stop:
                    return parent
                queue.append(v)
    return parent


def labelling(g: Graph) -> Components:
    """One search per component, from its least vertex."""
    component = [-1] * g.n
    members: list[list[int]] = []
    for s in range(g.n):
        if component[s] < 0:
            members.append(sorted(reach(g, s)))
            for v in members[-1]:
                component[v] = len(members) - 1
    return Components(component, members)


def separates(b: ConductanceGraph, y: int, x: int, z: int) -> SeparationCertificate | NotSeparated:
    """The separation search and its certificate check over the tuple lists."""
    if len({x, y, z}) != 3:
        raise NotDistinct("separator and endpoints must be pairwise distinct")
    component = labelling(b).component
    if component[x] != component[z]:
        raise Disconnected(f"{b.label(x)} and {b.label(z)} are not connected")
    parent = reach(b, x, banned=y, stop=z)
    if z in parent:
        route = [z]
        while route[-1] != x:
            route.append(parent[route[-1]])
        return NotSeparated(witness=Path(tuple(reversed(route))))
    side_x, side_z = sorted(parent), sorted(reach(b, z, banned=y))
    adj = adjacency(b)
    sx, sz = set(side_x), set(side_z)
    small, large = (sx, sz) if len(sx) <= len(sz) else (sz, sx)
    verified = not (sx & sz) and y not in sx | sz and not any(w in large for v in small for w, _ in adj[v])
    return SeparationCertificate(separator=y, side_x=side_x, side_z=side_z, verified=verified)


def biconnected_components(b: ConductanceGraph) -> list[list[int]]:
    """The low-link DFS over the tuple lists."""
    adj = adjacency(b)
    index = [0] * b.n
    low = [0] * b.n
    counter = 1
    blocks: list[list[int]] = []
    for s in range(b.n):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        vertices = [s]
        stack = [(s, -1, iter(adj[s]), 0)]
        while stack:
            u, parent, todo, height = stack[-1]
            for v, _ in todo:
                if index[v]:
                    if index[v] < low[u]:
                        low[u] = index[v]
                    continue
                index[v] = low[v] = counter
                counter += 1
                stack.append((v, u, iter(adj[v]), len(vertices)))
                vertices.append(v)
                break
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= index[parent]:
                    blocks.append(sorted([parent, *vertices[height:]]))
                    del vertices[height:]
    return blocks


def distances(g: WeightedGraph, x: int) -> list[float]:
    """Dijkstra from x over the tuple lists; inf where no route exists."""
    adj = adjacency(g)
    dist = [INFINITY] * g.n
    dist[x] = 0.0
    heap = [(0.0, x)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            if not done[v] and d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def enumerate_geodesics(g: WeightedGraph, x: int, y: int, cap: int = 64) -> GeodesicSet:
    """The pruned path walk over the tuple lists, for a connected pair."""
    x, y = _vertex(x, g.n), _vertex(y, g.n)
    target = distances(g, x)[y]
    if x == y:
        return GeodesicSet([Path((x,))], 0.0)
    adj = adjacency(g)
    slack = _sum_slack(g.n, target)
    to_y = distances(g, y)
    limit = target + slack
    paths: list[Path] = []
    truncated = False
    todo: list = [None] * g.n
    walked = [0.0] * g.n
    todo[x] = iter(adj[x])
    path = [x]
    while path and not truncated:
        acc = walked[path[-1]]
        for v, w in todo[path[-1]]:
            if todo[v] is not None:
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
            todo[v] = iter(adj[v])
            walked[v] = length
            path.append(v)
            break
        else:
            todo[path.pop()] = None
    return GeodesicSet(paths, target, truncated)
