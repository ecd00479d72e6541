"""Seeded graph generators and edge-list files for the benchmark workloads.

Every input is made from a ``random.Random`` seeded by the workload seed, so
one seed always gives the same files.  Vertices are ``0 .. n-1`` here and are
written with the labels ``v<i>``; edge lines are shuffled so that the ids the
program assigns (first appearance) differ from the generator's.  Values are
kept as scaled integers (tenths or whole numbers) so the references can do
exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Graph:
    """One generated input: edges with scaled integer values, plus its file."""

    n: int
    edges: list[tuple[int, int]]
    values: list[int]  # value of edge i is values[i] / scale
    scale: int
    path: str = ""
    # Query vertices chosen with the graph (generator ids).
    query: tuple[int, ...] = ()
    structure: str = "random"
    pendant_parent: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def integer(self) -> bool:
        return self.scale == 1

    def descriptor(self) -> dict:
        return {
            "n": self.n,
            "m": len(self.edges),
            "components": component_count(self.n, self.edges),
            "weights": "integer" if self.integer else "fractional",
            "structure": self.structure,
        }


def label(v: int) -> str:
    return f"v{v}"


def vertex(token: str) -> int:
    return int(token[1:])


def _value_text(k: int, scale: int) -> str:
    return str(k) if scale == 1 else f"{k // 10}.{k % 10}"


def write_graph(g: Graph, path: str, rng: random.Random) -> None:
    lines = [
        f"{label(u)} {label(v)} {_value_text(k, g.scale)}" if rng.random() < 0.5
        else f"{label(v)} {label(u)} {_value_text(k, g.scale)}"
        for (u, v), k in zip(g.edges, g.values)
    ]
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    g.path = path


def component_count(n: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _tree(rng: random.Random, vertices: list[int], edges: set) -> dict[int, int]:
    """Random recursive tree over ``vertices`` (in a shuffled order)."""
    order = vertices[:]
    rng.shuffle(order)
    parent = {}
    for i in range(1, len(order)):
        p = order[rng.randrange(i)]
        parent[order[i]] = p
        edges.add(_key(order[i], p))
    return parent


def _values(rng: random.Random, m: int, scale: int, top: int) -> list[int]:
    if scale == 1:
        return [rng.randint(1, top) for _ in range(m)]
    return [rng.randint(1, 10 * top) for _ in range(m)]


def sparse_graph(
    rng: random.Random,
    n: int,
    mean_degree: float,
    scale: int,
    top: int = 3,
    pendant_share: float = 0.0,
) -> Graph:
    """Connected sparse graph: a random tree plus random chords on the core.

    With ``pendant_share`` > 0 that share of the vertices hangs off the core
    in pendant trees, so that some vertices separate others.
    """
    pendants = int(round(n * pendant_share))
    core = n - pendants
    edges: set = set()
    _tree(rng, list(range(core)), edges)
    target = min(core * (core - 1) // 2, int(round(core * mean_degree / 2)))
    while len(edges) < target:
        u, v = rng.randrange(core), rng.randrange(core)
        if u != v:
            edges.add(_key(u, v))
    parent = {}
    for v in range(core, n):
        p = rng.randrange(v)
        parent[v] = p
        edges.add(_key(v, p))
    ordered = sorted(edges)
    return Graph(n, ordered, _values(rng, len(ordered), scale, top), scale, pendant_parent=parent)


def tree_graph(rng: random.Random, n: int, scale: int, top: int = 3) -> Graph:
    edges: set = set()
    _tree(rng, list(range(n)), edges)
    ordered = sorted(edges)
    return Graph(n, ordered, _values(rng, len(ordered), scale, top), scale, structure="tree")


def block_graph(rng: random.Random, n: int, scale: int, top: int = 3) -> Graph:
    """Cliques of 2-4 vertices glued at cut vertices (a connected block graph)."""
    edges: set = set()
    size = 1
    while size < n:
        grow = min(rng.randint(1, 3), n - size)
        members = [rng.randrange(size)] + list(range(size, size + grow))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.add(_key(u, v))
        size += grow
    ordered = sorted(edges)
    return Graph(n, ordered, _values(rng, len(ordered), scale, top), scale, structure="block")


def many_components(rng: random.Random, k: int, scale: int, top: int = 3) -> Graph:
    """``k`` components of two or three vertices (edge, path or triangle)."""
    edges = []
    n = 0
    for _ in range(k):
        size = rng.choice((2, 3))
        vs = list(range(n, n + size))
        n += size
        edges.extend(_key(vs[i - 1], vs[i]) for i in range(1, size))
        if size == 3 and rng.random() < 0.5:
            edges.append(_key(vs[0], vs[2]))
    edges.sort()
    return Graph(n, edges, _values(rng, len(edges), scale, top), scale, structure="components")


def circulant_graph(rng: random.Random, n: int, jumps: tuple[int, ...], scale: int, top: int = 3) -> Graph:
    """Circulant graph C_n(jumps) under a random relabelling.

    The topology is fixed, so exhaustive enumerations over it (simple paths,
    spanning forests) do the same amount of work for every seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted({_key(perm[i], perm[(i + j) % n]) for i in range(n) for j in jumps})
    return Graph(n, edges, _values(rng, len(edges), scale, top), scale, structure=f"circulant{jumps}")


def grid_graph(rng: random.Random, rows: int, cols: int, top: int = 2) -> Graph:
    """Lattice with small integer weights: many geodesics between corners."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    edges.sort()
    values = [1 if rng.random() < 0.8 else rng.randint(1, top) for _ in edges]
    return Graph(rows * cols, edges, values, 1, structure="grid")


def separated_triple(rng: random.Random, g: Graph) -> tuple[int, int, int]:
    """(x, y, z) with y separating x from z: x hangs off y in a pendant tree."""
    x = rng.choice(sorted(g.pendant_parent))
    y = g.pendant_parent[x]
    core = g.n - len(g.pendant_parent)
    z = rng.randrange(core)
    while z == y:
        z = rng.randrange(core)
    return x, y, z


def distinct(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(n), k))
