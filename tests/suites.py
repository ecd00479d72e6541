"""Seeded random graph generators shared across the test modules."""

from __future__ import annotations

import random

from graphmetry import ConductanceGraph, Path, WeightedGraph


def complete_graph_for(paths: list[Path], w: float = 1.0) -> WeightedGraph:
    """Weight w on every pair of the vertices 0 .. max over ``paths``: each
    path's length is w times its step count."""
    n = 1 + max((v for p in paths for v in p), default=0)
    return WeightedGraph(n, {(u, v): w for u in range(n) for v in range(u + 1, n)})


def random_weighted_graph(
    rng: random.Random,
    n: int,
    integer: bool = False,
    inf_prob: float = 0.45,
) -> WeightedGraph:
    """Random symmetric weight map on n vertices.

    Finite weights are drawn from the 0.1 grid (0.1 .. 10.0), or from the
    integers 1 .. 10 when integer=True; pairs are absent (infinite) with
    probability inf_prob.
    """
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < inf_prob:
                continue
            if integer:
                w = float(rng.randint(1, 10))
            else:
                w = rng.randrange(1, 101) / 10.0
            weights[(u, v)] = w
    return WeightedGraph(n, weights)


def random_tree(rng: random.Random, n: int, max_c: int = 3) -> ConductanceGraph:
    """Random labelled tree with integer conductances in 1 .. max_c."""
    b = {}
    for v in range(1, n):
        u = rng.randrange(v)
        b[(u, v)] = float(rng.randint(1, max_c))
    return ConductanceGraph(n, b)


def random_connected_conductance(
    rng: random.Random,
    n: int,
    max_c: int = 3,
    extra: float = 0.3,
) -> ConductanceGraph:
    """Random connected graph: a spanning tree plus extra random edges."""
    b = {}
    for v in range(1, n):
        u = rng.randrange(v)
        b[(u, v)] = float(rng.randint(1, max_c))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in b and rng.random() < extra:
                b[(u, v)] = float(rng.randint(1, max_c))
    return ConductanceGraph(n, b)


def random_nontree(rng: random.Random, n: int, max_c: int = 3) -> ConductanceGraph:
    """Random connected graph guaranteed to contain a cycle (n >= 3)."""
    if n < 3:
        raise ValueError("a connected non-tree needs at least 3 vertices")
    while True:
        g = random_connected_conductance(rng, n, max_c=max_c, extra=0.4)
        if len(g.edges()) >= n:
            return g


def random_block_graph(rng: random.Random, n: int, max_c: int = 3) -> ConductanceGraph:
    """Random connected graph whose blocks are all cliques."""
    b = {}
    used = 1
    anchors = [0]
    while used < n:
        k = min(rng.randint(1, 3), n - used)
        anchor = rng.choice(anchors)
        members = [anchor] + list(range(used, used + k))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                b[(min(u, v), max(u, v))] = float(rng.randint(1, max_c))
        used += k
        anchors.extend(members[1:])
    return ConductanceGraph(n, b)


def random_sparse_weighted_graph(
    rng: random.Random,
    n: int,
    scale: int = 10,
    degree: float = 3.0,
    parts: int = 1,
) -> WeightedGraph:
    """Sparse random weights on ``parts`` blocks of consecutive vertices.

    Each block gets about ``degree * size / 2`` random pairs with weights on
    the 1/scale grid (1/scale .. 10), so blocks never connect to each other
    and a block may itself split.
    """
    cuts = sorted(rng.sample(range(1, n), min(parts, n) - 1)) if n > 1 else []
    bounds = [0, *cuts, n]
    weights = {}
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        for _ in range(round(degree * size / 2) if size > 1 else 0):
            u, v = rng.sample(range(lo, hi), 2)
            weights[(min(u, v), max(u, v))] = rng.randint(1, 10 * scale) / scale
    return WeightedGraph(n, weights)
