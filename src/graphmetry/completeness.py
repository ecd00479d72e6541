"""Budgeted scans of infinite families, prefix extraction, and the
maximality check of the geodesic weight.

The paper's completeness conditions (finite balls, metric and geodesic
completeness, essential local finiteness) all hold on every finite graph, so
only infinite graphs can tell them apart.  Infinite counterexamples (stars
that break ball finiteness, rays whose total length converges) cannot be
checked, only witnessed: the family scans enumerate a budget-bounded
truncation and report evidence, never proofs.
:func:`extract_common_prefix_path` is the finite analog of the pigeonhole
step that extracts an infinite path from an infinite path set: descend the
prefix tree while at least ``k`` inputs still share the prefix.
:func:`verify_maximal_weight` checks that the geodesic weight regenerates
the metric and dominates the input weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .core import INFINITY, Path, WeightedGraph
from .errors import DuplicatePath, EmptyInput, InvalidArgument, MixedStart, TooLarge, UnknownVertex
from .pathmetric import (
    GeodesicWeight,
    all_pairs_metric,
    geodesic_weight,
    is_generating,
    metric_components,  # importable from this module too
    path_length,
    single_source_distances,
)

SCAN_BUDGET_CAP = 2000

BOUNDED_SO_FAR = "BOUNDED_SO_FAR"
EXCEEDS_THRESHOLD = "EXCEEDS_THRESHOLD"


@dataclass(frozen=True)
class GraphFamily:
    """A countable graph given by a vertex stream and a symmetric weight oracle.

    ``stream()`` enumerates distinct nonnegative vertex descriptors
    deterministically; ``weight`` must be symmetric and zero exactly on
    equal descriptors.  ``earlier(v)`` lists the neighbours of ``v`` (the
    descriptors at finite weight from it) that ``stream()`` yields before
    ``v``, so a truncation finds every finite pair without testing the
    others.  Scans only ever look at budget-bounded truncations.
    """

    name: str
    stream: Callable[[], Iterator[int]]
    weight: Callable[[int, int], float]
    describe: Callable[[int], str]
    earlier: Callable[[int], Iterable[int]]

    def truncate(self, budget: int) -> tuple[list[int], WeightedGraph]:
        """First ``budget`` vertices and the induced finite weighted graph.

        One weight call per pair of a vertex and an earlier neighbour inside
        the prefix: O(budget + edges).
        """
        if budget < 1:
            raise InvalidArgument("budget must be positive")
        if budget > SCAN_BUDGET_CAP:
            raise TooLarge(f"scan budget capped at {SCAN_BUDGET_CAP}")
        vertices = list(itertools.islice(self.stream(), budget))
        index = {v: i for i, v in enumerate(vertices)}
        weights: dict[tuple[int, int], float] = {}
        for j, v in enumerate(vertices):
            for u in self.earlier(v):
                i = index.get(u)
                if i is not None:
                    w = self.weight(u, v)
                    if math.isfinite(w):
                        weights[(i, j)] = w
        labels = tuple(self.describe(v) for v in vertices)
        return vertices, WeightedGraph(len(vertices), weights, labels)


def _tiny_floor(compute: Callable[[], float]) -> float:
    """Evaluate a decaying step weight, keeping it positive when it under-
    or overflows float range (weights must stay definite off the diagonal)."""
    try:
        w = compute()
    except OverflowError:
        return 5e-324
    return w if w > 0.0 else 5e-324


def _star_weight(decay: bool) -> Callable[[int, int], float]:
    def w(a: int, b: int) -> float:
        if a == b:
            return 0.0
        if a != 0 and b != 0:
            return INFINITY
        leaf = max(a, b)
        return _tiny_floor(lambda: 1.0 / leaf) if decay else 1.0

    return w


def _ray_weight(decay: bool) -> Callable[[int, int], float]:
    def w(a: int, b: int) -> float:
        if a == b:
            return 0.0
        if abs(a - b) != 1:
            return INFINITY
        step = max(a, b)  # the step arriving at vertex k has weight 2^-k
        return _tiny_floor(lambda: math.ldexp(1.0, -step)) if decay else 1.0

    return w


def _star_label(v: int) -> str:
    return "center" if v == 0 else f"leaf{v}"


def _ray_label(v: int) -> str:
    return f"x{v}"


def _star_earlier(v: int) -> tuple[int, ...]:
    return () if v == 0 else (0,)


def _ray_earlier(v: int) -> tuple[int, ...]:
    return () if v == 0 else (v - 1,)


UNIT_STAR = GraphFamily(
    "unit-star", itertools.count, _star_weight(False), _star_label, _star_earlier
)
DECAYING_STAR = GraphFamily(
    "decaying-star", itertools.count, _star_weight(True), _star_label, _star_earlier
)
UNIT_RAY = GraphFamily("unit-ray", itertools.count, _ray_weight(False), _ray_label, _ray_earlier)
DECAYING_RAY = GraphFamily(
    "decaying-ray", itertools.count, _ray_weight(True), _ray_label, _ray_earlier
)

FAMILIES: dict[str, GraphFamily] = {
    f.name: f for f in (UNIT_STAR, DECAYING_STAR, UNIT_RAY, DECAYING_RAY)
}


@dataclass
class BallScan:
    """Budgeted evidence about the ball B_R(center) of an infinite family."""

    center: int
    radius: float
    found: int
    budget: int
    verdict: str


@dataclass
class ElfReport:
    """Count of vertices whose direct weight from ``vertex`` is below ``radius``."""

    vertex: int
    radius: float
    count: int
    exhausted: bool
    verdict: str


def _scan_threshold(budget: int, threshold: int | None, radius: float) -> int:
    """Check a scan's arguments; the count that means EXCEEDS_THRESHOLD
    (default: the budget itself)."""
    if budget < 1:
        raise InvalidArgument("budget must be positive")
    thr = budget if threshold is None else threshold
    if thr < 1:
        raise InvalidArgument("threshold must be positive")
    if not radius >= 0:  # also rejects NaN
        raise InvalidArgument(f"radius must be nonnegative, got {radius}")
    return thr


def family_ball_scan(
    fam: GraphFamily,
    center: int,
    radius: float,
    budget: int,
    threshold: int | None = None,
) -> BallScan:
    """Count vertices at distance <= radius from center within a truncation.

    Distances are computed on the budget-vertex truncated subgraph, so they
    are upper bounds on the true distances; for the builtin stars and rays
    (unique routes) they are exact.  The verdict reports whether the count
    reached ``threshold`` (default: the budget itself) — evidence of an
    infinite ball, never a proof.
    """
    thr = _scan_threshold(budget, threshold, radius)
    vertices, g = fam.truncate(budget)
    try:
        src = vertices.index(center)
    except ValueError:
        raise UnknownVertex(f"center {center} not among the first {budget} vertices")
    dist = single_source_distances(g, src)
    found = int((dist <= radius).sum())
    verdict = EXCEEDS_THRESHOLD if found >= thr else BOUNDED_SO_FAR
    return BallScan(center=center, radius=radius, found=found, budget=budget, verdict=verdict)


def family_elf_scan(
    fam: GraphFamily,
    x: int,
    radius: float,
    budget: int,
    threshold: int | None = None,
) -> ElfReport:
    """Count enumerated y with direct weight w(x, y) < radius.

    Scans the first ``budget`` candidates other than x itself; families are
    infinite, so ``exhausted`` is always false and a count at threshold
    (default: the budget) is evidence — not proof — that essential local
    finiteness fails at x.
    """
    thr = _scan_threshold(budget, threshold, radius)
    if x < 0:  # descriptors are nonnegative; the weight is undefined off the family
        raise UnknownVertex(f"vertex {x} is not a vertex of {fam.name}")
    count = 0
    seen = 0
    for y in fam.stream():
        if y == x:
            continue
        if fam.weight(x, y) < radius:
            count += 1
        seen += 1
        if seen >= budget:
            break
    verdict = EXCEEDS_THRESHOLD if count >= thr else BOUNDED_SO_FAR
    return ElfReport(vertex=x, radius=radius, count=count, exhausted=False, verdict=verdict)


class PrefixTrie:
    """Prefix tree of paths; each node knows how many inputs pass through it."""

    __slots__ = ("vertex", "multiplicity", "children")

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        self.multiplicity = 0
        self.children: dict[int, "PrefixTrie"] = {}

    def insert(self, suffix: tuple[int, ...]) -> None:
        node = self
        node.multiplicity += 1
        for head in suffix:
            child = node.children.get(head)
            if child is None:
                child = node.children[head] = PrefixTrie(head)
            child.multiplicity += 1
            node = child

    @classmethod
    def build(cls, paths: list[Path]) -> "PrefixTrie":
        if not paths:
            raise EmptyInput("need at least one path")
        seen: set[tuple[int, ...]] = set()
        for p in paths:
            if p.vertices in seen:
                raise DuplicatePath(f"path {p.vertices} given twice; paths form a set")
            seen.add(p.vertices)
        start = paths[0].start
        for p in paths:
            if p.start != start:
                raise MixedStart(
                    f"paths start at both {start} and {p.start}; a common root is required"
                )
        root = cls(start)
        for p in paths:
            root.insert(p.vertices[1:])
        return root


@dataclass
class PrefixExtraction:
    """Greedily extracted common prefix with per-level multiplicities."""

    path: Path
    multiplicities: list[int]
    length: float


def extract_common_prefix_path(
    paths: list[Path],
    w: WeightedGraph | Callable[[int, int], float],
    k: int = 2,
) -> PrefixExtraction:
    """Descend the prefix tree along minimum-vertex children of multiplicity >= k.

    The finite analog of extracting an infinite path from an infinite path
    set by pigeonhole: at each level, some continuation is shared by many
    paths; we take the least such vertex and record how many inputs still
    agree.  The result is a prefix of at least ``k`` input paths at every
    level, and its length never exceeds the longest input length.
    """
    if k < 2:
        raise InvalidArgument("multiplicity threshold must be at least 2")
    root = PrefixTrie.build(paths)
    prefix = [root.vertex]
    mults = [root.multiplicity]
    node = root
    while True:
        candidates = [v for v, child in node.children.items() if child.multiplicity >= k]
        if not candidates:
            break
        nxt = min(candidates)
        node = node.children[nxt]
        prefix.append(nxt)
        mults.append(node.multiplicity)
    path = Path(tuple(prefix))
    if isinstance(w, WeightedGraph):
        length = path_length(w, path)
    else:
        length = 0.0
        for u, v in path.steps():
            length += w(u, v)
    return PrefixExtraction(path=path, multiplicities=mults, length=length)


@dataclass
class MaximalWeightReport:
    """Does the geodesic weight generate the metric and dominate the input weight?"""

    generates: bool
    dominates: bool
    witnesses: list[tuple[int, int]] = field(default_factory=list)
    weight: GeodesicWeight | None = None

    @property
    def passed(self) -> bool:
        return self.generates and self.dominates


def verify_maximal_weight(g: WeightedGraph) -> MaximalWeightReport:
    """Check the two halves of the maximality characterization of w_delta.

    With t the metric of g and W = geodesic_weight(t): (a) W generates t
    again, and (b) g's own weight never exceeds W on pairs where it is
    finite (W is inf, hence dominating, wherever the direct pair is not the
    unique geodesic).  Witnesses list the offending pairs of (b); the
    report carries W itself as ``weight``.  t is the one fixpoint closure;
    W is found from g's tight edges and (a) reads one min-plus sweep.
    """
    t = all_pairs_metric(g)
    W = geodesic_weight(t, graph=g)
    generates = is_generating(W.as_weight_graph(), t)
    # Stored weights are finite (or NaN, which compares false), keys sorted.
    witnesses = [(x, y) for (x, y), w in g.weights.items() if x < y and w > W.table[x, y]]
    return MaximalWeightReport(
        generates=generates, dominates=not witnesses, witnesses=witnesses, weight=W
    )

