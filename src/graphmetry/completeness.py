"""Budgeted scans of infinite families, prefix extraction, and the
maximality check of the geodesic weight.

The paper's completeness conditions (finite balls, metric and geodesic
completeness, essential local finiteness) all hold on every finite graph, so
only infinite graphs can tell them apart.  Infinite counterexamples (stars
that break ball finiteness, rays whose total length converges) cannot be
checked, only witnessed: the family scans enumerate a budget-bounded
truncation and report evidence, never proofs.  Every family is a tree on
the naturals rooted at 0, given by each vertex's parent and the weight of
the step up to it.
:func:`extract_common_prefix_path` is the finite analog of the pigeonhole
step that extracts an infinite path from an infinite path set: level by
level, follow the least next vertex that at least ``k`` of the paths still on
the prefix share.
:func:`verify_maximal_weight` checks that the geodesic weight regenerates
the metric and dominates the input weight.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .core import INFINITY, Path, WeightedGraph
from .errors import DuplicatePath, EmptyInput, InvalidArgument, MixedStart, TooLarge, UnknownVertex
from .pathmetric import (
    GeodesicWeight,
    _settle,
    all_pairs_metric,
    geodesic_weight,
    is_generating,
    path_length,
)

SCAN_BUDGET_CAP = 2000

BOUNDED_SO_FAR = "BOUNDED_SO_FAR"
EXCEEDS_THRESHOLD = "EXCEEDS_THRESHOLD"


@dataclass(frozen=True)
class GraphFamily:
    """A countable tree on the naturals 0, 1, 2, ... rooted at 0.

    Each vertex v > 0 hangs from ``parent(v) < v`` by an edge of finite
    positive weight ``step(v)``; no other pair of distinct vertices is
    joined.  A custom family supplies those two functions and ``describe``
    (a vertex's label).  Scans only ever look at budget-bounded truncations.
    """

    name: str
    parent: Callable[[int], int]
    step: Callable[[int], float]
    describe: Callable[[int], str]

    def weight(self, a: int, b: int) -> float:
        """w(a, b): 0 on the diagonal, the later vertex's step when the
        earlier one is its parent, inf otherwise."""
        if a == b:
            return 0.0
        if a > b:
            a, b = b, a
        return self.step(b) if self.parent(b) == a else INFINITY

    def truncate(self, budget: int) -> WeightedGraph:
        """The finite weighted graph induced on ``range(budget)``: one pass
        over its vertices v > 0, each with the edge to its parent."""
        if budget < 1:
            raise InvalidArgument("budget must be positive")
        if budget > SCAN_BUDGET_CAP:
            raise TooLarge(f"scan budget capped at {SCAN_BUDGET_CAP}")
        weights = {(self.parent(v), v): self.step(v) for v in range(1, budget)}
        labels = tuple(self.describe(v) for v in range(budget))
        return WeightedGraph(budget, weights, labels)


def _tiny_floor(step: Callable[[int], float]) -> Callable[[int], float]:
    """A decaying step weight kept positive when it under- or overflows
    float range (weights must stay definite off the diagonal)."""

    def floored(v: int) -> float:
        try:
            w = step(v)
        except OverflowError:
            return 5e-324
        return w if w > 0.0 else 5e-324

    return floored


def _star_label(v: int) -> str:
    return "center" if v == 0 else f"leaf{v}"


def _ray_label(v: int) -> str:
    return f"x{v}"


UNIT_STAR = GraphFamily("unit-star", lambda v: 0, lambda v: 1.0, _star_label)
DECAYING_STAR = GraphFamily(
    "decaying-star", lambda v: 0, _tiny_floor(lambda k: 1.0 / k), _star_label
)
UNIT_RAY = GraphFamily("unit-ray", lambda v: v - 1, lambda v: 1.0, _ray_label)
DECAYING_RAY = GraphFamily(
    "decaying-ray", lambda v: v - 1, _tiny_floor(lambda k: math.ldexp(1.0, -k)), _ray_label
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
    if budget > SCAN_BUDGET_CAP:
        raise TooLarge(f"scan budget capped at {SCAN_BUDGET_CAP}")
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
    (unique routes) they are exact.  Dijkstra settles vertices in
    nondecreasing distance, so the count stops at the first one beyond
    ``radius``; the search runs out only when the radius is inf or the ball
    holds every reachable vertex, and only then raises OutOfRange for a
    vertex whose distance overflows.  The verdict reports whether the count
    reached ``threshold`` (default: the budget itself) — evidence of an
    infinite ball, never a proof.
    """
    thr = _scan_threshold(budget, threshold, radius)
    if not 0 <= center < budget:
        raise UnknownVertex(f"center {center} not among the first {budget} vertices")
    found = 0
    for _, d in _settle(fam.truncate(budget), center):
        if d > radius:
            break
        found += 1
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

    Scans the first ``budget`` vertices other than x itself; families are
    infinite, so a count at threshold (default: the budget) is evidence —
    not proof — that essential local finiteness fails at x.
    """
    thr = _scan_threshold(budget, threshold, radius)
    if x < 0:  # vertices are the naturals; the weight is undefined off the family
        raise UnknownVertex(f"vertex {x} is not a vertex of {fam.name}")
    naturals = range(budget + (x <= budget))  # with x skipped: the first ``budget`` others
    count = sum(1 for y in naturals if y != x and fam.weight(x, y) < radius)
    verdict = EXCEEDS_THRESHOLD if count >= thr else BOUNDED_SO_FAR
    return ElfReport(vertex=x, radius=radius, count=count, verdict=verdict)


@dataclass
class PrefixExtraction:
    """Greedily extracted common prefix with per-level multiplicities."""

    path: Path
    multiplicities: list[int]
    length: float


def extract_common_prefix_path(
    paths: list[Path],
    w: WeightedGraph,
    k: int = 2,
) -> PrefixExtraction:
    """Follow the least next vertex that at least ``k`` paths still share.

    The finite analog of extracting an infinite path from an infinite path
    set by pigeonhole: at each level, some continuation is shared by many
    paths; we take the least such vertex, keep only the paths through it and
    record how many inputs still agree.  The result is a prefix of at least
    ``k`` input paths at every level, and its length never exceeds the
    longest input length.  Each level reads each surviving path once, so the
    descent costs O(total input length).
    """
    if k < 2:
        raise InvalidArgument("multiplicity threshold must be at least 2")
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
    prefix = [start]
    mults = [len(paths)]
    alive = [p.vertices for p in paths]
    while True:
        depth = len(prefix)
        counts = Counter(p[depth] for p in alive if len(p) > depth)
        shared = [v for v, c in counts.items() if c >= k]
        if not shared:
            break
        nxt = min(shared)
        alive = [p for p in alive if len(p) > depth and p[depth] == nxt]
        prefix.append(nxt)
        mults.append(counts[nxt])
    path = Path(tuple(prefix))
    return PrefixExtraction(path=path, multiplicities=mults, length=path_length(w, path))


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
    # Stored weights are finite (construction checks), keys sorted.
    witnesses = [(x, y) for (x, y), w in g.weights.items() if x < y and w > W.table[x, y]]
    return MaximalWeightReport(
        generates=generates, dominates=not witnesses, witnesses=witnesses, weight=W
    )

