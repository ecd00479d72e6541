"""Budgeted scans of infinite families, prefix extraction, and the
maximality check of the geodesic weight.

The paper's completeness conditions (finite balls, metric and geodesic
completeness, essential local finiteness) all hold on every finite graph, so
only infinite graphs can tell them apart.  Infinite counterexamples (stars
that break ball finiteness, rays whose total length converges) cannot be
checked, only witnessed: the family scans enumerate a budget-bounded
truncation and report evidence, never proofs.  Every family is a tree on
the naturals rooted at 0, given by each vertex's parent and the weight of
the step up to it.  The ball scan reads a truncation as that tree (one
``parent``, ``step`` and ``describe`` call per vertex) and walks it out from
the center; the elf scan reads parents and steps directly.
:meth:`GraphFamily.truncate` remains the library's view of a truncation as a
:class:`WeightedGraph`.
:func:`extract_common_prefix_path` is the finite analog of the pigeonhole
step that extracts an infinite path from an infinite path set: level by
level, follow the least next vertex that at least ``k`` of the paths still on
the prefix share.
:func:`verify_maximal_weight` checks that the geodesic weight regenerates
the metric and dominates the input weight.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .core import INFINITY, Path, WeightedGraph, _count, _first_text, _index
from .errors import DuplicatePath, EmptyInput, InvalidArgument, MixedStart, TooLarge, UnknownVertex
from .pathmetric import GeodesicWeight, _first_mismatch, _out_of_range, all_pairs_metric, geodesic_weight, path_length

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
        earlier one is its parent, inf otherwise.  Raises UnknownVertex for
        anything but a natural: the vertices are the naturals."""
        a, b = sorted((_natural(self, a), _natural(self, b)))
        if a == b:
            return 0.0
        return self.step(b) if self.parent(b) == a else INFINITY

    def truncate(self, budget: int) -> WeightedGraph:
        """The finite weighted graph induced on ``range(budget)``: one pass
        over its vertices v > 0, each with the edge to its parent."""
        budget = _count(budget, "budget")
        if budget > SCAN_BUDGET_CAP:
            raise TooLarge(f"scan budget capped at {SCAN_BUDGET_CAP}")
        weights = {(self.parent(v), v): self.step(v) for v in range(1, budget)}
        labels = tuple(self.describe(v) for v in range(budget))
        return WeightedGraph(budget, weights, labels)


def _natural(fam: GraphFamily, u: int) -> int:
    """``u`` as a vertex of ``fam``: a natural, read as construction reads a
    vertex id; UnknownVertex otherwise."""
    i = _index(u)
    if i is None or i < 0:
        raise UnknownVertex(f"vertex {u!r} is not a vertex of {fam.name}")
    return i


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


def _scan_counts(budget: int, threshold: int | None, radius: float) -> tuple[int, int]:
    """Check a scan's arguments; the budget, and the count that means
    EXCEEDS_THRESHOLD (default: the budget itself)."""
    budget = _count(budget, "budget")
    thr = budget if threshold is None else _count(threshold, "threshold")
    if not radius >= 0:  # also rejects NaN
        raise InvalidArgument(f"radius must be nonnegative, got {radius}")
    if budget > SCAN_BUDGET_CAP:
        raise TooLarge(f"scan budget capped at {SCAN_BUDGET_CAP}")
    return budget, thr


def _refused(fam: GraphFamily, budget: int, problem: str) -> InvalidArgument:
    """The error for values the walk cannot use: construction's own, raised
    by :meth:`GraphFamily.truncate`, where it refuses them; otherwise
    InvalidArgument naming ``problem``."""
    fam.truncate(budget)
    return InvalidArgument(f"{fam.name}: {problem}")


def _rooted_tree(fam: GraphFamily, budget: int) -> tuple[list, list[float], list[list[int]], list]:
    """The truncation to ``range(budget)`` as a rooted tree: per vertex its
    parent, its step and its children, and its label (vertex 0 has no parent
    and no step).

    Makes the calls :meth:`GraphFamily.truncate` makes, in its order: one
    ``parent`` and one ``step`` per v = 1 ... budget-1, then one ``describe``
    per vertex.  Values construction refuses (a step that is text, NaN or
    negative, duplicate labels, a parent that is no vertex of the truncation) raise
    truncate's error; a parent outside [0, v) that construction accepts
    breaks the contract and raises InvalidArgument.
    """
    parent, step = fam.parent, fam.step
    ups, steps = [-1], [0.0]
    kids: list[list[int]] = [[] for _ in range(budget)]
    for v in range(1, budget):
        p = parent(v)
        ups.append(p)
        steps.append(step(v))
        try:
            if 0 <= p < v:
                kids[p].append(v)
                continue
        except TypeError:  # a parent that no integer compares with, or no index
            pass
        raise _refused(fam, budget, f"parent({v}) = {p!r} is not in [0, {v})")
    labels = [fam.describe(v) for v in range(budget)]
    w = list(map(float, steps))
    # float() returns a float itself, so only steps of other types make w differ.
    if not all(map((0.0).__le__, w)) or (w != steps and _first_text(steps) >= 0):
        raise _refused(fam, budget, "a step is NaN, negative or text")
    if len(set(labels)) < budget:
        raise _refused(fam, budget, "duplicate vertex labels")
    return ups, w, kids, labels


def family_ball_scan(
    fam: GraphFamily,
    center: int,
    radius: float,
    budget: int,
    threshold: int | None = None,
) -> BallScan:
    """Count vertices at distance <= radius from center within a truncation.

    Distances are taken in the budget-vertex truncation, so they are upper
    bounds on the true distances; for the builtin stars and rays (unique
    routes) they are exact.  The truncation is read as a tree in one pass
    (:meth:`GraphFamily.truncate` stays the library's view of it as a
    graph), and a stack walk out from the center gives each vertex its
    neighbour's distance plus one step: the float sum a shortest-path
    search forms on a tree.  An ``inf`` step is no edge.  A vertex whose
    distance overflows raises OutOfRange, naming the least such vertex,
    only when no vertex lies at a finite distance beyond the radius: only
    then would a search in nondecreasing distance run out.  The verdict
    reports whether the count reached ``threshold`` (default: the budget
    itself) — evidence of an infinite ball, never a proof.
    """
    budget, thr = _scan_counts(budget, threshold, radius)
    if _index(center) not in range(budget):
        raise UnknownVertex(f"center {center!r} not among the first {budget} vertices")
    center = _index(center)
    ups, w, kids, labels = _rooted_tree(fam, budget)
    limit = radius if radius < INFINITY else sys.float_info.max  # an overflowed sum is never inside
    found, beyond, over = 0, False, []
    stack = [(center, 0.0, -1)]
    while stack:
        u, d, came = stack.pop()
        found += 1
        # The center and its ancestors step up as well as down.
        near = [ups[u], *kids[u]] if u and ups[u] != came else kids[u]
        for v in near:
            if v != came:
                s = w[v if v > u else u]  # an edge's step is its later end's
                nd = d + s
                if nd <= limit:
                    stack.append((v, nd, u))
                elif nd < INFINITY:
                    beyond = True
                elif s < INFINITY:  # an overflowed sum, not an absent edge
                    over.append(v)
    if over and not beyond:
        raise _out_of_range(labels[center], labels[min(over)])
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
    not proof — that essential local finiteness fails at x.  Of the y below
    x only x's parent is joined to it; of those above, the ones hanging
    from x: one ``parent`` call per y, and a ``step`` call per neighbour.
    """
    budget, thr = _scan_counts(budget, threshold, radius)
    x = _natural(fam, x)  # the weight is undefined off the family
    end = budget + (x <= budget)  # range(end) with x skipped: the first ``budget`` others
    parent, step = fam.parent, fam.step
    count = int(x > 0 and parent(x) in range(min(x, end)) and step(x) < radius)
    count += sum(1 for y in range(x + 1, end) if parent(y) == x and step(y) < radius)
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
    k = _count(k, "multiplicity threshold", 2)
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
    unique geodesic).  Witnesses list the offending pairs of (b) in
    row-major order; the report carries W itself as ``weight``.  t is the
    one fixpoint closure; W is found from g's tight edges.  (a) reads one
    min-plus sweep of W's own table, which is the start table of W's
    weights; W is built as a graph only when that sweep leaves an inf entry
    to classify (a disconnected g, or a sum beyond float range).
    """
    t = all_pairs_metric(g)
    W = geodesic_weight(t, graph=g)
    generates = _first_mismatch(W.as_weight_graph, lambda: t.d, W.table.copy()) is None
    # Stored weights are finite (construction checks), pairs sorted.
    xs, ys = g._ends.T
    over = (xs < ys) & (g._values > W.table[xs, ys])
    witnesses = list(zip(xs[over].tolist(), ys[over].tolist()))
    return MaximalWeightReport(
        generates=generates, dominates=not witnesses, witnesses=witnesses, weight=W
    )
