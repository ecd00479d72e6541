"""The four workloads: seeded inputs, the op each input feeds, and its check.

A workload is a list of phases; a phase is a list of ops built from a fixed
cycle of slots.  Sizes are fixed per slot and the seed varies structure,
values, vertex order and queries, so per-op layer counts are the same for
every whole cycle and latency percentiles compare across seeds.  The CLI
workloads give every op its own file (nothing repeats inside a process);
only ``resistance-session`` reuses one graph per phase, because reuse is
what it measures.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import graphmetry as gm
import graphmetry.cli as gcli

import check
import corpus
from corpus import Graph, label

# Upper bound on cycles per phase, enough for a 25 s run on a host twice as
# fast as a 2-vCPU cloud VM; a run stops earlier when its time is up.
MAX_CYCLES = {"pathmetric-cli": 32, "resistance-cli": 36, "exact-small": 56, "resistance-session": 150}
WORKLOADS = tuple(MAX_CYCLES)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # timed
    check: Callable[[object], None]  # untimed; raises when the output is wrong
    graph: Graph | None = None
    cli: bool = False  # run returns (exit code, stdout)
    slot: str = ""  # ops of one slot do the same work up to the seed; see run.slot


@dataclass
class Phase:
    ops: list[Op]
    cycle: int  # ops per cycle


WarmUp = Callable[[random.Random, "Files"], Op]


@dataclass
class Workload:
    phases: list[Phase]
    warm_ups: list[Op]  # one per repeated set-up, each on an input of its own
    setup_calls: list  # program calls made while building: (function, args, kwargs)

    def replay_setup(self) -> float:
        """Makes the build's program calls again; returns their wall time."""
        t0 = time.perf_counter()
        for fn, args, kwargs in self.setup_calls:
            fn(*args, **kwargs)
        return time.perf_counter() - t0


# The program calls of the workload being built; see ``program``.
_setup_calls: list = []


def program(fn, *args, **kwargs):
    """A call to the program while building a workload: it is set-up work,
    recorded so that each repeated set-up can time it again."""
    _setup_calls.append((fn, args, kwargs))
    return fn(*args, **kwargs)


def cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI command; stdout is captured, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = gcli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def cli_op(kind: str, argv: list[str], g: Graph | None, verify: Callable[[int, str], None]) -> Op:
    return Op(kind, lambda: cli(argv), lambda result: verify(*result), g, cli=True)


class Files:
    """Writes each generated graph to its own file under the work directory."""

    def __init__(self, root: str, rng: random.Random) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.rng = rng
        self.count = 0

    def __call__(self, g: Graph) -> Graph:
        self.count += 1
        corpus.write_graph(g, os.path.join(self.root, f"g{self.count:05d}.txt"), self.rng)
        return g


def spread(bands: list[list]) -> list:
    """One cycle: each band's items spread evenly through it, so that any
    stretch of the stream holds the bands in about their cycle shares and a
    slow spell of the host hits every slot alike."""
    keyed = [((i + 0.5) / len(band), b, item) for b, band in enumerate(bands) for i, item in enumerate(band)]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


# -- pathmetric-cli ----------------------------------------------------------

# Weights are tenths 0.1-3.0 (scale 10) or integers 1-5 (scale 1).  Per
# cycle of 17: five fast ops (metric, geodesics, characterize at n=100),
# six geodesic-weight ops at n=80, and six at n=100, two of them with
# integer weights.
GW_MEDIAN_BAND = (80, (10,) * 6)
GW_TOP_BAND = (100, (1, 1, 10, 10, 10, 10))
FAST_N = 100


def gw_op(rng: random.Random, files: Files, n: int, scale: int) -> Op:
    g = files(corpus.sparse_graph(rng, n, 8, scale, top=5))
    return cli_op(
        "geodesic-weight", ["geodesic-weight", g.path, "--json"], g,
        lambda rc, t: check.geodesic_weight(g, rc, t))


def metric_op(rng: random.Random, files: Files, n: int, scale: int) -> Op:
    g = files(corpus.sparse_graph(rng, n, 8, scale, top=5))
    return cli_op(
        "metric", ["metric", g.path, "--all-pairs", "--json"], g,
        lambda rc, t: check.metric_table(g, rc, t))


def geodesics_op(rng: random.Random, files: Files, n: int, scale: int) -> Op:
    g = files(corpus.sparse_graph(rng, n, 8, scale, top=5))
    g.query = corpus.distinct(rng, n, 2)
    return cli_op(
        "geodesics", ["geodesics", g.path, "--source", label(g.query[0]), "--target", label(g.query[1])], g,
        lambda rc, t: check.geodesics_text(g, rc, t))


def characterize_op(rng: random.Random, files: Files, n: int, cycle: int) -> Op:
    """Inputs rotate through random graphs, trees and block graphs."""
    if cycle % 3 == 0:
        g = corpus.sparse_graph(rng, n, 8, 10)
    else:
        g = (corpus.tree_graph, corpus.block_graph)[cycle % 3 - 1](rng, n, 10)
    files(g)
    return cli_op(
        "characterize", ["characterize", g.path, "--tree", "--block", "--json"], g,
        lambda rc, t: check.characterize_tree_block(g, rc, t))


def pathmetric_cli(rng: random.Random, files: Files, cycles: int) -> tuple[list[Phase], WarmUp]:
    ops: list[Op] = []
    for c in range(cycles):
        ops += spread([
            [metric_op(rng, files, FAST_N, s) for s in (10, 1)],
            [geodesics_op(rng, files, FAST_N, s) for s in (10, 1)],
            [characterize_op(rng, files, FAST_N, c)],
            [gw_op(rng, files, GW_MEDIAN_BAND[0], s) for s in GW_MEDIAN_BAND[1]],
            [gw_op(rng, files, GW_TOP_BAND[0], s) for s in GW_TOP_BAND[1]],
        ])
    return [Phase(ops, len(ops) // cycles)], lambda r, f: gw_op(r, f, GW_MEDIAN_BAND[0], 10)


# -- resistance-cli ----------------------------------------------------------

PAIR_N = 200
MEDIAN_COMPONENTS = 60  # components of 2-3 vertices, so n is about 150
TOP_N = 180


def matrix_op(g: Graph) -> Op:
    return cli_op(
        "resistance-matrix", ["resistance", g.path, "--matrix", "--json"], g,
        lambda rc, t: check.resistance_table(g, rc, t))


def pair_op(rng: random.Random, files: Files, n: int) -> Op:
    g = files(corpus.sparse_graph(rng, n, 8, 10, pendant_share=0.1))
    g.query = corpus.distinct(rng, n, 2)
    return cli_op(
        "resistance-pair", ["resistance", g.path, "--pair", *map(label, g.query), "--maximizer", "--json"], g,
        lambda rc, t: check.resistance_pair(g, rc, t))


def triangle_op(rng: random.Random, files: Files, n: int, separated: bool) -> Op:
    g = files(corpus.sparse_graph(rng, n, 8, 10, pendant_share=0.1))
    g.query = corpus.separated_triple(rng, g) if separated else corpus.distinct(rng, n, 3)
    return cli_op(
        "triangle", ["characterize", g.path, "--triangle", *map(label, g.query), "--json"], g,
        lambda rc, t: check.characterize_triangle(g, rc, t))


def resistance_cli(rng: random.Random, files: Files, cycles: int) -> tuple[list[Phase], WarmUp]:
    ops: list[Op] = []
    for _ in range(cycles):
        ops += spread([
            [pair_op(rng, files, PAIR_N) for _ in range(3)],
            [triangle_op(rng, files, PAIR_N, separated) for separated in (True, False)],
            [matrix_op(files(corpus.many_components(rng, MEDIAN_COMPONENTS, 10))) for _ in range(6)],
            [matrix_op(files(corpus.sparse_graph(rng, TOP_N, 8, 10))) for _ in range(5)],
        ])
    return [Phase(ops, len(ops) // cycles)], lambda r, f: matrix_op(f(corpus.sparse_graph(r, TOP_N, 8, 10)))


# -- exact-small -------------------------------------------------------------

# Fixed vertex-transitive topologies (n, jumps): the oracles enumerate all
# simple paths or spanning forests, whose number depends on the topology
# alone, so an oracle op costs the same for every seed.
ORACLE_METRIC = (10, (1, 4))
ORACLE_RESISTANCE = (8, (1, 4))
FAMILY_NAMES = ("unit-star", "decaying-star", "unit-ray", "decaying-ray")
# Radii stay clear of the families' distance values, so float and exact agree.
FAMILY_RADII = ("0.3183", "0.7071", "1.4142", "2.5")
BALL_BUDGET = 600
ELF_BUDGET = 2000
GRIDS = ((5, 6), (6, 6))


def metric_oracle_op(rng: random.Random, files: Files) -> Op:
    g = files(corpus.circulant_graph(rng, *ORACLE_METRIC, 10))
    return cli_op(
        "metric-oracle", ["metric", g.path, "--all-pairs", "--oracle", "--json"], g,
        lambda rc, t: check.metric_oracle(g, rc, t))


def resistance_oracle_op(rng: random.Random, files: Files) -> Op:
    g = files(corpus.circulant_graph(rng, *ORACLE_RESISTANCE, 10))
    g.query = corpus.distinct(rng, g.n, 2)
    return cli_op(
        "resistance-oracle", ["resistance", g.path, "--pair", *map(label, g.query), "--oracle", "--json"], g,
        lambda rc, t: check.resistance_oracle(g, rc, t))


def family_op(rng: random.Random, name: str, mode: str) -> Op:
    center = rng.choice((0, rng.randint(1, 40)))
    radius = rng.choice(FAMILY_RADII)
    budget = BALL_BUDGET if mode == "ball" else ELF_BUDGET
    argv = ["family", name, "--mode", mode, "--center", str(center), "--radius", radius, "--budget", str(budget), "--json"]
    return cli_op(
        f"family-{mode}", argv, None,
        lambda rc, t: check.family_scan(name, mode, center, radius, budget, rc, t))


def exact_small(rng: random.Random, files: Files, cycles: int) -> tuple[list[Phase], WarmUp]:
    ops: list[Op] = []
    for _ in range(cycles):
        ops += spread([
            [family_op(rng, name, "elf") for name in FAMILY_NAMES],
            [prefix_op(rng, files(corpus.grid_graph(rng, *grid))) for grid in GRIDS],
            [resistance_oracle_op(rng, files) for _ in range(10)],
            [family_op(rng, name, "ball") for name in FAMILY_NAMES],
            [metric_oracle_op(rng, files) for _ in range(5)],
        ])
    return [Phase(ops, len(ops) // cycles)], metric_oracle_op


def prefix_op(rng: random.Random, g: Graph, cap: int = 100) -> Op:
    """Library op: geodesics between opposite grid corners, then their common prefix."""
    with open(g.path, encoding="utf-8") as handle:
        parsed = program(gm.parse_graph, handle.read())
    ids = {name: i for i, name in enumerate(parsed.labels)}
    to_gen = [corpus.vertex(name) for name in parsed.labels]
    s, t = 0, g.n - 1
    k = rng.choice((2, 3))

    def run():
        found = gm.enumerate_geodesics(parsed, ids[label(s)], ids[label(t)], cap=cap)
        return found, gm.extract_common_prefix_path(found.paths, parsed, k=k)

    def verify(result) -> None:
        found, extraction = result
        paths = [list(p.vertices) for p in found.paths]
        check.geodesic_set(g, s, t, [[to_gen[v] for v in p] for p in paths], found.truncated, cap)
        check.prefix_extraction(
            g, to_gen, paths, k, list(extraction.path.vertices), extraction.multiplicities, extraction.length)

    return Op("prefix", run, verify, g)


# -- resistance-session ------------------------------------------------------

SESSION_N = (300, 600)
# Per cycle of 20 ops: 40% resistance, 20% maximizer, 15% triangle,
# 15% separation, 10% edits.
SESSION_CYCLE = spread([
    ["resistance"] * 8, ["maximizer"] * 4, ["triangle"] * 3, ["separates"] * 3, ["edit"] * 2,
])


class Session:
    """One parsed conductance graph, edited in place by the op stream, beside
    the reference state the checks read."""

    def __init__(self, g: Graph) -> None:
        with open(g.path, encoding="utf-8") as handle:
            self.graph = program(gm.parse_graph, handle.read(), mode="conductance")
        self.gid = {corpus.vertex(name): i for i, name in enumerate(self.graph.labels)}
        self.gen = [corpus.vertex(name) for name in self.graph.labels]
        self.conductance = check.conductances(g)
        self.reference = check.GroundedLU(g.n, self.conductance)
        self.nx = check.nx_graph(g)

    def ids(self, *vertices: int) -> list[int]:
        return [self.gid[v] for v in vertices]


def session_ops(rng: random.Random, g: Graph, s: Session, cycles: int) -> list[Op]:
    values = dict(zip(g.edges, g.values))  # conductances as the stream will leave them
    ops: list[Op] = []
    triples = 0
    for _ in range(cycles):
        for kind in SESSION_CYCLE:
            if kind == "edit":
                e = rng.choice(g.edges)
                values[e] = rng.choice([c for c in (1, 2, 3) if c != values[e]])
                ops.append(edit_op(s, e, values[e]))
            elif kind in ("resistance", "maximizer"):
                ops.append(query_op(s, kind, *corpus.distinct(rng, g.n, 2)))
            else:  # every other triple is separated
                triples += 1
                triple = corpus.separated_triple(rng, g) if triples % 2 else corpus.distinct(rng, g.n, 3)
                ops.append(query_op(s, kind, *triple))
    return ops


def edit_op(s: Session, e: tuple[int, int], value: int) -> Op:
    key = gm.edge_key(*s.ids(*e))

    def run():
        b = dict(s.graph.b)
        b[key] = float(value)
        s.graph = gm.ConductanceGraph(s.graph.n, b, s.graph.labels)
        return s.graph

    def verify(result) -> None:
        s.reference.set(*e, float(value))
        check.expect(len(result.b) == len(s.conductance), "edit changed the edge count")
        check.expect(all(result.conductance(*s.ids(*f)) == c for f, c in s.conductance.items()), "edit conductances")

    return Op("edit", run, verify, slot=f"edit n={len(s.gen)}")


def query_op(s: Session, kind: str, *vertices: int) -> Op:
    args = s.ids(*vertices)

    def run():
        if kind == "resistance":
            return gm.effective_resistance(s.graph, *args)
        if kind == "maximizer":
            return gm.harmonic_maximizer(s.graph, *args)
        if kind == "triangle":
            return gm.check_triangle_equality(s.graph, *args)
        x, y, z = args
        return gm.separates(s.graph, y, x, z)

    def verify(result) -> None:
        R = s.reference.resistance
        if kind == "resistance":
            check.expect(check.close(result, R(*vertices)), "R differs")
        elif kind == "maximizer":
            f = result.values[s.ids(*range(len(s.gen)))]
            check.maximizer(s.conductance, *vertices, R(*vertices), f)
        elif kind == "triangle":
            report = (result.lhs, result.rhs, result.equal, result.separated, result.consistent)
            check.triangle_verdict(s.nx, R, *vertices, report)
        else:
            x, y, z = vertices
            if hasattr(result, "witness"):
                cert = {"witness": [s.gen[v] for v in result.witness]}
            else:
                cert = {
                    "separator": s.gen[result.separator],
                    "side_x": [s.gen[v] for v in result.side_x],
                    "side_z": [s.gen[v] for v in result.side_z],
                    "verified": result.verified,
                }
            check.separation(s.nx, x, y, z, cert)

    return Op(kind, run, verify, slot=f"{kind} n={len(s.gen)}")


def resistance_session(rng: random.Random, files: Files, cycles: int) -> tuple[list[Phase], WarmUp]:
    phases, sessions = [], []
    for n in SESSION_N:
        g = files(corpus.sparse_graph(rng, n, 8, 1, top=3, pendant_share=0.1))
        sessions.append(Session(g))
        phases.append(Phase(session_ops(rng, g, sessions[-1], cycles), len(SESSION_CYCLE)))
    first = sessions[0]
    return phases, lambda r, f: query_op(first, "resistance", *corpus.distinct(r, len(first.gen), 2))


MAKERS = {
    "pathmetric-cli": pathmetric_cli,
    "resistance-cli": resistance_cli,
    "exact-small": exact_small,
    "resistance-session": resistance_session,
}


def build(name: str, seed: int, workdir: str, warm_ups: int = 1) -> Workload:
    """Generate, write and parse everything the workload needs, and
    ``warm_ups`` warm-up ops, one for each repeated set-up."""
    rng = random.Random(f"{name}:{seed}")
    files = Files(os.path.join(workdir, "corpus"), rng)
    _setup_calls.clear()
    phases, warm_up = MAKERS[name](rng, files, MAX_CYCLES[name])
    ops = []
    for rep in range(warm_ups):
        warm_rng = random.Random(f"{name}:{seed}:warm-up:{rep}")
        ops.append(warm_up(warm_rng, Files(os.path.join(workdir, f"warm-up{rep}"), warm_rng)))
    return Workload(phases, ops, list(_setup_calls))
