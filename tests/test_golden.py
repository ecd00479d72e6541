"""Byte-for-byte pins of CLI output on one seeded fractional graph.

The digests were recorded before the path-metric layer was vectorised (the
``resistance --matrix`` ones before the resistance layer cached its grounded
factors); any change to them means the float pipeline or the rendering moved.
"""

import hashlib
import random

import pytest

from graphmetry.cli import main
from graphmetry.core import serialize_graph
from .suites import random_weighted_graph

DIGESTS = {
    ("geodesic-weight", "--json"): "5e5127c0af1fa6f8cadd695aefd321ac22dd983b514d24009dfa73a191f2ad8f",
    ("geodesic-weight",): "64ac020115db9c4f980ca564484eb14d752648898afce4d058a32703e1ab8fba",
    ("metric", "--all-pairs", "--json"): "6eab71baac71f88deee5c04468b4329f7e7532e1ce9d199e1f378781ae9f7ac7",
    ("characterize", "--tree", "--block", "--json"): "011e8266a1aa2f01dd4c888bb91f085f80cb2d231d3ab447dff98378cb00fd3f",
    ("resistance", "--matrix", "--json"): "7b4846e4dca5c09860c37f436d7b81b46cbeb712a43b6cca6a41783eed2beb00",
    ("resistance", "--matrix", "--mode", "weight", "--json"): "1918e0b270efaf0c9bcfcf123379f45a2de56128087014d323985f6f184e0bbb",
    # Text tables, recorded while tables were still rendered as dicts of dicts.
    ("metric", "--all-pairs"): "048d279df7615a8ed8703cefbaae2e126bc6d56102e0a2564aed45c95768eb24",
    ("resistance", "--matrix"): "76f98f1344d409ddcc18c26ffe8fab21d8b157ed3be06bbdc073a1ec051df4ef",
}


@pytest.fixture(scope="module")
def golden_file(tmp_path_factory):
    g = random_weighted_graph(random.Random(20240), 40)
    path = tmp_path_factory.mktemp("golden") / "golden.edges"
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_cli_output_matches_recorded_digest(golden_file, capsys, argv):
    code = main([argv[0], golden_file, *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]


def _hundredths(rng: random.Random) -> str:
    k = rng.randrange(1, 1001)
    return f"{k // 100}.{k % 100:02d}"


def circulant_c10_1_4() -> str:
    """C10(1,4) with seeded weights on the 0.01 grid: 20 edges, several routes per pair."""
    rng = random.Random(1014)
    edges = {(min(i, (i + s) % 10), max(i, (i + s) % 10)) for i in range(10) for s in (1, 4)}
    return "".join(f"v{u} v{v} {_hundredths(rng)}\n" for u, v in sorted(edges))


def fractional_two_component_8() -> str:
    """Eight vertices in a dense six-vertex block and a separate edge, 0.01-grid values."""
    rng = random.Random(808)
    lines = []
    for u in range(6):
        for v in range(u + 1, 6):
            if (v == u + 1) or rng.random() < 0.6:
                lines.append(f"v{u} v{v} {_hundredths(rng)}\n")
    lines.append(f"v6 v7 {_hundredths(rng)}\n")
    return "".join(lines)


# Recorded while both oracles still enumerated every simple path and every
# spanning forest; the polynomial oracles must print the same rationals.
ORACLE_DIGESTS = {
    ("metric", "--all-pairs", "--oracle", "--json"): (
        circulant_c10_1_4,
        "3001f94ce485b47f95acac0c1e45b6b04f8b0c972afc5a6794c13947bb1d5b7a",
    ),
    ("resistance", "--matrix", "--oracle", "--json"): (
        fractional_two_component_8,
        "b5bd4fb8471a73da617b7825c728eb2201be8161edaf845ec94696d84a962ec9",
    ),
}


@pytest.mark.parametrize("argv", sorted(ORACLE_DIGESTS))
def test_oracle_output_matches_recorded_digest(tmp_path, capsys, argv):
    build, digest = ORACLE_DIGESTS[argv]
    path = tmp_path / "oracle.edges"
    path.write_text(build())
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def two_blocks_at_cut_vertex() -> str:
    """Two six-vertex blocks sharing the cut vertex ``c``: a Hamiltonian cycle
    per block plus seeded chords, 0.01-grid values, so several routes tie in
    hop count and the breadth-first witness order shows."""
    rng = random.Random(4242)
    edges = []
    for block in ("a", "b"):
        names = ["c"] + [f"{block}{i}" for i in range(1, 6)]
        ring = {frozenset((names[i], names[(i + 1) % 6])) for i in range(6)}
        for i, u in enumerate(names):
            for v in names[i + 1 :]:
                if frozenset((u, v)) in ring or rng.random() < 0.4:
                    edges.append(f"{u} {v} {_hundredths(rng)}\n")
    return "".join(edges)


def unit_grid_4x4() -> str:
    """4x4 grid of unit weights: twenty corner-to-corner geodesics, all ties."""
    lines = []
    for r in range(4):
        for c in range(4):
            if c < 3:
                lines.append(f"g{r}{c} g{r}{c + 1} 1\n")
            if r < 3:
                lines.append(f"g{r}{c} g{r + 1}{c} 1\n")
    return "".join(lines)


# Recorded before the graph classes shared a base class and one traversal:
# the triangle certificate, the breadth-first witness path, and the geodesic
# listing (path_metric plus single_source_distances) must keep their order.
ORDER_DIGESTS = {
    ("characterize", "--triangle", "a1", "c", "b2", "--json"): (
        two_blocks_at_cut_vertex,
        "615d3ff71865fd96ffcd74c24b0611a88197ee3e65d277cc9b3b006ee0a96041",
    ),
    ("characterize", "--triangle", "a1", "a3", "b4", "--json"): (
        two_blocks_at_cut_vertex,
        "83afbbd0eeef5c2197de4f455921c99b2cdd88d89132bb74217fe739f3c7474d",
    ),
    ("characterize", "--triangle", "b3", "b5", "a2", "--json"): (
        two_blocks_at_cut_vertex,
        "2b7225c22e717b4141ccb64d820597f1d51fe9bbbc1f81e20fa20ed9a1fdabeb",
    ),
    ("geodesics", "--source", "g00", "--target", "g33", "--json"): (
        unit_grid_4x4,
        "97ff24b0d22150e1d8cbce387b4ee21e3853adb36b8214552ff849e3e8ce21a7",
    ),
    ("geodesics", "--source", "g03", "--target", "g31", "--cap", "3", "--json"): (
        unit_grid_4x4,
        "73851493a737c6327a3bfb9f41c31b292ec974490c619bcd0b36e352b7535a72",
    ),
    ("geodesics", "--source", "a1", "--target", "b3", "--json"): (
        two_blocks_at_cut_vertex,
        "dc7a18b1d132100c352c6ca017a8cee4278d655dbad5f1e782c9daca386b05c3",
    ),
}


@pytest.mark.parametrize("argv", sorted(ORDER_DIGESTS))
def test_traversal_order_matches_recorded_digest(tmp_path, capsys, argv):
    build, digest = ORDER_DIGESTS[argv]
    path = tmp_path / "order.edges"
    path.write_text(build())
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_geodesics_on_the_golden_file_match_recorded_digest(golden_file, capsys):
    code = main(["geodesics", golden_file, "--source", "0", "--target", "33", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4a675170fabd4e62e3c511577885295ce447d09b4391f57359b4f181816cbf0"
    )
