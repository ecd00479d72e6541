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
    # Recorded while the maximizer's residual still summed Lf vertex by vertex
    # in a Python loop; the residual's last bits pin its summation order.
    ("resistance", "--pair", "0", "33", "--maximizer", "--json"): "dc73454c5846b591c01d6ca879094b11defdec7d43752a24a41ed58e0a7f2eae",
    ("resistance", "--pair", "0", "33", "--maximizer"): "991010cc38cb9671962a23624d60f26d1216205cba2e022a173215adfbdd30fb",
    ("resistance", "--pair", "0", "33", "--maximizer", "--mode", "weight", "--json"): "6c2a3947d9bfd8433990b290b01ce72fe0e3db534ebe2db174a1a28342e6a64b",
    ("resistance", "--pair", "0", "33", "--maximizer", "--mode", "weight"): "ad96eaa4d4ce7ee70ec7a59d8cf9fe9fe22de4bf58bd178a1dcbe60c1c57138e",
    ("characterize", "--triangle", "0", "17", "33", "--json"): "db19e13ad7a80db5b6665826ba6673a07bc73c73a586132131f02ddd02efdb99",
    ("characterize", "--triangle", "0", "17", "33"): "fbde9602dee62fe71d7b8c882ce225f5103d8d5b54a524df2a57f9e065bef978",
    ("characterize", "--triangle", "0", "17", "33", "--mode", "weight", "--json"): "bebd7d48bcf640e4ca878efb4b48bf813d9073f32372666ea188a09579368b7e",
    ("characterize", "--triangle", "0", "17", "33", "--mode", "weight"): "ff997c819bd1e51c66e4cc48f7328ffcd339f6729ab4a9425d97936b424e9c22",
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


def many_small_components() -> str:
    """Twenty-five components of 2-5 vertices, each a random spanning tree plus
    seeded chords, and a few isolated vertices, 0.01-grid values.  The lines
    are shuffled, so vertex ids interleave across components and sizes."""
    rng = random.Random(2533)
    lines = []
    for comp in range(25):
        names = [f"k{comp}v{i}" for i in range(rng.randint(2, 5))]
        for i in range(1, len(names)):
            parent = rng.randrange(i)
            for j in range(i):
                if j == parent or rng.random() < 0.4:
                    lines.append(f"{names[j]} {names[i]} {_hundredths(rng)}\n")
        if rng.random() < 0.25:
            lines.append(f"vertex k{comp}z\n")
    rng.shuffle(lines)
    return "".join(lines)


# Recorded while resistance_matrix still assembled, factored and inverted one
# component at a time; the size-class stacks must print the same bytes.
COMPONENT_DIGESTS = {
    ("resistance", "--matrix", "--json"): "09ecb7b1d00da98e02d76c5aa36918100cdefef644589cde5eba910a23bbdb7b",
    ("resistance", "--matrix"): "540c359a74bb843d2b155200d42d398d70f4f7f4406754be67ee4ab938177ae9",
}


@pytest.mark.parametrize("argv", sorted(COMPONENT_DIGESTS))
def test_many_small_components_match_recorded_digest(tmp_path, capsys, argv):
    path = tmp_path / "components.edges"
    path.write_text(many_small_components())
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPONENT_DIGESTS[argv]


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


def cycle_blocks_on_a_tree() -> str:
    """Six blocks hung on cut vertices: four cycles with seeded chords (not
    cliques), a triangle and a bridge, 0.01-grid values.  The lines are
    shuffled, so the vertex ids, and with them the order in which the block
    search closes the blocks, do not follow the listing above."""
    rng = random.Random(3131)
    blocks = [
        ["h", "a1", "a2", "a3", "a4"],
        ["a2", "b1", "b2", "b3"],
        ["h", "t1", "t2"],
        ["t1", "p"],
        ["p", "c1", "c2", "c3", "c4", "c5"],
        ["b2", "d1", "d2", "d3"],
    ]
    lines = []
    for names in blocks:
        k = len(names)
        for i, u in enumerate(names):
            for j in range(i + 1, k):
                if k <= 3 or j == i + 1 or (i == 0 and j == k - 1) or rng.random() < 0.2:
                    lines.append(f"{u} {names[j]} {_hundredths(rng)}\n")
    rng.shuffle(lines)
    return "".join(lines)


# Recorded while the block search still kept a stack of edges and gathered
# each block's members in a set: ``offending_block`` names the first
# non-clique block the search closes, so these pin the closing order.
BLOCK_DIGESTS = {
    (two_blocks_at_cut_vertex, True): "c783a75cde9654540862200a4d8ea8cd0eef4eefb04f75d2a0348d6d556e9323",
    (two_blocks_at_cut_vertex, False): "6d5022819533e563f5ff455da8acbdcc6f28f0d36e9c20dd10afdae7dcaadc05",
    (cycle_blocks_on_a_tree, True): "6ad701254a0578a5a9cce6331b4aa5c52d6414676b493fef03901929cce8c1d0",
    (cycle_blocks_on_a_tree, False): "bfd8956a88f727a407d31abae1a69f8c8ba27f5c3ef3199c5b1d35e9c7710092",
}


@pytest.mark.parametrize(
    "build, as_json",
    list(BLOCK_DIGESTS),
    ids=[f"{build.__name__}-{'json' if as_json else 'text'}" for build, as_json in BLOCK_DIGESTS],
)
def test_block_order_matches_recorded_digest(tmp_path, capsys, build, as_json):
    path = tmp_path / "blocks.edges"
    path.write_text(build())
    code = main(["characterize", str(path), "--block"] + (["--json"] if as_json else []))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCK_DIGESTS[build, as_json]


def test_geodesics_on_the_golden_file_match_recorded_digest(golden_file, capsys):
    code = main(["geodesics", golden_file, "--source", "0", "--target", "33", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4a675170fabd4e62e3c511577885295ce447d09b4391f57359b4f181816cbf0"
    )


# Recorded while a family's truncation still called the weight on every pair
# of the prefix: the scans must report the same counts and verdicts.  Keys are
# (family, mode, center, radius, budget, json).
FAMILY_DIGESTS = {
    ("decaying-ray", "ball", 0, "0.7071", 600, True): "374ea6d4e66c0984f22147f03eda116b0fba5b29de3be08e828af526f13d54a0",
    ("decaying-ray", "ball", 0, "0.7071", 600, False): "7d3b29bc10030d69e05db2d35f9eb2f314dc895f80b5c74ddeabc1eb57505bd2",
    ("decaying-ray", "ball", 0, "0.7071", 2000, True): "cf486ca4446e3e09dc0160bf6f8bbe7a40807731e4bb982431a379ccc8c51a85",
    ("decaying-ray", "ball", 0, "0.7071", 2000, False): "f073f0ef84e1404c0f0706ac2e0e9c56a6d81c764cb7cdd86220aa7f09576004",
    ("decaying-ray", "ball", 0, "2.5", 600, True): "9dbdf7a20559b820983bbb3d297b6ed08aef38a9ed4b7d44503e821e87db0042",
    ("decaying-ray", "ball", 0, "2.5", 600, False): "e6dcd9b936253234388f4d071adf3d273918ad7865964c17e2f0f1a1fc66e1c9",
    ("decaying-ray", "ball", 0, "2.5", 2000, True): "7a8885a978daff414ea8402bb382789968d01f03828d0085ed1e54e03185fe23",
    ("decaying-ray", "ball", 0, "2.5", 2000, False): "bd8ef8bb4a8b63f75a30bee4190d4009bc97af1b1b5aa32f504fe47726c72b3b",
    ("decaying-ray", "ball", 17, "0.7071", 600, True): "0e33fc600506aeb13b357298613cef822c56ad98c31198fe927b06a46dc240ac",
    ("decaying-ray", "ball", 17, "0.7071", 600, False): "3550833c4e2164dc2b1a0265fa67bb7fcc926a602bcf449d2f9e39f362d3a10b",
    ("decaying-ray", "ball", 17, "0.7071", 2000, True): "27ff49237e4c5fb2a3fc943b87f820b6467cd26b407f6e628ac1074db6153c7c",
    ("decaying-ray", "ball", 17, "0.7071", 2000, False): "c76e94ac0e96c1c8c0b457549e6a7a69639e599742aeef5f5120371f48e5ee0f",
    ("decaying-ray", "ball", 17, "2.5", 600, True): "9cba095088b037ce21e4de551c902ca1e8e36e00afce56ac68aed4318dbb1cd5",
    ("decaying-ray", "ball", 17, "2.5", 600, False): "edaee3356ee17857b619658c2db77389b7376d606a0e21e5766823f46ddded97",
    ("decaying-ray", "ball", 17, "2.5", 2000, True): "b59f52163b2b47628cfb51912aca0192d4b0c62380115cdfe177f43c4d4dab05",
    ("decaying-ray", "ball", 17, "2.5", 2000, False): "407983b25cdb16ad83ed15ebb1f487632ad2dc81940339d8987c6738dcc46aa9",
    ("decaying-ray", "elf", 0, "0.7071", 600, True): "7123d384cb0b4587eafbba26b29ab8bb497cedf25bfd49e568eb82d5eabbfeb3",
    ("decaying-ray", "elf", 0, "0.7071", 600, False): "8fc8e86bfa169dc81f59f13cf9feddc047685e87b4ddd31405597e8d421e3641",
    ("decaying-ray", "elf", 0, "0.7071", 2000, True): "7123d384cb0b4587eafbba26b29ab8bb497cedf25bfd49e568eb82d5eabbfeb3",
    ("decaying-ray", "elf", 0, "0.7071", 2000, False): "8fc8e86bfa169dc81f59f13cf9feddc047685e87b4ddd31405597e8d421e3641",
    ("decaying-ray", "elf", 0, "2.5", 600, True): "838746b3291dadea79c6157992e3d0c8b47cbf6c791aa4e5d316a362cf859af6",
    ("decaying-ray", "elf", 0, "2.5", 600, False): "3235bca7ebcf8b28ea218aa14f73c99ff3066a22cde7d7a8c8b017c388f90f6c",
    ("decaying-ray", "elf", 0, "2.5", 2000, True): "838746b3291dadea79c6157992e3d0c8b47cbf6c791aa4e5d316a362cf859af6",
    ("decaying-ray", "elf", 0, "2.5", 2000, False): "3235bca7ebcf8b28ea218aa14f73c99ff3066a22cde7d7a8c8b017c388f90f6c",
    ("decaying-ray", "elf", 17, "0.7071", 600, True): "d2e36c4543fdcbc88831bb952033b42cba265666a1195781f595de9117240c90",
    ("decaying-ray", "elf", 17, "0.7071", 600, False): "69fa3e6c9105df0956b5cdf02697dad34df23accbb68dd4c42fb0b53dc80b5bd",
    ("decaying-ray", "elf", 17, "0.7071", 2000, True): "d2e36c4543fdcbc88831bb952033b42cba265666a1195781f595de9117240c90",
    ("decaying-ray", "elf", 17, "0.7071", 2000, False): "69fa3e6c9105df0956b5cdf02697dad34df23accbb68dd4c42fb0b53dc80b5bd",
    ("decaying-ray", "elf", 17, "2.5", 600, True): "229101e4c13b80aa03023411a6134bfb09ee4d363e67b50d8b6f709893b172fc",
    ("decaying-ray", "elf", 17, "2.5", 600, False): "9c701bde451db9eb3402ffcaaec039327f61d892098fc99304363b5a51e94a54",
    ("decaying-ray", "elf", 17, "2.5", 2000, True): "229101e4c13b80aa03023411a6134bfb09ee4d363e67b50d8b6f709893b172fc",
    ("decaying-ray", "elf", 17, "2.5", 2000, False): "9c701bde451db9eb3402ffcaaec039327f61d892098fc99304363b5a51e94a54",
    ("decaying-star", "ball", 0, "0.7071", 600, True): "e007a68a11b04c3f97048cc3907b4b8f9aaaacfa03b3e5a52ed06a0010c7eaee",
    ("decaying-star", "ball", 0, "0.7071", 600, False): "bf8bb468e4e00ac3bffa500f887b86161856c70147fa269c616dabfb7e386713",
    ("decaying-star", "ball", 0, "0.7071", 2000, True): "32bbbd3c6f9433e7f98fb1e0ed77e92e46ef520df602289447b310f06226cdcc",
    ("decaying-star", "ball", 0, "0.7071", 2000, False): "419882fd19bc4c7bf8199b1f36184178971cb86e4e1ab29cf19d5458c5c8a840",
    ("decaying-star", "ball", 0, "2.5", 600, True): "02335b1d5dd535b144f48c949c2e69b67eb16e4db3c8841986cd3f54b54a3ec4",
    ("decaying-star", "ball", 0, "2.5", 600, False): "02852a10eb42131c8964ea5bc4631afa9cbcc7f6422511b73ff01fa2b2af259a",
    ("decaying-star", "ball", 0, "2.5", 2000, True): "63af251afb95eda893a1393d5932a919b670634fcc0d2c9ce5215458469788af",
    ("decaying-star", "ball", 0, "2.5", 2000, False): "18b273d971fb3cd2f195c0482c91fd282751532eba79626b23b4d10efd240877",
    ("decaying-star", "ball", 17, "0.7071", 600, True): "f2df36a225baf20f6f39685f85a5d1783df3bbe4bbbbbaf9337f42070d2dab1c",
    ("decaying-star", "ball", 17, "0.7071", 600, False): "14141c2451682ec776974630333276a1f56fa20f26374d2bbc8495a8248cf9a1",
    ("decaying-star", "ball", 17, "0.7071", 2000, True): "c3a171da316f5c5aa870a7596a88d9302ea7123b0fa3c532e5646af22bb48d35",
    ("decaying-star", "ball", 17, "0.7071", 2000, False): "eee015d646477f1a02b069d8ea4fb6d64bd182880d7a5db7b6c59e6363edf8a5",
    ("decaying-star", "ball", 17, "2.5", 600, True): "a86fb1cb406f9a3368b80dcd411500f14408e0eea7b9192e87e0348856df1172",
    ("decaying-star", "ball", 17, "2.5", 600, False): "54271c200c8080c715a3fc52694f732bbb5888cc93185e3f2d3a488a7f847e19",
    ("decaying-star", "ball", 17, "2.5", 2000, True): "0fe219db87c831289fede71d399e55893ee585f31b84f3e7ac9664a9d69f9f88",
    ("decaying-star", "ball", 17, "2.5", 2000, False): "a09e8767c9e88d2ffb6324a7fab62ac6dc1a82f37e1a5ddea99601af38a7732a",
    ("decaying-star", "elf", 0, "0.7071", 600, True): "4626a449baf2e979e5839a08755f0cfa817ee4a140b4a58d8fd92033431e635b",
    ("decaying-star", "elf", 0, "0.7071", 600, False): "f1bbc37c964af099736c843db73bd8ef5e99b34515d81269c9dbda3302cbda72",
    ("decaying-star", "elf", 0, "0.7071", 2000, True): "5cc3245806f4fd7caa9d83c6e243db8c415cdc6ac220eabfe8180fa40dd2fadf",
    ("decaying-star", "elf", 0, "0.7071", 2000, False): "e52f1e7d39fedfdd717664195812e8eff146585d82747dc9794180382f4b34d8",
    ("decaying-star", "elf", 0, "2.5", 600, True): "e5f70bacb5f42305103c546bb77aa1c251dcb845f501068c6410311abd4611a6",
    ("decaying-star", "elf", 0, "2.5", 600, False): "0abe2e45d02ed931fbc467838f44b9bd90a82f7f4d663ba69bca455383d45867",
    ("decaying-star", "elf", 0, "2.5", 2000, True): "05e8287be9aad77d985d55d958a43a90bd32635285e28bb1563fd3bf7d6f1533",
    ("decaying-star", "elf", 0, "2.5", 2000, False): "62e3e852c5d6948e9db630dfd06a43b47fa389f05e252901ef12b10fde70894a",
    ("decaying-star", "elf", 17, "0.7071", 600, True): "2dabb6c545b08db3dae7ecb47a41bc8298fb1d03783dee9103aeaafcece24598",
    ("decaying-star", "elf", 17, "0.7071", 600, False): "6476bffab3292feb09af7385ce9174ae7276fe5671d0191143e415b2ee5d3c8c",
    ("decaying-star", "elf", 17, "0.7071", 2000, True): "2dabb6c545b08db3dae7ecb47a41bc8298fb1d03783dee9103aeaafcece24598",
    ("decaying-star", "elf", 17, "0.7071", 2000, False): "6476bffab3292feb09af7385ce9174ae7276fe5671d0191143e415b2ee5d3c8c",
    ("decaying-star", "elf", 17, "2.5", 600, True): "076232e8da1d5bec6405d450b9a5303c34534d2bd4094bb475b858d781411fcb",
    ("decaying-star", "elf", 17, "2.5", 600, False): "ec89ae5eee064c68456dcab407873008322966d6b033b5b9a38d308ee9aa0262",
    ("decaying-star", "elf", 17, "2.5", 2000, True): "076232e8da1d5bec6405d450b9a5303c34534d2bd4094bb475b858d781411fcb",
    ("decaying-star", "elf", 17, "2.5", 2000, False): "ec89ae5eee064c68456dcab407873008322966d6b033b5b9a38d308ee9aa0262",
    ("unit-ray", "ball", 0, "0.7071", 600, True): "ce326a1316bf2ec4fcff51e444b9c941218d7668a900d8b92fff9416d52a0587",
    ("unit-ray", "ball", 0, "0.7071", 600, False): "98d4655e84276205210ca4c17a8b59d5ecab84c9e6efb954e86679f5da63fbd2",
    ("unit-ray", "ball", 0, "0.7071", 2000, True): "7eadcd855d233ab21bc2406dc0742faaa2b66bc8f206e570c7c64de8ad8ca7c5",
    ("unit-ray", "ball", 0, "0.7071", 2000, False): "adf30020e1fe2b9b8bc4582aecf5ca47b95ae4e81285971810c39a616017e803",
    ("unit-ray", "ball", 0, "2.5", 600, True): "060b7e05c0b6129bb662ccdc6d842f44a3dc74aa0559d9fcfa1307a87cb53e2e",
    ("unit-ray", "ball", 0, "2.5", 600, False): "7d06ee1590c892ed903b7b1469ce473e005cf4e1d46e9d2dd60aee528baab1e2",
    ("unit-ray", "ball", 0, "2.5", 2000, True): "af493f48de1640f8012ebae823d225b92ca857b72495c42342678ef7eb6d3af2",
    ("unit-ray", "ball", 0, "2.5", 2000, False): "27541e571ebe8cc1253dae77c35aa12231c33e4810822002205de28ba697a707",
    ("unit-ray", "ball", 17, "0.7071", 600, True): "377ac7fc28f3717fa124fa1defadd7c4f06bdede70723e6a7f6b9410b9aa7db9",
    ("unit-ray", "ball", 17, "0.7071", 600, False): "953d24b61b706ba9b6079089537233c3cd6ad62ad34a3b88fbeedeb7db5eea9e",
    ("unit-ray", "ball", 17, "0.7071", 2000, True): "8ae053e2c77d8561fb3f1e69b14e4cc659abb2fb9355e9e33bb32bc6eba1a5c3",
    ("unit-ray", "ball", 17, "0.7071", 2000, False): "6a45fe30565574bffecd8ba08eff8cca16839aaca909879b07090eea215c32ab",
    ("unit-ray", "ball", 17, "2.5", 600, True): "3e208abec28a91f9dec63acd165895f9271b15fca310de465ee6f45b6395f031",
    ("unit-ray", "ball", 17, "2.5", 600, False): "f20c80b248c705c07fe90e0dc4294a8f55791689f4c59c9ab3a1b81bbe7edb72",
    ("unit-ray", "ball", 17, "2.5", 2000, True): "cc1860d7ccbdd0b6efb1f6f263a72e501802cdfd6a6b1cb93b5d4d2b9cd00813",
    ("unit-ray", "ball", 17, "2.5", 2000, False): "a59aecb7122990a8cb614c2289e0d1335cf9ac168cce3fb777a551c70fc58490",
    ("unit-ray", "elf", 0, "0.7071", 600, True): "f4fba05ab94cefb4a9fd3a14d9f426650beab3059f9f529bfc4d0c9c07363713",
    ("unit-ray", "elf", 0, "0.7071", 600, False): "cdc9ee5f2f89ffae9184033b020d9a5e2c74f969a25352967023f28f283113b3",
    ("unit-ray", "elf", 0, "0.7071", 2000, True): "f4fba05ab94cefb4a9fd3a14d9f426650beab3059f9f529bfc4d0c9c07363713",
    ("unit-ray", "elf", 0, "0.7071", 2000, False): "cdc9ee5f2f89ffae9184033b020d9a5e2c74f969a25352967023f28f283113b3",
    ("unit-ray", "elf", 0, "2.5", 600, True): "53fbdf80edd4a913bddc19b74b5903b982332f8c840d0f4458432db3ef077aa3",
    ("unit-ray", "elf", 0, "2.5", 600, False): "7779da1588329f48d5c39140af9ad2237bc53ef453cc4a1c13c0f753994729c8",
    ("unit-ray", "elf", 0, "2.5", 2000, True): "53fbdf80edd4a913bddc19b74b5903b982332f8c840d0f4458432db3ef077aa3",
    ("unit-ray", "elf", 0, "2.5", 2000, False): "7779da1588329f48d5c39140af9ad2237bc53ef453cc4a1c13c0f753994729c8",
    ("unit-ray", "elf", 17, "0.7071", 600, True): "5230ea8ddcae112f2ff097aa9340a747cffc2042662eb556152300bff1ecb06e",
    ("unit-ray", "elf", 17, "0.7071", 600, False): "d174241d7bf15bec296feb23f4d38eae229c8629605363b89d6db39d22add370",
    ("unit-ray", "elf", 17, "0.7071", 2000, True): "5230ea8ddcae112f2ff097aa9340a747cffc2042662eb556152300bff1ecb06e",
    ("unit-ray", "elf", 17, "0.7071", 2000, False): "d174241d7bf15bec296feb23f4d38eae229c8629605363b89d6db39d22add370",
    ("unit-ray", "elf", 17, "2.5", 600, True): "37da3152b8ebc170c56e90b539e367718a1ed40c5963c48f609e32752fda5209",
    ("unit-ray", "elf", 17, "2.5", 600, False): "1a3a56d13097106afcefc44431ff5d528aafcdffe83d61f7f65491ef1dd54ef9",
    ("unit-ray", "elf", 17, "2.5", 2000, True): "37da3152b8ebc170c56e90b539e367718a1ed40c5963c48f609e32752fda5209",
    ("unit-ray", "elf", 17, "2.5", 2000, False): "1a3a56d13097106afcefc44431ff5d528aafcdffe83d61f7f65491ef1dd54ef9",
    ("unit-star", "ball", 0, "0.7071", 600, True): "268b907dbe5b8cf0a649834ba4dcabdb018acac23526a51223a5ab409cfa7335",
    ("unit-star", "ball", 0, "0.7071", 600, False): "e8a1992f292ebb117f27ef9f425c45fedd5283f69d67f624ebefcce150d793d6",
    ("unit-star", "ball", 0, "0.7071", 2000, True): "5e628cb3635ccf269588e9e053d064030c82e4a607cd108608223bd497dbcff0",
    ("unit-star", "ball", 0, "0.7071", 2000, False): "7bdc43b23ca0eaf6deeb5357aa278b5df401ae68e6e7bc449a407cb19cde4b50",
    ("unit-star", "ball", 0, "2.5", 600, True): "04c4500ec1be672398fa14a20c63c635134e6506569839465fabbd936aa91c3f",
    ("unit-star", "ball", 0, "2.5", 600, False): "d7645eed7428bb3401fb9dc1b8a2d5f1d92fe6f5e55afcc23ae23bc523e3b803",
    ("unit-star", "ball", 0, "2.5", 2000, True): "6b1600e2a9bda0b1ae2591afe0b1609d64d17ac4c61d91c324eb11a98687ff05",
    ("unit-star", "ball", 0, "2.5", 2000, False): "129cd15ea3b074a634004e86b4fbed66b2e35c49c68e146cd365da6763c8a59e",
    ("unit-star", "ball", 17, "0.7071", 600, True): "9e4705f7ddf3215a9a43c4b3f6a257fdb335551c6c3e1d2264fce765838b8279",
    ("unit-star", "ball", 17, "0.7071", 600, False): "7bf5755d186f73ae6fabcf8ec4f7317f927fb0bb70ef65c5fc8a91d3e7cb83a2",
    ("unit-star", "ball", 17, "0.7071", 2000, True): "eb369c9ac5a1d1c83dee32f55f42eaa7c4e8fc0ca9e38d41df968f96b35ba0dd",
    ("unit-star", "ball", 17, "0.7071", 2000, False): "f299c3fef8ebc4d6c0bae8edf7757a1d5e3fce7238e712df3a112ab91913d0b6",
    ("unit-star", "ball", 17, "2.5", 600, True): "8d25787aec0e5e2fd6cb0917670c22121ced0f7ee3bd5a0b01b7fc94050703d3",
    ("unit-star", "ball", 17, "2.5", 600, False): "dd67149141d970359d940404490f0bd5831078b486cdda443fe62735d42b4164",
    ("unit-star", "ball", 17, "2.5", 2000, True): "aba423e23baf1ae748f3c01653d0e53fbdf58bfd1729b4f9ed33d6af31e4a799",
    ("unit-star", "ball", 17, "2.5", 2000, False): "299762dda8029b65fe13b25ab8b422aedf060660f59d0c1307f7a741712cc3e3",
    ("unit-star", "elf", 0, "0.7071", 600, True): "bdc100da1a2f4c5a3f755e937dd04aff7b94f6da28dc7cc52d1ca655440482a0",
    ("unit-star", "elf", 0, "0.7071", 600, False): "f3814f9f6ef4e81bcd08c78fa5ce548a19a966db762af2f1c5203e1e699bd003",
    ("unit-star", "elf", 0, "0.7071", 2000, True): "bdc100da1a2f4c5a3f755e937dd04aff7b94f6da28dc7cc52d1ca655440482a0",
    ("unit-star", "elf", 0, "0.7071", 2000, False): "f3814f9f6ef4e81bcd08c78fa5ce548a19a966db762af2f1c5203e1e699bd003",
    ("unit-star", "elf", 0, "2.5", 600, True): "31b14f5caabdd76fe23633bb56515d6bb1471870ac1f2d6c2be549821c119b53",
    ("unit-star", "elf", 0, "2.5", 600, False): "8e5a80e9006c3d5de71fb718489395cc1db2287eff45a69a70324fd450008709",
    ("unit-star", "elf", 0, "2.5", 2000, True): "6de28e76395594241a6387eb738090f8ffa7af6b8470fa4be7ca0b8a66d27479",
    ("unit-star", "elf", 0, "2.5", 2000, False): "c43b24818d0b4f89c6abbedfdbc7698cfc4a6ac6b86e8f7d45d6361bfa1f48b3",
    ("unit-star", "elf", 17, "0.7071", 600, True): "3be12b4d69f4344ac3941bd0e9c7102fa73e384c8f7e60ca70b25ce83bc8c7a3",
    ("unit-star", "elf", 17, "0.7071", 600, False): "de9b2776536f4dc7b8e36b8c4bd288478d4f5661490393df4c58bc0faaac831d",
    ("unit-star", "elf", 17, "0.7071", 2000, True): "3be12b4d69f4344ac3941bd0e9c7102fa73e384c8f7e60ca70b25ce83bc8c7a3",
    ("unit-star", "elf", 17, "0.7071", 2000, False): "de9b2776536f4dc7b8e36b8c4bd288478d4f5661490393df4c58bc0faaac831d",
    ("unit-star", "elf", 17, "2.5", 600, True): "534692d7bc7ac5f65b389cb01695a2370ecc3457bb0cf7a9f5baceb48ff6dc8f",
    ("unit-star", "elf", 17, "2.5", 600, False): "46335e3916b56792168c74f6aff8a8eafc1a7fae7c11a266d75fdca60e2f9a07",
    ("unit-star", "elf", 17, "2.5", 2000, True): "534692d7bc7ac5f65b389cb01695a2370ecc3457bb0cf7a9f5baceb48ff6dc8f",
    ("unit-star", "elf", 17, "2.5", 2000, False): "46335e3916b56792168c74f6aff8a8eafc1a7fae7c11a266d75fdca60e2f9a07",
}


@pytest.mark.parametrize("key", sorted(FAMILY_DIGESTS))
def test_family_output_matches_recorded_digest(capsys, key):
    name, mode, center, radius, budget, as_json = key
    argv = ["family", name, "--mode", mode, "--center", str(center), "--radius", radius]
    argv += ["--budget", str(budget)] + (["--json"] if as_json else [])
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_DIGESTS[key]
