"""A seeded mixed-scale sweep through the command line, in process.

The generator: ``random.Random(11)``; n uniform in 4 .. 12; a spanning tree
in which each vertex v >= 1 joins a uniform earlier vertex, plus 0 .. 4
random extra pairs; each conductance 10**k times one of 0.5, 1, 2 and 3,
with k a uniform integer in [-3, 3].  Each graph goes through
``resistance --matrix`` and ``characterize --tree --block``.

Every command must end in a documented exit code with no traceback or
warning, and ``resistance --matrix`` must succeed on every graph.
``characterize`` is not pinned to exit 0: at these scales the solve can
lose enough of R that a verdict comes out inconsistent (exit 5), which
ROADMAP items 2 and 3 are to mend.
"""

import random
import warnings

from graphmetry.cli import main

DOCUMENTED = {0, 2, 3, 4, 5}


def mixed_scale_graphs(rng: random.Random, count: int, k: int) -> list[str]:
    """``count`` edge files from the generator above, scales 1e-k .. 1ek."""
    files = []
    for _ in range(count):
        n = rng.randint(4, 12)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 4))]
        conductance = {
            pair: 10.0 ** rng.randint(-k, k) * rng.choice((0.5, 1.0, 2.0, 3.0)) for pair in pairs
        }
        files.append("".join(f"v{u} v{v} {c!r}\n" for (u, v), c in conductance.items()))
    return files


def test_mixed_scale_commands_keep_the_exit_code_contract(tmp_path, capsys):
    matrix_codes = []
    for i, text in enumerate(mixed_scale_graphs(random.Random(11), 60, 3)):
        path = tmp_path / f"mixed{i}.edges"
        path.write_text(text)
        for argv in (["resistance", str(path), "--matrix"], ["characterize", str(path), "--tree", "--block"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            out, err = capsys.readouterr()
            context = (text, argv[0])
            assert code in DOCUMENTED, context
            assert "Traceback" not in err and not caught, context
            if code == 0:
                assert err == "" and out, context
            else:
                assert out == "" and len(err.splitlines()) == 1, context
                assert err.startswith(("error: ", "internal error: ")), context
            if argv[0] == "resistance":
                matrix_codes.append(code)
    assert matrix_codes == [0] * 60
