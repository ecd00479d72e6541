"""What a fresh interpreter loads for ``import graphmetry`` and for a command.

Most of a command's set-up time is that import.  ``import graphmetry`` loads
numpy and graphmetry's own modules.  The resistance layer imports
``scipy.linalg.lapack`` where it factors and where it solves, so
``resistance``, ``characterize`` and the library's R queries load it at
their first factorization and the path-metric commands never do.  A new
dependency (``scipy.sparse``, say) would show here first.
"""

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

C4 = "a b 1\nb c 2\nc d 1\nd a 1\n"


def child(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return run.stdout


def loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    return set(child(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))").split())


def scipy_modules(statement: str) -> set[str]:
    return {name for name in loaded(statement) if name.split(".")[0] == "scipy"}


def command(argv: list[str]) -> str:
    """A statement that runs ``cli.main(argv)`` with its report discarded."""
    return (
        "import contextlib, io\nfrom graphmetry import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
    )


def test_import_loads_nothing_beyond_scipy_linalg():
    # fractions (with decimal) is the one standard-library module graphmetry adds.
    baseline = loaded("import scipy.linalg.lapack, fractions")
    extra = {name for name in loaded("import graphmetry") - baseline if name.split(".")[0] != "graphmetry"}
    assert extra == set()


@pytest.mark.parametrize("statement", ["import graphmetry", "import graphmetry.cli"])
def test_import_loads_no_scipy(statement):
    assert scipy_modules(statement) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "{file}", "--all-pairs"],
        ["metric", "{file}", "--source", "a", "--target", "c", "--oracle"],
        ["geodesics", "{file}", "--source", "a", "--target", "c"],
        ["geodesic-weight", "{file}"],
        ["family", "unit-star", "--mode", "ball", "--radius", "2"],
        ["family", "unit-ray", "--mode", "elf", "--radius", "2", "--budget", "500"],
    ],
    ids=" ".join,
)
def test_path_metric_commands_load_no_scipy(tmp_path, argv):
    path = tmp_path / "c4.txt"
    path.write_text(C4)
    assert scipy_modules(command([arg.format(file=path) for arg in argv])) == set()


@pytest.mark.parametrize(
    "argv", [["resistance", "{file}", "--pair", "a", "c"], ["characterize", "{file}", "--tree"]], ids=" ".join
)
def test_resistance_commands_load_lapack_at_their_first_factor(tmp_path, argv):
    path = tmp_path / "c4.txt"
    path.write_text(C4)
    assert "scipy.linalg.lapack" in scipy_modules(command([arg.format(file=path) for arg in argv]))


def test_concurrent_first_factorizations_agree_and_bind_scipy():
    # Eight threads race to the first factorization, and with it the first
    # scipy import; each gets the answers a later, single query gets.
    code = textwrap.dedent(
        """
        import random, sys, threading
        from graphmetry import ConductanceGraph, effective_resistance

        rng = random.Random(151)
        n = 40
        weights = {(rng.randrange(v), v): rng.randint(1, 9) / 7.0 for v in range(1, n)}
        weights.update({(v, (v * 7 + 3) % n): 1.5 for v in range(n) if (v * 7 + 3) % n > v})
        pairs = [(x, y) for x in range(0, n, 7) for y in range(1, n, 9) if x != y]
        shared = ConductanceGraph(n, weights)
        assert not any(name.startswith("scipy") for name in sys.modules)
        start, results, errors = threading.Barrier(8), [None] * 8, []

        def work(k):
            try:
                start.wait()
                results[k] = [effective_resistance(shared, x, y) for x, y in pairs]
            except Exception as exc:
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and errors == []
        again = ConductanceGraph(n, weights)
        assert all(r == [effective_resistance(again, x, y) for x, y in pairs] for r in results)
        assert "scipy.linalg.lapack" in sys.modules
        print("ok")
        """
    )
    assert child(code) == "ok\n"

