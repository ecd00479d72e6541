"""What a fresh interpreter loads for ``import graphmetry``.

Most of a command's set-up time is that import, and nearly all of it is
numpy and ``scipy.linalg``; a new dependency (``scipy.sparse``, say) would
show there first.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(run.stdout.split())


def test_import_loads_nothing_beyond_scipy_linalg():
    # fractions (with decimal) is the one standard-library module graphmetry adds.
    baseline = loaded("import scipy.linalg.lapack, fractions")
    extra = {name for name in loaded("import graphmetry") - baseline if name.split(".")[0] != "graphmetry"}
    assert extra == set()
