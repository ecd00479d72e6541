"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graphmetry import ConductanceGraph, GraphmetryError, MetricTable
import graphmetry.cli as cli
from graphmetry.cli import _KERNEL_MIN, Report, Table, _fixed_17g, _render, _spell, build_parser, fmt, main
from graphmetry.completeness import MaximalWeightReport
from .suites import random_block_graph, random_nontree, random_tree

P3 = "a b 1\nb c 1\n"
K3 = "a b 1\nb c 1\na c 1\n"
C4 = "a b 1\nb c 1\nc d 1\nd a 1\n"
SPLIT = "a b 1\nvertex c\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.edges"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_metric_pair(graph_file, capsys):
    code, out, err = run(capsys, "metric", graph_file(P3), "--source", "a", "--target", "c")
    assert code == 0 and err == ""
    assert "command: metric" in out
    assert "distance: 2" in out


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "launch",
    [["-c", "from graphmetry.cli import entry; entry()"], ["-m", "graphmetry.cli"]],
    ids=["entry", "module"],
)
def test_console_entry_points_print_what_main_prints(launch, graph_file, tmp_path, capsys):
    paths = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    def launched(*argv):
        done = subprocess.run(
            [sys.executable, *launch, *argv], capture_output=True, text=True, env=env, timeout=120
        )
        return done.returncode, done.stdout, done.stderr

    argv = ("metric", graph_file(P3), "--source", "a", "--target", "c")
    code, out, err = launched(*argv)
    assert (code, out, err) == run(capsys, *argv)
    assert code == 0 and "distance: 2\n" in out
    missing = ("metric", str(tmp_path / "nope.edges"), "--all-pairs")
    code, out, err = launched(*missing)
    assert (code, out) == (2, "") and err.startswith("error: cannot read")


def test_metric_pair_json(graph_file, capsys):
    doc = run_json(capsys, "metric", graph_file(P3), "--source", "a", "--target", "c")
    assert doc["command"] == "metric"
    assert doc["results"]["distance"] == "2"
    assert doc["diagnostics"] == []


def test_metric_all_pairs_with_oracle(graph_file, capsys):
    doc = run_json(capsys, "metric", graph_file(P3), "--all-pairs", "--oracle")
    assert doc["results"]["table"]["a"]["c"] == "2"
    assert doc["results"]["table"]["a"]["a"] == "0"
    assert doc["results"]["oracle"]["a"]["c"] == "2/1"


def test_metric_pair_oracle_discrepancy(graph_file, capsys):
    doc = run_json(
        capsys, "metric", graph_file("a b 0.1\nb c 0.2\n"), "--source", "a", "--target", "c", "--oracle"
    )
    assert doc["results"]["oracle"] == "3/10"
    assert float(doc["results"]["discrepancy"]) <= 1e-12


def test_metric_unreachable_pair_is_inf(graph_file, capsys):
    doc = run_json(capsys, "metric", graph_file(SPLIT), "--source", "a", "--target", "c")
    assert doc["results"]["distance"] == "inf"


def test_metric_conductance_mode_uses_inverse(graph_file, capsys):
    doc = run_json(
        capsys,
        "metric",
        graph_file("a b 2\n"),
        "--mode",
        "conductance",
        "--source",
        "a",
        "--target",
        "b",
    )
    assert doc["results"]["distance"] == "0.5"


def test_metric_requires_pair_or_all(graph_file, capsys):
    code, _, err = run(capsys, "metric", graph_file(P3))
    assert code == 2 and "error:" in err


def test_unknown_vertex_is_query_error(graph_file, capsys):
    code, _, err = run(capsys, "metric", graph_file(P3), "--source", "a", "--target", "zz")
    assert code == 3 and "zz" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "metric", str(tmp_path / "nope.edges"), "--all-pairs")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resistance", "--pair", "a", "c"),
        ("resistance", "--pair", "a", "c", "--oracle"),
        ("metric", "--source", "a", "--target", "c", "--mode", "conductance"),
        ("metric", "--source", "a", "--target", "c"),
        ("characterize", "--tree", "--mode", "weight"),
    ],
)
def test_an_underflowing_value_is_refused_in_both_modes(graph_file, capsys, argv):
    # R(a, c) = 10**400 + 1 is finite: reading 1e-400 as a zero conductance
    # would print inf, and as a zero weight would refuse a "zero weight".
    code, out, err = run(capsys, argv[0], graph_file("a b 1e-400\nb c 1\n"), *argv[1:])
    assert (code, out, err) == (2, "", "error: line 1: underflowing value '1e-400'\n")


def test_bad_input_is_input_error(graph_file, capsys):
    code, _, err = run(capsys, "metric", graph_file("a b 2\nb a 3\n"), "--all-pairs")
    assert code == 2
    code, _, err = run(capsys, "metric", graph_file("a b 0\n"), "--all-pairs")
    assert code == 2


def test_oracle_cap_is_exit_4(graph_file, capsys):
    big = "\n".join(f"v{i} v{i + 1} 1" for i in range(13))
    code, _, err = run(capsys, "metric", graph_file(big), "--all-pairs", "--oracle")
    assert code == 4 and "capped" in err


def test_geodesics(graph_file, capsys):
    doc = run_json(capsys, "geodesics", graph_file(C4), "--source", "a", "--target", "c")
    assert doc["results"]["distance"] == "2"
    assert [g["path"] for g in doc["results"]["geodesics"]] == ["a -> b -> c", "a -> d -> c"]
    assert all(g["length"] == "2" for g in doc["results"]["geodesics"])
    assert doc["results"]["truncated"] is False


def test_geodesics_cap_truncates(graph_file, capsys):
    text = "\n".join(f"s m{i} 1\nm{i} t 1" for i in range(5))
    doc = run_json(
        capsys, "geodesics", graph_file(text), "--source", "s", "--target", "t", "--cap", "3"
    )
    assert len(doc["results"]["geodesics"]) == 3
    assert doc["results"]["truncated"] is True


def test_geodesics_unreachable_is_query_error(graph_file, capsys):
    code, _, err = run(capsys, "geodesics", graph_file(SPLIT), "--source", "a", "--target", "c")
    assert code == 3


def test_geodesic_weight(graph_file, capsys):
    doc = run_json(capsys, "geodesic-weight", graph_file(P3))
    results = doc["results"]
    assert results["geodesic_weight"]["a"]["b"] == "1"
    assert results["geodesic_weight"]["a"]["c"] == "inf"
    assert results["generates"] is True
    assert results["dominates"] is True
    assert results["witnesses"] == []


def test_resistance_pair_oracle_maximizer(graph_file, capsys):
    doc = run_json(
        capsys,
        "resistance",
        graph_file(K3),
        "--pair",
        "a",
        "b",
        "--oracle",
        "--maximizer",
    )
    results = doc["results"]
    assert abs(float(results["resistance"]) - 2 / 3) <= 1e-9
    assert results["oracle"] == "2/3"
    assert float(results["discrepancy"]) <= 1e-12
    assert float(results["maximizer"]["residual"]) <= 1e-8
    assert abs(float(results["maximizer"]["gap_squared"]) - 2 / 3) <= 1e-9


def test_resistance_matrix_oracle(graph_file, capsys):
    doc = run_json(capsys, "resistance", graph_file(C4), "--matrix", "--oracle")
    results = doc["results"]
    assert abs(float(results["resistance"]["a"]["b"]) - 3 / 4) <= 1e-9
    assert abs(float(results["resistance"]["a"]["c"]) - 1.0) <= 1e-9
    assert results["oracle"]["a"]["b"] == "3/4"
    assert results["oracle"]["a"]["c"] == "1/1"
    assert results["oracle"]["a"]["a"] == "0/1"


def test_resistance_disconnected_pair(graph_file, capsys):
    doc = run_json(capsys, "resistance", graph_file(SPLIT), "--pair", "a", "c", "--oracle")
    assert doc["results"]["resistance"] == "inf"
    assert doc["results"]["oracle"] == "inf"
    assert doc["results"]["discrepancy"] == "0"


def test_resistance_oracle_ignores_other_components(graph_file, capsys):
    doc = run_json(capsys, "resistance", graph_file(SPLIT), "--pair", "a", "b", "--oracle")
    assert doc["results"]["oracle"] == "1/1"
    assert abs(float(doc["results"]["resistance"]) - 1.0) <= 1e-9


def test_resistance_same_vertex_is_query_error(graph_file, capsys):
    code, _, err = run(capsys, "resistance", graph_file(K3), "--pair", "a", "a")
    assert code == 3


def test_resistance_requires_pair_or_matrix(graph_file, capsys):
    code, _, err = run(capsys, "resistance", graph_file(K3))
    assert code == 2


def test_resistance_weight_mode_inverts(graph_file, capsys):
    doc = run_json(
        capsys, "resistance", graph_file("a b 0.5\n"), "--mode", "weight", "--pair", "a", "b"
    )
    assert abs(float(doc["results"]["resistance"]) - 0.5) <= 1e-9


def test_characterize_tree_and_block(graph_file, capsys):
    doc = run_json(capsys, "characterize", graph_file(C4), "--tree", "--block")
    tree = doc["results"]["tree"]
    assert tree["is_tree"] is False and tree["metrics_equal"] is False
    assert tree["consistent"] is True
    block = doc["results"]["block"]
    assert block["is_block_graph"] is False
    assert block["verdict"] == "INCOMPATIBLE"
    assert block["counterexample"] == "a,c"
    assert sorted(block["offending_block"]) == ["a", "b", "c", "d"]


def test_characterize_block_certificate(graph_file, capsys):
    doc = run_json(capsys, "characterize", graph_file(K3), "--block")
    block = doc["results"]["block"]
    assert block["verdict"] == "COMPATIBLE"
    assert set(block["certificate"]) == {"a,b", "a,c", "b,c"}
    assert all(abs(float(v) - 2 / 3) <= 1e-9 for v in block["certificate"].values())


def test_characterize_triangle(graph_file, capsys):
    doc = run_json(capsys, "characterize", graph_file(P3), "--triangle", "a", "b", "c")
    tri = doc["results"]["triangle"]
    assert tri["equal"] is True and tri["separated"] is True
    assert tri["certificate"]["separator"] == "b"
    assert tri["certificate"]["side_x"] == ["a"]
    assert tri["certificate"]["verified"] is True

    doc = run_json(capsys, "characterize", graph_file(K3), "--triangle", "a", "b", "c")
    tri = doc["results"]["triangle"]
    assert tri["equal"] is False and tri["separated"] is False
    assert tri["witness"] == "a -> c"


def test_characterize_needs_a_check(graph_file, capsys):
    code, _, err = run(capsys, "characterize", graph_file(K3))
    assert code == 2


def test_characterize_triangle_not_distinct(graph_file, capsys):
    code, _, err = run(capsys, "characterize", graph_file(K3), "--triangle", "a", "b", "b")
    assert code == 3


def test_family_ball_scan(capsys):
    doc = run_json(capsys, "family", "unit-star", "--radius", "2")
    scan = doc["results"]["scan"]
    assert scan["kind"] == "ball"
    assert scan["found"] == 1000
    assert scan["verdict"] == "EXCEEDS_THRESHOLD"


def test_family_elf_scan(capsys):
    doc = run_json(
        capsys, "family", "unit-ray", "--mode", "elf", "--radius", "2", "--budget", "500"
    )
    scan = doc["results"]["scan"]
    assert scan["kind"] == "elf"
    assert scan["count"] == 1
    assert scan["verdict"] == "BOUNDED_SO_FAR"
    assert scan["exhausted"] is False


def test_family_unknown_name(capsys):
    code, _, err = run(capsys, "family", "unit-grid", "--radius", "2")
    assert code == 2 and "unknown family" in err


def test_family_budget_cap(capsys):
    code, _, err = run(capsys, "family", "unit-star", "--radius", "2", "--budget", "5000")
    assert code == 4
    for budget in ("5000", "2001"):
        code, out, err = run(capsys, "family", "unit-star", "--mode", "elf", "--radius", "2", "--budget", budget)
        assert (code, out, err) == (4, "", "error: scan budget capped at 2000\n")
    doc = run_json(capsys, "family", "unit-star", "--mode", "elf", "--radius", "2", "--budget", "2000")
    assert doc["results"]["scan"]["count"] == 2000


# sha256 of each --help text, recorded with COLUMNS=80 on Python 3.11's argparse.
HELP_DIGESTS = {
    (): "e6c7e191e85d5467bf74d683bdd5890ceaacffe78213a1c496d882e80cd65532",
    ("metric",): "2d049ef02727ed3c5635f0b6cc2f6942b7bd212a8aefc49c6a3f3f870a0efeaf",
    ("geodesics",): "3f839f7d4cc5635121cd8308bf370c2a09bb9506dcb2fe8601ea6f67b3f3433c",
    ("geodesic-weight",): "d3dbca1f7ef2f396d36f2045247bfbfcb2963eb027d14c87055c9180c1634b67",
    ("resistance",): "e5af6d1bc9dc0a578f03a72ba200db8b3de4b67ddb9104edf1fc1a867abe6709",
    ("characterize",): "1840a2ec3a61e0378f44eef7ad84f294e841f813c1668caeeb476c9416c8eac6",
    ("family",): "2e105aa1ee6b4a4d4a2bc75adbe131110eb7a5f492531cc47000d61ae13674b3",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
    if command and command != ("family",):
        # The default the help names is the mode a command reads without --mode.
        (default,) = re.findall(r"\(default: (\w+)\)", out)
        argv = [*command, "file", "--source", "a", "--target", "b"]  # geodesics needs both
        assert build_parser().parse_known_args(argv)[0].mode == default


def test_output_is_deterministic(graph_file, capsys):
    path = graph_file(C4)
    first = run(capsys, "resistance", path, "--matrix", "--oracle", "--json")
    second = run(capsys, "resistance", path, "--matrix", "--oracle", "--json")
    assert first == second
    third = run(capsys, "characterize", path, "--tree", "--block")
    fourth = run(capsys, "characterize", path, "--tree", "--block")
    assert third == fourth


def test_broken_invariant_is_exit_5(graph_file, capsys, monkeypatch):
    import graphmetry.cli as cli

    def corrupt(b):
        return MetricTable(np.full((b.n, b.n), -1.0))

    monkeypatch.setattr(cli, "resistance_matrix", corrupt)
    code, _, err = run(capsys, "resistance", graph_file(K3), "--matrix")
    assert code == 5 and "internal error" in err

    def failed(g):
        return MaximalWeightReport(generates=False, dominates=True)

    monkeypatch.setattr(cli, "verify_maximal_weight", failed)
    code, _, err = run(capsys, "geodesic-weight", graph_file(P3))
    assert code == 5


def test_resistance_weight_mode_oracle_is_exact(graph_file, capsys):
    tri = graph_file("a b 3\nb c 3\na c 3\n")
    doc = run_json(capsys, "resistance", tri, "--mode", "weight", "--pair", "a", "b", "--oracle")
    assert doc["results"]["oracle"] == "2/1"
    assert float(doc["results"]["discrepancy"]) <= 1e-12
    doc = run_json(capsys, "metric", tri, "--mode", "conductance", "--source", "a", "--target", "c", "--oracle")
    assert doc["results"]["oracle"] == "1/3"


@pytest.mark.parametrize(
    "argv, name",
    [
        (("geodesics", "GRAPH", "--source", "a", "--target", "c", "--cap", "0"), "cap"),
        (("family", "unit-star", "--radius", "2", "--budget", "0"), "budget"),
        (("family", "unit-ray", "--mode", "elf", "--radius", "2", "--budget", "0"), "budget"),
        (("family", "unit-star", "--radius", "2", "--threshold", "0"), "threshold"),
    ],
)
def test_nonpositive_argument_is_input_error(graph_file, capsys, argv, name):
    argv = [graph_file(P3) if token == "GRAPH" else token for token in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be positive\n"
    assert "Traceback" not in err


CLOSURES = ("all_pairs_metric", "_one_sweep_metric", "geodesic_weight")


def count_closures(monkeypatch) -> dict[str, int]:
    """Count fixpoint closures, single sweeps and w_delta calls by any route."""
    import graphmetry.cli as cli
    import graphmetry.completeness as completeness
    import graphmetry.pathmetric as pathmetric
    import graphmetry.structure as structure

    calls = dict.fromkeys(CLOSURES, 0)

    def counted(name):
        original = getattr(pathmetric, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in CLOSURES:
        wrapper = counted(name)
        for module in (pathmetric, completeness, structure, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_geodesic_weight_runs_one_closure_one_sweep_and_one_w_delta(
    graph_file, capsys, monkeypatch
):
    calls = count_closures(monkeypatch)
    for text in (P3, C4):
        calls.update(dict.fromkeys(CLOSURES, 0))
        code, _, err = run(capsys, "geodesic-weight", graph_file(text))
        assert code == 0, err
        assert calls == {"all_pairs_metric": 1, "_one_sweep_metric": 1, "geodesic_weight": 1}


def count_weighted_graphs(monkeypatch) -> list:
    """Every WeightedGraph built from here on, by any route."""
    from graphmetry import WeightedGraph

    built = []
    original = WeightedGraph.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(WeightedGraph, "__post_init__", counted)
    return built


def test_geodesic_weight_builds_no_graph_from_w_when_connected(graph_file, capsys, monkeypatch):
    built = count_weighted_graphs(monkeypatch)
    for text in (P3, C4, K3):
        built.clear()
        code, _, err = run(capsys, "geodesic-weight", graph_file(text))
        assert code == 0, err
        assert len(built) == 1  # the parsed graph; W generates delta on its own table


def test_geodesic_weight_classifies_inf_entries_as_before(graph_file, capsys, monkeypatch):
    built = count_weighted_graphs(monkeypatch)
    # Disconnected: W's sweep leaves inf entries, so W is built to read its components.
    results = run_json(capsys, "geodesic-weight", graph_file("a b 1\nb c 2\nvertex d\nd e 3\n"))
    assert len(built) == 2
    assert results["results"]["generates"] is True and results["results"]["dominates"] is True
    assert results["results"]["witnesses"] == []
    table = results["results"]["geodesic_weight"]
    assert table["a"] == {"a": "0", "b": "1", "c": "inf", "d": "inf", "e": "inf"}
    assert table["d"] == {"a": "inf", "b": "inf", "c": "inf", "d": "0", "e": "3"}
    # A distance beyond float range is refused by the closure, before W.
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "geodesic-weight", graph_file("a b 1e308\nb c 1e308\n"), *extra)
        assert (code, out, err) == (2, "", "error: distance between a and c is outside float range\n")


def test_metric_and_resistance_oracles_read_each_exact_value_once(graph_file, capsys, monkeypatch):
    import graphmetry.core as core

    reads = []
    original = core.Graph._exact

    def counted(self, key):
        reads.append(key)
        return original(self, key)

    monkeypatch.setattr(core.Graph, "_exact", counted)
    text = "a b 1\nb c 0.5\na c 2\nd e 0.25\ne f 3\n"
    for argv in (("metric", "--all-pairs"), ("resistance", "--matrix", "--mode", "conductance")):
        reads.clear()
        run_json(capsys, *argv[:1], graph_file(text), *argv[1:], "--oracle")
        # Each component is scaled once for all of its sources and pairs.
        assert sorted(reads) == [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]


def test_resistance_matrix_oracle_asks_once_per_unordered_pair(graph_file, capsys, monkeypatch):
    import graphmetry.oracle as oracle

    asked = []
    original = oracle.spanning_tree_resistance

    def counted(b, x, y):
        asked.append((x, y))
        return original(b, x, y)

    monkeypatch.setattr(oracle, "spanning_tree_resistance", counted)
    k8 = "".join(f"v{u} v{v} {u + v + 1}\n" for u in range(8) for v in range(u + 1, 8))
    results = run_json(capsys, "resistance", graph_file(k8), "--matrix", "--mode", "conductance", "--oracle")
    assert sorted(asked) == [(x, y) for x in range(8) for y in range(x + 1, 8)]  # 28, not 56
    table = results["results"]["oracle"]
    assert all(table[x][y] == table[y][x] for x in table for y in table)
    assert [table[x][x] for x in table] == ["0/1"] * 8


def test_characterize_tree_and_block_run_no_fixpoint_closure(graph_file, capsys, monkeypatch):
    calls = count_closures(monkeypatch)
    for text in (P3, C4):
        calls.update(dict.fromkeys(CLOSURES, 0))
        run_json(capsys, "characterize", graph_file(text), "--tree", "--block")
        assert calls == {"all_pairs_metric": 0, "_one_sweep_metric": 2, "geodesic_weight": 0}


def test_characterize_triangle_separates_once(graph_file, capsys, monkeypatch):
    import graphmetry.cli as cli
    import graphmetry.structure as structure

    calls = []
    original = structure.separates

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (structure, cli):
        if hasattr(module, "separates"):
            monkeypatch.setattr(module, "separates", counted)
    for text in (P3, K3):
        calls.clear()
        run_json(capsys, "characterize", graph_file(text), "--triangle", "a", "b", "c")
        assert len(calls) == 1


def test_characterize_triangle_factors_once_and_solves_once(graph_file, capsys, monkeypatch):
    import scipy.linalg.lapack

    calls = []
    for name in ("dpotrf", "dpotrs"):
        original = getattr(scipy.linalg.lapack, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args[-1].shape))
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    for text, k in ((P3, 2), (K3, 2), (C4, 3)):  # k: the grounded block's size
        calls.clear()
        run_json(capsys, "characterize", graph_file(text), "--triangle", "a", "b", "c")
        assert calls == [("dpotrf", (k, k)), ("dpotrs", (k, 3))]  # three right-hand sides


def test_unverified_certificate_is_exit_5(graph_file, capsys, monkeypatch):
    import graphmetry.structure as structure

    monkeypatch.setattr(structure, "_verify_certificate", lambda b, cert: False)
    code, out, err = run(capsys, "characterize", graph_file(P3), "--triangle", "a", "b", "c")
    assert code == 5 and out == ""
    assert "internal error: separation certificate fails its own check" in err
    code, out, err = run(capsys, "characterize", graph_file(K3), "--triangle", "a", "b", "c")
    assert code == 0 and err == ""  # a witness path has no certificate to re-check


def test_numeric_token_on_a_labelled_graph_is_unknown(graph_file, capsys):
    code, out, err = run(capsys, "metric", graph_file(P3), "--source", "a", "--target", "2")
    assert code == 3 and out == "" and "unknown vertex '2'" in err
    code, out, err = run(capsys, "resistance", graph_file(P3), "--pair", "0", "c")
    assert code == 3 and out == "" and "unknown vertex '0'" in err


def test_geodesics_on_a_deep_path(graph_file, capsys):
    n = 3000
    path = graph_file("".join(f"v{i} v{i + 1} 1\n" for i in range(n - 1)))
    doc = run_json(capsys, "geodesics", path, "--source", "v0", "--target", f"v{n - 1}")
    assert doc["results"]["distance"] == str(n - 1)
    assert [p["path"] for p in doc["results"]["geodesics"]] == [" -> ".join(f"v{i}" for i in range(n))]
    assert doc["results"]["truncated"] is False


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("metric", "GRAPH", "--all-pairs", "--oracle"), 12),
        (("metric", "GRAPH", "--source", "v0", "--target", "v1", "--oracle"), 12),
        (("resistance", "GRAPH", "--pair", "v0", "v1", "--oracle"), 8),
        (("resistance", "GRAPH", "--matrix", "--oracle"), 8),
    ],
)
def test_oracle_caps_are_exact_sizes(graph_file, capsys, argv, cap):
    for n, expected in ((cap, 0), (cap + 1, 4)):
        path = graph_file("".join(f"v{i} v{i + 1} 1\n" for i in range(n - 1)))
        code, _, err = run(capsys, *[path if token == "GRAPH" else token for token in argv])
        assert code == expected, err
        assert expected == 0 or "capped" in err


@pytest.mark.parametrize(
    "results, diagnostics",
    [
        ({}, []),
        ({"table": {"é": {"é": "0", "\"q\"": "1"}, "\"q\"": {"é": "1", "\"q\"": "0"}}}, []),
        ({"row": {"back\\slash": "tab\there", "bell\x07": "nl\n", "☃": "\u2603"}}, ["note ☃"]),
        ({"empty": {}, "none": [], "nested": {"inner": {}}}, []),
        ({"flags": {"a": True, "b": False}, "count": 3, "mixed": {"s": "x", "n": 7}}, ["x"]),
        ({"paths": [{"path": "a -> b", "length": "1"}, {"path": "b", "length": "0"}], "ok": [[1, "x"], []]}, []),
    ],
)
def test_to_json_matches_the_indented_encoder(results, diagnostics):
    report = Report("cmd", "in\u00ff", results, diagnostics)
    doc = {"command": "cmd", "input": "in\u00ff", "results": results, "diagnostics": diagnostics}
    assert report.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def launched(*argv, **kwargs):
    """``python -m graphmetry.cli argv`` in a child process, ``src`` on its path."""
    paths = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **kwargs.pop("env", {})}
    return subprocess.Popen([sys.executable, "-m", "graphmetry.cli", *argv], env=env, **kwargs)


# 999 leaves: a 40 MB --matrix report, far past a pipe's buffer, whose
# triangle check has no pair to test.
STAR = "".join(f"hub v{i} {1 + i % 7}\n" for i in range(1, 1000))


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_a_reader_that_closes_early_ends_the_command_quietly(graph_file, mode):
    child = launched("resistance", graph_file(STAR), "--matrix", *mode, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.read(10)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (0, b"")
    assert head == (b'{\n  "comma' if mode else b"command: r")


def unwritable(argv, stdout, env=None):
    child = launched(*argv, stdout=stdout, stderr=subprocess.PIPE, env=env or {}, text=True)
    err = child.communicate(timeout=120)[1]
    return child.returncode, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_a_full_device_is_a_write_error(graph_file, mode):
    with open("/dev/full", "w") as full:
        code, err = unwritable(["metric", graph_file(P3), "--all-pairs", *mode], full)
    assert code == 1
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_an_unencodable_label_is_a_write_error(graph_file):
    path = graph_file("é b 1\nb c 2\n")
    ascii_only = {"PYTHONIOENCODING": "ascii"}
    code, err = unwritable(["metric", path, "--all-pairs"], subprocess.DEVNULL, ascii_only)
    assert code == 1
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert unwritable(["metric", path, "--all-pairs", "--json"], subprocess.DEVNULL, ascii_only) == (0, "")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin.edges"
    path.write_bytes(b"a b \xff\xfe1\n")
    code, out, err = run(capsys, "metric", str(path), "--all-pairs")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("scan", ["ball", "elf"])
@pytest.mark.parametrize("radius", ["nan", "-1", "-inf"])
def test_nan_or_negative_radius_is_input_error(capsys, scan, radius):
    code, out, err = run(capsys, "family", "unit-ray", "--mode", scan, f"--radius={radius}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "radius" in err


def test_parser_is_built_once_and_reused(graph_file, capsys):
    path = graph_file(C4)
    commands = [
        ["metric", path, "--all-pairs"],
        ["geodesic-weight", path, "--json"],
        ["metric"],  # argparse rejects it: SystemExit in between
        ["resistance", path, "--matrix"],
        ["family", "unit-star", "--radius", "2", "--json"],
        ["resistance", path, "--pair", "a", "c", "--json"],
        ["geodesics", path, "--source", "a", "--target", "c"],
        ["metric", path, "--source", "a", "--target", "c", "--json"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert build_parser() is build_parser()
    reused = [outcome(argv) for argv in commands]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0, 0, 0]


def spelled(labels, matrix) -> dict:
    """The dict of dicts a Table stands for, built cell by cell."""
    return {
        name: {other: fmt(value) for other, value in zip(labels, row.tolist())}
        for name, row in zip(labels, matrix)
    }


RENDER_TABLES = [
    (["a"], [[0.0]]),
    ([], np.empty((0, 0))),
    (["x", "y", "z"], [[0.0, -0.0, math.nan], [-0.0, math.inf, -math.inf], [math.nan, 1 / 3, 1e-300]]),
    ([str(i) for i in (9, 10, 2, 100, 1)], np.arange(25.0).reshape(5, 5) / 7),
    (["c", "b", "a"], np.asfortranarray(np.arange(9.0).reshape(3, 3))),
    (["é", '"q"', "back\\slash", "☃", "plain", "50%", "%s", "%%d"], np.full((8, 8), 2.5) - np.eye(8) * 2.5),
]


@pytest.mark.parametrize("labels, matrix", RENDER_TABLES)
def test_table_renders_as_its_dict_of_dicts(labels, matrix):
    matrix = np.asarray(matrix, dtype=float)
    table = Table(labels, matrix)
    cells = spelled(labels, matrix)
    report = Report("cmd", "in", {"table": table, "after": "1", "before": {"k": True}}, ["note"])
    reference = Report("cmd", "in", {"table": cells, "after": "1", "before": {"k": True}}, ["note"])
    doc = {"command": "cmd", "input": "in", "results": reference.results, "diagnostics": ["note"]}
    assert report.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert report.to_text() == reference.to_text()
    for prefix in ("", "top"):
        assert "".join(_render(prefix, table)) == "".join(_render(prefix, cells))


TABLE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e308, -1e308, 1 / 3, 2.5, 7.0]
TABLE_LABELS = ["a", "b", "é", "☃", '"q"', "back\\slash", "tab\there", "line\nbreak", "50%", "%s", "%%d", "\x7f"]


def random_table(rng, n):
    """A seeded table: labels mixing plain, escaped, %-bearing, non-ASCII and
    digit names (which sort as text), over an asymmetric matrix that repeats a
    few values and mixes in signed zeros, NaN, infinities and subnormals."""
    labels = rng.sample([str(i) for i in range(3 * n)] + TABLE_LABELS, n)
    pool = TABLE_VALUES + [rng.uniform(-10, 10) for _ in range(rng.choice([1, 3, 2 * n + 1]))]
    matrix = np.array([[rng.choice(pool) for _ in range(n)] for _ in range(n)]).reshape(n, n)
    return labels, matrix


def in_kernel_range(matrix) -> int:
    """How many distinct values of ``matrix`` lie in %.17g's fixed-notation range."""
    values = np.unique(np.asarray(matrix, dtype=float))
    return int(((values >= 1e-4) & (values < 1e17)).sum())


def block_values(table: Table) -> list[np.ndarray]:
    """The values of each of ``table``'s row blocks, in label order."""
    matrix = np.asarray(table.matrix, dtype=float)
    return [matrix[np.ix_(table.order[rows], table.order)] for rows, _ in table.blocks()]


@pytest.mark.parametrize("seed", range(202))
def test_random_tables_render_as_their_dict_of_dicts(seed):
    rng = random.Random(1900 + seed)
    n = 300 if seed % 50 == 0 else [0, 1, 2, 3, 17][seed % 5]  # n=300 spans two row blocks
    labels, matrix = random_table(rng, n)
    if seed == 200:  # values across every decade, enough of them for the digit kernel
        spread = [s * 10 ** rng.uniform(-6, 18) for s in rng.choices([1, 1, 1, -1], k=1200)]
        matrix = np.array([rng.choice(TABLE_VALUES + spread) for _ in range(40 * 40)]).reshape(40, 40)
        labels = rng.sample([str(i) for i in range(120)] + TABLE_LABELS, 40)
        assert in_kernel_range(matrix) >= _KERNEL_MIN
    if seed == 201:  # the kernel spells one row block, % the next, and one value lies in both
        labels = random_table(rng, 300)[0]
        matrix = np.array(rng.choices(TABLE_VALUES, k=300 * 300)).reshape(300, 300)
        order = Table(labels, matrix).order
        matrix[order[:2]] = SEEDED_IN_RANGE[:600].reshape(2, 300)
        matrix[order[-1], order[0]] = SEEDED_IN_RANGE[0]
        first, *_, last = block_values(Table(labels, matrix))
        assert in_kernel_range(first) >= _KERNEL_MIN > in_kernel_range(last)
        assert SEEDED_IN_RANGE[0] in first and SEEDED_IN_RANGE[0] in last
    table = Table(labels, matrix)
    cells = spelled(labels, matrix)
    report = Report("cmd", "in", {"table": table, "z": "1"}, [])
    reference = Report("cmd", "in", {"table": cells, "z": "1"}, [])
    doc = {"command": "cmd", "input": "in", "results": reference.results, "diagnostics": []}
    assert_same(report.to_json(), json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert_same(report.to_text(), reference.to_text())
    assert_same("".join(_render("top", table)), "".join(_render("top", cells)))


def test_a_large_table_renders_in_bounded_memory():
    rng = np.random.default_rng(600)
    report = Report("cmd", "in", {"table": Table([f"v{i}" for i in range(600)], rng.random((600, 600)))})
    tracemalloc.start()
    try:
        for as_json in (True, False):
            tracemalloc.reset_peak()
            sizes = [len(chunk) for chunk in report.chunks(as_json)]  # no chunk kept
            peak = tracemalloc.get_traced_memory()[1]
            assert sum(sizes) > 8e6 and max(sizes) < 4e6 and peak < 35e6, (as_json, max(sizes), peak)
    finally:
        tracemalloc.stop()


def kernel_inputs() -> dict[str, np.ndarray]:
    """Doubles in %.17g's fixed-notation range [1e-4, 1e17) where 17 correct
    digits are hardest to get, by kind."""
    rng = np.random.default_rng(2500)
    powers = np.array([float(Fraction(10) ** k) for k in range(-4, 18)])
    below = np.nextafter(powers, 0)
    ties = [1e15 + 0.25, 1e15 + 0.75, 2.0**52 + 0.5]
    for x in range(-4, 16):
        # m / 2**(17 - x) for odd m: times 10**(16 - x) it ends in exactly .5, a tie at 17 digits
        scale = 2 ** (17 - x)
        lo = math.ceil(Fraction(10) ** x * scale)
        hi = min(math.floor(Fraction(10) ** (x + 1) * scale), 2**53)
        ties += ((rng.integers(lo // 2, hi // 2, 200) * 2 + 1) / scale).tolist()
    return {
        "binades": np.ldexp(1 + rng.random((71, 300)), np.arange(-14, 57)[:, None]).ravel(),
        "powers of ten and neighbours": np.concatenate([powers, below, np.nextafter(powers, np.inf)]),
        "half-way ties": np.array(ties),
        "below a power of ten": np.concatenate([below - k * np.spacing(below) for k in range(50)]),
        "integers": np.r_[rng.integers(1, 2**53, 3000), 2**53, 2**53 - 1, 10**16, 10**16 - 1].astype(float),
        "short decimals": np.concatenate([np.round(rng.uniform(0, 1000, 300), k) for k in range(1, 9)]),
    }


KERNEL_INPUTS = kernel_inputs()
BINADES = KERNEL_INPUTS["binades"]
SEEDED_IN_RANGE = np.unique(BINADES[(BINADES >= 1e-4) & (BINADES < 1e17)])


@pytest.mark.parametrize("kind", list(KERNEL_INPUTS))
def test_fixed_notation_kernel_spells_as_percent_17g(kind):
    values = np.unique(KERNEL_INPUTS[kind])
    values = values[(values >= 1e-4) & (values < 1e17)]
    assert len(values) >= 40
    assert _fixed_17g(values) == ["%.17g" % v for v in values.tolist()]
    # Through a table, quoted in JSON and bare in text, beside enough seeded
    # values that the table takes the kernel's route.
    cells = np.concatenate([values, SEEDED_IN_RANGE[:_KERNEL_MIN]])
    side = math.isqrt(len(cells)) + 1
    matrix = np.resize(cells, (side, side))  # repeats the cells to fill it
    labels = [f"v{i}" for i in range(side)]
    assert in_kernel_range(matrix) >= _KERNEL_MIN
    table = Report("cmd", "in", {"t": Table(labels, matrix)})
    reference = Report("cmd", "in", {"t": spelled(labels, matrix)})
    doc = {"command": "cmd", "input": "in", "results": reference.results, "diagnostics": []}
    assert_same(table.to_json(), json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert_same(table.to_text(), reference.to_text())


@pytest.mark.parametrize("in_range", [_KERNEL_MIN - 1, _KERNEL_MIN, _KERNEL_MIN + 1])
def test_values_at_the_range_ends_and_the_size_selection(monkeypatch, in_range):
    kernel_sizes = []

    def counted(v):
        kernel_sizes.append(len(v))
        return _fixed_17g(v)

    monkeypatch.setattr(cli, "_fixed_17g", counted)
    ends = [1e-4, np.nextafter(1e-4, 1.0), np.nextafter(1e17, 0.0)]  # in range
    outside = [np.nextafter(1e-4, 0.0), 1e17, np.nextafter(1e17, np.inf), 0.0, -0.0, 5e-324, 1e-13,
               1.7e308, math.inf, -math.inf, math.nan, -1e-4, -1.0, -1e16]
    middle = SEEDED_IN_RANGE[: in_range - len(ends)]
    bits = np.unique(np.concatenate([ends, outside, middle]).view(np.int64))
    values = bits.view(np.float64).tolist()
    assert _spell(bits)[: len(values)].tolist() == [fmt(v) for v in values]
    assert kernel_sizes == ([in_range] if in_range >= _KERNEL_MIN else [])


def assert_same(got, want):
    """got == want, reported by the first differing item: pytest's full diff
    of two 90,000-line renderings runs for minutes."""
    if got != want:
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        end = first + (60 if isinstance(got, str) else 1)
        pytest.fail(f"first difference at item {first}: {got[first:end]!r} != {want[first:end]!r}")


OUT_OF_RANGE = {
    "subnormal": "a b 1e-320\nb c 1e-320\n",  # 1/b overflows
    "tiny": "a b 1e-308\nb c 1e-308\n",  # 1/b is finite, R(a, c) = 2e308 is not
    "huge": "a b 1e308\nb c 1e308\n",
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("subnormal", ("resistance", "--pair", "a", "c", "--maximizer")),
        ("subnormal", ("resistance", "--mode", "weight", "--pair", "a", "c")),
        ("tiny", ("resistance", "--pair", "a", "c")),
        ("tiny", ("resistance", "--matrix")),
        ("subnormal", ("characterize", "--tree")),
        ("subnormal", ("characterize", "--block")),
        ("subnormal", ("characterize", "--triangle", "a", "b", "c")),
        ("subnormal", ("metric", "--mode", "conductance", "--all-pairs")),
        ("tiny", ("resistance", "--mode", "weight", "--pair", "a", "c", "--maximizer")),
        ("huge", ("resistance", "--mode", "weight", "--matrix")),
    ],
)
def test_values_outside_float_range_are_input_errors(graph_file, capsys, name, argv):
    code, out, err = run(capsys, argv[0], graph_file(OUT_OF_RANGE[name]), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_beyond_float_range_has_infinite_discrepancy(graph_file, capsys):
    # delta(a, c) = 2e308 overflows to inf in floats but not in the exact lane.
    path = graph_file(OUT_OF_RANGE["huge"])
    doc = run_json(capsys, "metric", path, "--source", "a", "--target", "c", "--oracle")
    assert doc["results"]["oracle"] == f"{2 * 10**308}/1"
    assert doc["results"]["discrepancy"] == "inf"


def test_geodesic_weight_on_tiny_distances(graph_file, capsys):
    doc = run_json(capsys, "geodesic-weight", graph_file("a b 1e-10\nb c 1e-10\n"))
    table = doc["results"]["geodesic_weight"]
    assert table["a"]["b"] == table["b"]["c"] == fmt(1e-10)
    assert table["a"]["c"] == table["c"]["a"] == "inf"
    assert doc["results"]["generates"] and doc["results"]["dominates"]


@pytest.mark.parametrize(
    "argv",
    [
        ("metric", "--source", "a", "--target", "c"),
        ("metric", "--source", "c", "--target", "a", "--json"),
        ("geodesics", "--source", "a", "--target", "c"),
        ("metric", "--all-pairs"),
        ("geodesic-weight",),
    ],
)
def test_path_metric_overflow_is_input_error(graph_file, capsys, argv):
    path = graph_file(OUT_OF_RANGE["huge"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "outside float range" in err
    assert {"a", "c"} <= set(err.replace(",", " ").split())


def test_one_sweep_overflow_is_input_error_without_a_warning(graph_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "characterize", graph_file(OUT_OF_RANGE["tiny"]), "--tree")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "outside float range" in err


FAMILY_NAMES = ["unit-star", "decaying-star", "unit-ray", "decaying-ray"]


def family_argv(rng):
    """One ``family`` command line: builtin names and edge-case flag values,
    each invalid choice rare enough that most lines get past the others."""
    budget = rng.choice([0, 1, 2, 50, 2000, 2000, 2001])
    names = FAMILY_NAMES * 6 + ["unit-grid", "", "UNIT-STAR"]
    argv = ["family", rng.choice(names), "--mode", rng.choice(["ball", "elf"])]
    argv.append("--center=" + str(rng.choice([-1, 0, 0, budget - 1, budget])))
    radii = ["nan", "-1", "inf", "-0", "1e-320", "0.7071", "2.5", "1"]
    argv.append("--radius=" + rng.choice(radii))
    argv.append(f"--budget={budget}")
    if rng.random() < 0.5:
        argv.append("--threshold=" + str(rng.choice([0, 1, 10**9, 10**9])))
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def test_family_cli_contract_under_fuzzing(capsys):
    rng = random.Random(8080)
    threads = threading.active_count()
    codes = set()
    for _ in range(200):
        argv = family_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        captured = capsys.readouterr()
        codes.add(code)
        assert code in {0, 2, 3, 4}, argv
        assert "Traceback" not in captured.err, argv
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        if code == 0:
            assert captured.err == "" and captured.out, argv
        else:
            assert len(errors) == 1 and captured.out == "", argv
    assert codes == {0, 2, 3, 4}
    assert threading.active_count() == threads


@pytest.mark.parametrize("big, small", [("1", "1e-15"), ("1000", "1e-12")])
def test_geodesic_weight_keeps_two_long_edges_beside_a_short_one(graph_file, capsys, big, small):
    # fl(big + small) > big, so every edge is the unique geodesic between its
    # ends; each long edge has the other within the rounding slack, but not
    # with both legs strictly shorter.
    text = f"a b {big}\na c {big}\nb c {small}\n"
    doc = run_json(capsys, "geodesic-weight", graph_file(text))
    table = doc["results"]["geodesic_weight"]
    assert table["a"]["b"] == table["a"]["c"] == fmt(float(big))
    assert table["b"]["c"] == fmt(float(small))
    assert doc["results"]["generates"] and doc["results"]["dominates"]


def test_resistance_matrix_names_the_pair_beyond_float_range(graph_file, capsys):
    # R(a, b) = 1e308 is in range; only R(a, c) = 2e308 is not.
    path = graph_file(OUT_OF_RANGE["tiny"])
    code, out, err = run(capsys, "resistance", path, "--matrix")
    assert code == 2 and out == ""
    assert err == "error: resistance between a and c is outside float range\n"
    assert run(capsys, "resistance", path, "--pair", "a", "b")[0] == 0


@pytest.mark.parametrize("text", ["a b 20000\nb c 0.00001\n", "a b 1e15\nb c 1\n"])
def test_geodesic_weight_on_mixed_scales(graph_file, capsys, text):
    doc = run_json(capsys, "geodesic-weight", graph_file(text))
    table = doc["results"]["geodesic_weight"]
    (a, b, big), (_, c, small) = (line.split() for line in text.splitlines())
    assert table[a][b] == fmt(float(big)) and table[b][c] == fmt(float(small))
    assert table[a][c] == "inf"
    assert doc["results"]["generates"] and doc["results"]["dominates"]


@pytest.mark.parametrize(
    "text, argv",
    [
        ("x y 1e307\ny z 1e308\n", ("geodesic-weight",)),
        ("a d 0.5\na c 1e308\nb a 2\n", ("resistance", "--mode", "weight", "--matrix")),
        (
            "e c 1\n1 v 1e-308\nv c 3\n0 c 10\n",
            ("geodesics", "--mode", "conductance", "--source", "v", "--target", "e"),
        ),
    ],
)
def test_sums_beyond_float_range_raise_no_warning(graph_file, capsys, text, argv):
    # A sum that overflows to inf is never a shorter route, a vertex between, or a violation.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], graph_file(text), *argv[1:])
    assert code == 0 and err == "" and out


FUZZ_LABELS = ["a", "b", "c", "d", "0", "1", "7", "-3", "é", "日本", "vertex"]
FUZZ_VALUES = ["1", "2", "0.5", "3", "0.1", "10"]
FUZZ_EXTREMES = ["inf", "INF", "nan", "1e309", "5e-324", "1e-308", "1e-320", "1e308", "0", "-1"]
FUZZ_MALFORMED = ["a a 1", "a b", "a b 1 2", "a b x", "vertex", "a", "# a comment", "", "\t"]


def fuzz_file(rng):
    """One edge-list file and its labels: mostly consistent edges, mixed with
    extreme and invalid values, repeated and conflicting pairs, vertex lines,
    malformed lines and, now and then, a tail that is not UTF-8."""
    labels = rng.sample(FUZZ_LABELS, rng.randint(2, 6))
    lines, known = [], {}
    for _ in range(rng.randint(1, 10)):
        r = rng.random()
        u, v = rng.sample(labels, 2)
        if r < 0.62:
            pair = frozenset((u, v))
            if pair not in known or rng.random() < 0.1:
                known[pair] = rng.choice(FUZZ_VALUES)
            lines.append(f"{u} {v} {known[pair]}")
        elif r < 0.74:
            lines.append(f"{u} {v} {rng.choice(FUZZ_EXTREMES)}")
        elif r < 0.86 and lines:
            tokens = rng.choice(lines).split()
            if len(tokens) == 3:
                value = tokens[2] if rng.random() < 0.7 else rng.choice(FUZZ_VALUES)
                lines.append(f"{tokens[1]} {tokens[0]} {value}")
        elif r < 0.96:
            lines.append(f"vertex {u}")
        else:
            lines.append(rng.choice(FUZZ_MALFORMED))
    data = "\n".join(lines).encode()
    if rng.random() < 0.05:
        data += b"\nb \xff\xfe 1\n"
    return data, labels


def file_command_argv(rng, path, labels):
    """One command line over a fuzzed file; queried labels are sometimes absent."""
    def label():
        return rng.choice(labels) if rng.random() < 0.95 else "zz"

    command = rng.choice(["metric", "geodesics", "geodesic-weight", "resistance", "characterize"])
    if command == "metric":
        extra = [f"--source={label()}", f"--target={label()}"]
        extra = ["--all-pairs"] if rng.random() < 0.5 else extra
        extra += ["--oracle"] if rng.random() < 0.3 else []
    elif command == "geodesics":
        extra = [f"--source={label()}", f"--target={label()}", f"--cap={rng.choice([1, 3, 64])}"]
    elif command == "geodesic-weight":
        extra = []
    elif command == "resistance":
        extra = ["--matrix"] if rng.random() < 0.5 else ["--pair", label(), label()]
        extra += ["--oracle"] if rng.random() < 0.3 else []
        extra += ["--maximizer"] if "--pair" in extra and rng.random() < 0.3 else []
    else:
        extra = rng.choice([["--tree"], ["--block"], ["--tree", "--block"], ["--triangle"]])
        extra += [label() for _ in range(3)] if extra == ["--triangle"] else []
    mode = rng.choice([[], ["--mode", "weight"], ["--mode", "conductance"]])
    json_flag = ["--json"] if rng.random() < 0.5 else []
    return [command, path, *mode, *extra, *json_flag]


def test_file_commands_keep_the_exit_code_contract_under_fuzzing(tmp_path, capsys):
    rng = random.Random(9090)
    threads = threading.active_count()
    codes, seen = set(), set()
    for i in range(300):
        data, labels = fuzz_file(rng)
        path = tmp_path / f"fuzz{i}.edges"
        path.write_bytes(data)
        for _ in range(4):
            argv = file_command_argv(rng, str(path), labels)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            captured = capsys.readouterr()
            codes.add(code)
            mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "default"
            seen.add((argv[0], mode, argv[-1] == "--json"))
            context = (data, argv[:1] + argv[2:])
            assert code in {0, 2, 3, 4, 5}, context
            assert "Traceback" not in captured.err and not caught, context
            if code == 0:
                assert captured.err == "" and captured.out, context
            else:
                assert captured.out == "" and len(captured.err.splitlines()) == 1, context
                assert captured.err.startswith(("error: ", "internal error: ")), context
    assert {0, 2, 3} <= codes
    assert len(seen) == 5 * 3 * 2  # every command, in either mode or the default, both outputs
    assert threading.active_count() == threads


def test_any_other_toolkit_error_is_exit_3(graph_file, capsys, monkeypatch):
    import graphmetry.cli as cli

    class NoAnswer(GraphmetryError):
        pass

    def raising(*args):
        raise NoAnswer("no answer here")

    monkeypatch.setattr(cli, "path_metric", raising)
    code, out, err = run(capsys, "metric", graph_file(P3), "--source", "a", "--target", "c")
    assert code == 3 and out == ""
    assert err == "error: no answer here\n"


# Values a float sum absorbs (large + small == large): bad input, not a bug.
ABSORBED = [
    ("a b 1\nb c 1e-20\n", ("geodesic-weight",)),
    ("a b 1e-10\nb c 2e-10\na c 3e-10\nc d 1e-300\n", ("geodesic-weight",)),
    ("b d 0.1\nm d 1e-308\n", ("characterize", "--mode", "weight", "--tree")),
    ("vertex é 1e-308\nvertex 0 1e-320\né b 3\n", ("resistance", "--matrix")),
    ("d a 0.1\né d 1e308\na f 10\né f 0.1\n", ("characterize", "--mode", "conductance", "--block")),
    (
        "a é 0.1\nvertex d\n1 d 2\n1 vertex 2\né d 5e-324\nd 1 2\n",
        ("characterize", "--triangle", "1", "vertex", "é"),
    ),
    ("a e 1e308\nvertex e 0.5\na j 1\n", ("characterize", "--mode", "weight", "--tree")),
]


@pytest.mark.parametrize("text, argv", ABSORBED)
def test_absorbed_values_are_input_errors(graph_file, capsys, text, argv):
    code, out, err = run(capsys, argv[0], graph_file(text), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "too far apart for float sums" in err


def verdicts(doc: dict) -> dict:
    """The characterize results without the values that carry a unit."""
    results = {key: dict(value) for key, value in doc["results"].items()}
    results.get("block", {}).pop("certificate", None)
    for key in ("lhs", "rhs"):
        results.get("triangle", {}).pop(key, None)
    return results


CHECKS = ("--tree", "--block", "--triangle", "a", "b", "c")


@pytest.mark.parametrize(
    "text, mode",
    [(C4.replace(" 1\n", " 1e12\n"), "conductance"), (C4.replace(" 1\n", " 1e-12\n"), "weight")],
)
def test_scaled_four_cycle_keeps_its_verdicts(graph_file, capsys, text, mode):
    unit = run_json(capsys, "characterize", graph_file(C4), "--mode", mode, *CHECKS)
    scaled = run_json(capsys, "characterize", graph_file(text), "--mode", mode, *CHECKS)
    assert verdicts(scaled) == verdicts(unit)
    assert verdicts(unit)["tree"] == {"is_tree": False, "metrics_equal": False, "consistent": True}


def test_geodesics_of_a_tiny_triangle_keep_only_the_direct_path(graph_file, capsys):
    path = graph_file("a b 1e-13\nb c 1e-13\na c 1e-13\n")
    doc = run_json(capsys, "geodesics", path, "--source", "a", "--target", "c")
    assert [g["path"] for g in doc["results"]["geodesics"]] == ["a -> c"]


def scaled_text(b: ConductanceGraph, scale: float) -> str:
    return "".join(f"v{u} v{v} {c * scale!r}\n" for u, v, c in b.edges())


def test_answers_do_not_depend_on_the_unit(graph_file, capsys):
    # Scaling by a power of two is exact in floats, so every verdict, every
    # geodesic and every w_delta entry must carry over (w_delta scaled).
    rng = random.Random(2024)
    makers = [random_tree, random_block_graph, random_nontree]
    for i in range(9):
        g = makers[i % 3](rng, rng.randint(4, 8))
        g = ConductanceGraph(g.n, {key: rng.randint(1, 100) / 10 for key in g.b})
        x, y, z = rng.sample(range(g.n), 3)
        answers = {}
        for scale in (1.0, 2.0**-40, 2.0**40):
            path = graph_file(scaled_text(g, scale), f"g{i}.edges")
            for mode in ("weight", "conductance"):
                doc = run_json(
                    capsys, "characterize", path, "--mode", mode,
                    "--tree", "--block", "--triangle", f"v{x}", f"v{y}", f"v{z}",
                )
                answers[scale, mode] = verdicts(doc)
            doc = run_json(capsys, "geodesics", path, "--source", f"v{x}", "--target", f"v{z}")
            answers[scale, "geodesics"] = [p["path"] for p in doc["results"]["geodesics"]]
            results = run_json(capsys, "geodesic-weight", path)["results"]
            table = results.pop("geodesic_weight")
            answers[scale, "w_delta"] = results, {
                key: {col: float(value) / scale for col, value in row.items()}
                for key, row in table.items()
            }
        for key in ("weight", "conductance", "geodesics", "w_delta"):
            assert answers[2.0**-40, key] == answers[1.0, key] == answers[2.0**40, key], (i, key)


# Each input exits 5 ("this is a bug"): at mixed conductance scales the
# solve loses the low bits of R, so a verdict that holds exactly comes out
# inconsistent.  ROADMAP items 2 (block-cut tree) and 3 (subtraction-free
# elimination) are the mending; the change that mends one flips its test.
# The stiff path exits 5 at every length down to one unit edge.
EXIT_5 = {
    "stiff-path": (
        "".join(f"v{i} v{i + 1} 1\n" for i in range(100)) + "v100 v101 1e9\n",
        ("--tree",),
    ),
    "tiny-first-edge": ("v0 v1 1e-13\nv1 v2 0.001\nv2 v4 0.001\n", ("--tree",)),
    "eleven-vertex-tree": (
        "v0 v1 0.001\nv1 v2 50\nv2 v3 2\nv1 v4 30\nv1 v5 2000\nv5 v6 1\n"
        "v6 v7 3000\nv4 v8 0.03\nv6 v9 0.003\nv2 v10 50\n",
        ("--tree",),
    ),
    "tiny-triangle-leg": ("a b 1e-13\nb c 1\nc d 1\n", ("--triangle", "a", "d", "c")),
}


@pytest.mark.xfail(strict=True, reason="exits 5 until ROADMAP items 2 and 3 land")
@pytest.mark.parametrize("name", sorted(EXIT_5))
def test_mixed_scale_verdicts_are_consistent(graph_file, capsys, name):
    text, checks = EXIT_5[name]
    code, _, err = run(capsys, "characterize", graph_file(text), *checks)
    assert code == 0, err
