"""Self-test of the benchmark's checks and tracing.

    python3 perfbench/selftest.py

For one cycle of every workload it runs each op, requires the genuine
output to pass its check, then corrupts the output in several ways and
requires the runner to count every corrupted copy as a failed op, so a
``fail_ratio`` of 0 cannot pass vacuously.  It also traces single ops and
compares layer call counts with the counts read from the code, and checks
that BENCHMARK.json names exactly the metrics the runner prints.  Exits 1
on the first disagreement.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)
import graphmetry as gm  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def leaves(node, path=()):
    """Paths to the scalar leaves (and empty lists) of a JSON tree, sorted."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + (key,))
    elif isinstance(node, list) and node:
        for i, item in enumerate(node):
            yield from leaves(item, path + (i,))
    else:
        yield path


def mutate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return ["v0"]
    if "/" in value:  # p/q -> p/q + 1
        p, q = value.split("/")
        return f"{int(p) + int(q)}/{q}"
    try:
        return repr(float(value) * 1.5 + 1) if value != "inf" else "1"
    except ValueError:
        return value + "x"


def json_corruptions(doc: dict):
    """Corrupted copies: the first leaf under each results entry and under
    up to eight of its children (first, last and evenly between)."""
    seen = set()
    for top in sorted(doc["results"]):
        node = doc["results"][top]
        keys = sorted(node) if isinstance(node, dict) else []
        picks = sorted({keys[i * (len(keys) - 1) // 7] for i in range(8)}) if keys else []
        heads = [(top,)] + [(top, k) for k in picks]
        for head in heads:
            sub = doc["results"]
            for key in head:
                sub = sub[key]
            leaf = head + next(leaves(sub))
            if leaf in seen:
                continue
            seen.add(leaf)
            bad = copy.deepcopy(doc)
            parent = bad["results"]
            for key in leaf[:-1]:
                parent = parent[key]
            parent[leaf[-1]] = mutate(parent[leaf[-1]])
            yield "/".join(map(str, leaf)), json.dumps(bad)


def corruptions(op, result):
    if op.cli:
        rc, text = result
        yield "exit code 5", (5, text)
        if text.lstrip().startswith("{"):
            for where, bad in json_corruptions(json.loads(text)):
                yield where, (rc, bad)
        else:  # text rendering (geodesics)
            lines = text.splitlines()
            for i, line in enumerate(lines):
                key, value = line.split(": ", 1)
                if key.startswith(("distance", "truncated", "geodesics[0]")):
                    new = {"True": "False", "False": "True"}.get(value) or mutate(value)
                    bad = lines[:i] + [f"{key}: {new}"] + lines[i + 1 :]
                    yield key, (rc, "\n".join(bad) + "\n")
        return
    if isinstance(result, float):
        yield "value", result * 1.01 + 1e-3
    elif isinstance(result, gm.PotentialFunction):
        values = result.values.copy()
        values[0] += 1e-3
        yield "potential", gm.PotentialFunction(values)
    elif isinstance(result, gm.TriangleReport):
        yield "equal", dataclasses.replace(result, equal=not result.equal)
        yield "lhs", dataclasses.replace(result, lhs=result.lhs * 1.01)
    elif isinstance(result, gm.SeparationCertificate):
        yield "side", dataclasses.replace(result, side_x=result.side_x[:-1])
        yield "separator", gm.NotSeparated(gm.Path((result.side_x[0], result.side_z[0])))
    elif isinstance(result, gm.NotSeparated):
        yield "witness", gm.NotSeparated(gm.Path(tuple(reversed(result.witness.vertices))))
    elif isinstance(result, gm.ConductanceGraph):
        yield "conductances", gm.ConductanceGraph(result.n, {e: c + 7.0 for e, c in result.b.items()}, result.labels)
        yield "edge dropped", gm.ConductanceGraph(result.n, dict(list(result.b.items())[1:]), result.labels)
    elif isinstance(result, tuple):  # (geodesic set, prefix extraction)
        found, extraction = result
        yield "multiplicity", (found, dataclasses.replace(extraction, multiplicities=[m + 1 for m in extraction.multiplicities]))
        yield "geodesics", (dataclasses.replace(found, paths=found.paths[:-1]), extraction)
    else:
        fail(f"no corruption for {type(result).__name__}")


def check_corruptions(name: str, wl) -> None:
    """Every op of the first cycle runs (session state depends on order);
    the first op of each kind and size is corrupted."""
    for phase in wl.phases:
        tried = set()
        for op in phase.ops[: phase.cycle]:
            key = (op.kind, op.graph.n if op.graph else None)
            if key in tried:
                run.run_op(op, run.Record())
                continue
            tried.add(key)
            record = run.Record()
            holder = {}
            genuine = workloads.Op(op.kind, lambda op=op: holder.setdefault("r", op.run()), op.check, op.graph, op.cli)
            run.run_op(genuine, record)
            if record.failed:
                fail(f"{name} {op.kind}: genuine output rejected: {record.failures}")
            caught = 0
            for where, bad in corruptions(op, holder["r"]):
                record = run.Record()
                run.run_op(workloads.Op(op.kind, lambda bad=bad: bad, op.check, op.graph, op.cli), record)
                if record.failed != 1:
                    fail(f"{name} {op.kind}: corrupted {where} passed the check")
                caught += 1
            print(f"{name} {op.kind}: genuine passes, {caught} corruptions counted as failures")


def traced_counts(op) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        record = run.Record()
        run.run_op(op, record, tracer)
    finally:
        tracer.uninstall()
    if record.failed:
        fail(f"traced {op.kind} failed: {record.failures}")
    return {name[: -len(".calls_per_op")]: v for name, v in tracer.summary(1).items() if name.endswith(".calls_per_op")}


def check_counts(workdir: str) -> None:
    pm = workloads.build("pathmetric-cli", 0, os.path.join(workdir, "pm"), 0)
    gw = next(op for op in pm.phases[0].ops if op.kind == "geodesic-weight")
    calls = traced_counts(gw)
    if (calls["pathmetric.all_pairs_metric"], calls["pathmetric.geodesic_weight"]) != (3, 2):
        fail(f"geodesic-weight op: {calls['pathmetric.all_pairs_metric']} closures, {calls['pathmetric.geodesic_weight']} w_delta")
    rc = workloads.build("resistance-cli", 0, os.path.join(workdir, "rc"), 0)
    many = next(op for op in rc.phases[0].ops if op.graph is not None and op.graph.structure == "components")
    calls = traced_counts(many)
    comps = many.graph.descriptor()["components"]
    if calls["resistance.laplacian_matrix"] != comps:
        fail(f"resistance --matrix on {comps} components built {calls['resistance.laplacian_matrix']} Laplacians")
    rs = workloads.build("resistance-session", 0, os.path.join(workdir, "rs"), 0)
    for kind in ("resistance", "maximizer"):
        op = next(op for op in rs.phases[0].ops if op.kind == kind)
        calls = traced_counts(op)
        if calls["resistance.laplacian_matrix"] != 1:
            fail(f"session {kind}: {calls['resistance.laplacian_matrix']} Laplacian builds")
    print("traced call counts match the code: 3 closures and 2 w_delta per geodesic-weight, "
          "one Laplacian per component of resistance --matrix, one per resistance or maximizer query")


def check_manifest() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if end_to_end != run.END_TO_END_UNITS:
        fail(f"BENCHMARK.json end_to_end differs from run.py: {end_to_end}")
    if per_layer != {name: unit for name, unit, _ in tracing.REPORTED}:
        fail("BENCHMARK.json per_layer differs from tracing.REPORTED")
    if {w["name"] for w in manifest["workloads"]} != set(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    print("BENCHMARK.json names the metrics and workloads the runner reports")


def main() -> int:
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        check_manifest()
        for name in workloads.WORKLOADS:
            check_corruptions(name, workloads.build(name, 0, os.path.join(workdir, name), 0))
        check_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
