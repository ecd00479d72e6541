"""Benchmark runner: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload pathmetric-cli --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported, op times in seconds scaled to a reference host speed by the gauge
in ``gauge.py``; with ``--trace 1`` whole cycles run untraced and then the same
number of following cycles run traced, and the per-layer metrics are
reported.  Every op's output is checked against an independent reference
outside the op timer.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p10": "s",
    "peak_rss_mb": "MB",
}

# One BLAS thread: the host gives the benchmark a few shared cores, and a
# second OpenBLAS thread beside the interpreter measures the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class Terminated(BaseException):
    """SIGTERM, raised as an exception that no op handler catches (the CLI
    wrapper catches SystemExit, which argparse raises)."""


def terminate(signum, frame):
    raise Terminated


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Record:
    """Wall and CPU seconds per op, and how many ops failed their check."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.ops: list = []
        self.start: list[float] = []
        self.output_bytes = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops_per_s(self) -> float:
        return len(self.wall) / sum(self.wall)


def run_op(op, record: Record, tracer=None) -> None:
    op_id = len(record.wall)
    if tracer is not None:
        tracer.begin_op(op_id)
    c0 = time.process_time()
    t0 = time.perf_counter()
    record.start.append(t0)
    try:
        result = op.run()
        error = None
    except Exception as exc:  # an exception escaping the program is a failed op
        result, error = None, exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.end_op()
    record.wall.append(t1 - t0)
    record.cpu.append(c1 - c0)
    record.ops.append(op)
    if error is None and op.cli:
        record.output_bytes += len(result[1].encode())
    if error is None:
        try:
            op.check(result)
            return
        except Exception as exc:  # any check error counts against the op
            error = exc
    record.failed += 1
    record.failures.append(f"{op.kind} #{op_id}: {type(error).__name__}: {error}")


def run_timed(phases, seconds: float, record: Record, gauge) -> None:
    """Each phase gets an equal share of the time; ops run until it is spent.
    The host-speed gauge is sampled between ops, outside the op timer."""
    for phase in phases:
        deadline = time.perf_counter() + seconds / len(phases)
        for op in phase.ops:
            if time.perf_counter() >= deadline:
                break
            gauge.sample()
            run_op(op, record)


def run_traced(phases, seconds: float, tracer) -> tuple[Record, Record]:
    """Per phase: whole cycles untraced for half its share, then as many
    following cycles traced.  Whole cycles keep per-op counts exact."""
    plain, traced = Record(), Record()
    for phase in phases:
        deadline = time.perf_counter() + seconds / (2 * len(phases))
        cycles = 0
        while 2 * (cycles + 1) * phase.cycle <= len(phase.ops) and (cycles == 0 or time.perf_counter() < deadline):
            for op in phase.ops[cycles * phase.cycle : (cycles + 1) * phase.cycle]:
                run_op(op, plain)
            cycles += 1
        tracer.install()
        try:
            for op in phase.ops[cycles * phase.cycle : 2 * cycles * phase.cycle]:
                run_op(op, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def import_seconds() -> float:
    """Time of ``import graphmetry`` (numpy and scipy included) in a fresh
    interpreter, as each command of a user pays it."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import graphmetry; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def environment() -> dict:
    import ctypes
    import networkx
    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and line.split()[-1].endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            blas.append({"lib": os.path.basename(path), "config": config().decode(), "threads": threads()})
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "openblas": blas,
    }


def descriptors(graphs) -> list[dict]:
    """Per-input descriptors, grouped: identical descriptors are counted."""
    counts: dict[str, int] = {}
    for g in graphs:
        key = json.dumps(g.descriptor(), sort_keys=True)
        counts[key] = counts.get(key, 0) + 1
    return [dict(json.loads(key), inputs=c) for key, c in sorted(counts.items())]


def slot(op) -> str:
    """Ops of one slot do the same work up to the seed: same kind, and for
    graph inputs the same structure, weights and size."""
    if op.slot or op.graph is None:
        return op.slot or op.kind
    d = op.graph.descriptor()
    size = "" if d["structure"] == "components" else f" n={d['n']}"
    return f"{op.kind} {d['structure']} {d['weights']}{size}"


def by_slot(record: Record) -> dict[str, list[float]]:
    slots: dict[str, list[float]] = {}
    for op, t in zip(record.ops, record.wall):
        slots.setdefault(slot(op), []).append(t)
    return slots


def quantile(times: list[float], q: float) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[round(100 * q) - 1]


def slot_weights(phases) -> dict[str, float]:
    """Each slot's share of the planned op stream, phases weighted alike."""
    weights: dict[str, float] = {}
    for phase in phases:
        for op in phase.ops:
            key = slot(op)
            weights[key] = weights.get(key, 0.0) + 1.0 / (len(phase.ops) * len(phases))
    return weights


def slot_quantile(slots: dict[str, list[float]], weights: dict[str, float], q: float) -> float:
    """Quantile ``q`` of each slot's op times, averaged with the slots'
    planned shares as weights: the op time of the workload's mix at that
    quantile.

    A low quantile of one slot at a time is what stays put on a shared
    host: it skips the ops that a neighbour's burst stretched, and unlike a
    quantile over all ops mixed it does not jump between slots of different
    speed.
    """
    total = sum(weights[name] for name in slots)
    return sum(weights[name] * quantile(ts, q) for name, ts in slots.items()) / total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the work directory is removed.
    signal.signal(signal.SIGTERM, terminate)
    if not os.path.isfile(os.path.join(SRC, "graphmetry", "__init__.py")):
        print(f"error: no graphmetry sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphmetry  # noqa: F401  (timed in fresh interpreters, see import_seconds)

    import gauge as host
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, SETUP_REPEATS)
        speed = host.Gauge()
        preps = []
        for warm_up in wl.warm_ups:
            speed.sample()
            gc.collect()  # each set-up starts from the same collector state
            warm = Record()
            imported = import_seconds()
            replayed = wl.replay_setup()
            run_op(warm_up, warm)  # its check is not part of set-up
            preps.append(imported + replayed + warm.wall[0])
            if warm.failed:
                print(f"error: warm-up op failed: {warm.failures[0]}", file=sys.stderr)
                return 1
        setup_s = statistics.median(preps)

        if args.trace:
            tracer = tracing.Tracer()
            record, traced = run_traced(wl.phases, args.seconds, tracer)
            values = tracer.summary(len(traced.wall))
            values["cli.output_bytes_per_op"] = traced.output_bytes / len(traced.wall)
            values["trace.overhead_ratio"] = record.ops_per_s() / traced.ops_per_s()
            metrics = {name: metric(values[name], unit) for name, unit, _ in tracing.REPORTED}
            attempted = len(record.wall) + len(traced.wall)
            failed = record.failed + traced.failed
            failures = record.failures + traced.failures
        else:
            record = Record()
            run_timed(wl.phases, args.seconds, record, speed)
            times = record.wall
            weights = slot_weights(wl.phases)
            raw = by_slot(record)
            scaled: dict[str, list[float]] = {}
            for op, t, t0 in zip(record.ops, record.wall, record.start):
                scaled.setdefault(slot(op), []).append(speed.reference_seconds(t, t0))
            metrics = {
                "setup_s": setup_s,
                "op_s.p10": slot_quantile(scaled, weights, 0.10),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            attempted, failed, failures = len(times), record.failed, record.failures
            # Printed, not gated: slow spells of the host move these by a
            # quarter to a half from run to run.
            print(f"gauge.p10 = {speed.p10():.6g} s ({len(speed.samples)} samples; reference {host.REFERENCE_S} s)")
            print("set-ups " + " ".join(f"{p:.4g}" for p in preps) + " s")
            print(f"op_s.p10 unscaled = {slot_quantile(raw, weights, 0.10):.6g} s")
            print(f"op_s.p50 = {statistics.median(times):.6g} s (all ops, unscaled)")
            print(f"op_s.p90 = {statistics.quantiles(times, n=10)[-1]:.6g} s (all ops, unscaled)")
            print(f"ops_per_s = {record.ops_per_s():.6g} 1/s")
            print(f"cpu_s_per_op = {sum(record.cpu) / len(times):.6g} s")

        ran = record.ops + (traced.ops if args.trace else [])
        used = [op.graph for op in ran if op.graph is not None]
        print("environment " + json.dumps(environment(), sort_keys=True))
        for d in descriptors(used):
            print("input " + json.dumps(d, sort_keys=True))
        for name, ts in sorted(by_slot(record).items()):
            print(
                f"op {name}: samples={len(ts)} p10={quantile(ts, 0.1):.6f}s"
                f" p50={quantile(ts, 0.5):.6f}s max={max(ts):.6f}s")
        for line in failures[:20]:
            print("FAILED " + line)
        print(f"op_s.samples = {len(record.wall)} ops")
        print(f"fail_ratio = {failed / attempted:.6g} ratio (failed {failed} of {attempted})")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
