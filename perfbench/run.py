"""The qtriang benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload catalog|braided|requests \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qtriang is imported from ``src/``.
The seed shuffles the order of the workload's items and nothing else, so
every output must match ``golden.json`` under every seed.  The run makes as
many whole timed passes over the items as end nearest to ``--seconds`` (at
least one) and reports medians over passes.  Every time is rescaled to a
nominal host speed by ``hostspeed``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
set-up time (median of several fresh processes, each importing qtriang,
loading the inputs and running one untimed warm-up item), items per second,
per-item latency quantiles and peak RSS.  With ``--trace 1`` the timed
passes are followed by one pass under the tracer, and the last line carries
the per-layer metrics; the span dump goes to ``.perfbench_out/``.  The line
before the last records the machine, load and run parameters.

Regenerate the golden record with ``python3 perfbench/regen.py``; test the
benchmark itself with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cyclotomic.mul.calls": "count",
    "cyclotomic.add.calls": "count",
    "cyclotomic.embed.calls": "count",
    "cyclotomic.mixed_ratio": "ratio",
    "cyclotomic.reduced.calls": "count",
    "cyclotomic.inverse.calls": "count",
    "linalg.matmul.calls": "count",
    "linalg.matmul.madds": "count",
    "linalg.matmul.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "hopf.mul.calls": "count",
    "hopf.mul.term_pairs": "count",
    "hopf.mul.self_s": "s",
    "hopf.inverse.calls": "count",
    "hopf.inverse.self_s": "s",
    "rmatrix.build_r.calls": "count",
    "rmatrix.build_r.self_s": "s",
    "rmatrix.verify_qt.calls": "count",
    "rmatrix.verify_qt.self_s": "s",
    "rmatrix.markov.self_s": "s",
    "rmatrix.koszul_twist.self_s": "s",
    "classify.enumerate.self_s": "s",
    "classify.distinct_ratio": "ratio",
    "charring.braided_build.self_s": "s",
    "charring.braided_validate.self_s": "s",
    "charring.exterior.self_s": "s",
    "charring.cyclic.self_s": "s",
    "charring.class_fn.self_s": "s",
    "jsonio.parse.self_s": "s",
    "jsonio.emit.self_s": "s",
    "jsonio.scalar_to_json.calls": "count",
    "cli.main.self_s": "s",
    "groups.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "braided", "requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--only", default="", help="comma-separated groups; restricts the items (for tests)"
    )
    parser.add_argument("--golden", default=None, help="golden record to check against")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


@contextmanager
def work_directory():
    """A per-process directory in the checkout for request files and outputs."""
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(args, workdir: str):
    """Import qtriang, load the inputs, run one untimed warm-up item.

    Returns the items in seeded order and the workload's golden records.
    """
    import workloads

    inputs = workloads.load_json(workloads.INPUTS_PATH)
    golden = workloads.load_json(args.golden or workloads.GOLDEN_PATH)[args.workload]
    items = workloads.build_items(args.workload, inputs, workdir)
    if args.only:
        groups = set(args.only.split(","))
        items = [item for item in items if item.group in groups]
    if not items:
        raise SystemExit("no items selected")
    try:
        items[0].run()
    except Exception as exc:  # the timed passes will count it as failed
        print(f"warm-up item {items[0].id} raised {exc!r}", file=sys.stderr)
    order = list(items)
    random.Random(args.seed).shuffle(order)
    return order, golden


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    failures: list = field(default_factory=list)
    unexpected: int = 0
    speed: list = field(default_factory=list)


def run_pass(items, golden: dict, tracer=None) -> PassResult:
    """Run every item once, timing each call and checking it afterwards.

    Latencies are in seconds at the nominal host speed (see ``hostspeed``).
    A traced pass probes the host only between items, so that no probe's
    time lands in a span.
    """
    import workloads

    result = PassResult()
    interval_s = None if tracer else hostspeed.INTERVAL_S
    with hostspeed.SpeedTimer(interval_s) as timer:
        for item in items:
            out, exc, elapsed = timer.time(item.run)
            if tracer is not None:
                tracer.active = False
            record = workloads.record_of(item, out, exc)
            if tracer is not None:
                tracer.active = True
            result.latencies.append(elapsed)
            result.busy_s += elapsed
            result.attempted += item.weight
            expected = dict(golden.get(item.id, {"missing_from_golden_record": True}))
            known_defect = expected.pop("known_defect", None)
            if record != expected:
                result.failed += item.weight
                result.failures.append(item.id)
                if known_defect is None:
                    result.unexpected += 1
    result.speed = timer.factors
    return result


def setup_samples(args) -> list[float]:
    """Set-up seconds of fresh processes, from spawn to ready-to-time."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
    ]
    if args.only:
        cmd += ["--only", args.only]
    if args.golden:
        cmd += ["--golden", args.golden]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.probe()
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        # CLOCK_MONOTONIC is shared by all processes on the machine.
        ready = float(proc.stdout.split()[-1]) - start
        samples.append(ready * hostspeed.NOMINAL_S / ((before + hostspeed.probe()) / 2))
    return samples


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(os.path.join(ROOT, ".git", ref))
        if not head:
            packed = _read(os.path.join(ROOT, ".git", "packed-refs"))
            head = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(ref)), "")
    return head or "unknown (not a git checkout)"


def machine_meta(args) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": _read("/proc/loadavg"),
        "commit": _commit(),
    }


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    required = (
        os.path.join(SRC, "qtriang", "__init__.py"),
        os.path.join(HERE, "inputs.json"),
        args.golden or os.path.join(HERE, "golden.json"),
    )
    missing = [path for path in required if not os.path.isfile(path)]
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # Every workload runs in this one single-threaded process.
    threads_env = os.environ.pop("QTRIANG_THREADS", None)
    sys.path.insert(0, SRC)

    if args.setup_only:
        with work_directory() as workdir:
            set_up(args, workdir)
            print(time.monotonic(), flush=True)
        return 0

    meta = machine_meta(args)
    meta["qtriang_threads_removed"] = threads_env
    setup = [] if args.trace else setup_samples(args)
    passes = []
    traced = None
    with work_directory() as workdir:
        items, golden = set_up(args, workdir)
        # Whole passes, as many as end nearest to --seconds (at least one).
        started = time.perf_counter()
        while True:
            passes.append(run_pass(items, golden))
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(items, golden, tracer)
            finally:
                tracer.uninstall()

    runs = passes + ([traced] if traced else [])
    # Medians over passes, so that one disturbed pass moves neither.
    items_per_s = statistics.median(p.attempted / p.busy_s for p in passes)
    latencies = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    meta.update(
        passes=len(passes),
        traced_passes=1 if traced else 0,
        items_per_pass=len(items),
        latency_samples=len(latencies),
        threads=threading.active_count(),
        loadavg_end=_read("/proc/loadavg"),
        failed_items=sorted({i for p in runs for i in p.failures}),
        host_speed_factor=statistics.median(f for p in passes for f in p.speed),
    )
    if traced:
        overhead = (traced.attempted / traced.busy_s) / items_per_s
        layer = tracer.layer_metrics()
        layer["trace.overhead_ratio"] = overhead
        os.makedirs(OUT_DIR, exist_ok=True)
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(dump, meta)
        meta["span_dump"] = os.path.relpath(dump, ROOT)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        meta["setup_samples_s"] = setup
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": items_per_s,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p95_ms": quantile(latencies, 0.95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not any(p.unexpected for p in runs),
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(p.failed for p in runs),
        "metrics": metrics,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
