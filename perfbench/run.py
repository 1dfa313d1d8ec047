#!/usr/bin/env python3
"""Benchmark for domsplit: one workload per process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload dom-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload

The program under test is imported from ``src/`` of the same checkout.  The
workload's inputs are built from ``--seed`` during set-up; each op's output
is checked against ground truth known from the construction of the input.

``--trace 0`` runs whole passes of ops round-robin over the workload's cases
until ``--seconds`` have gone by, and reports the end-to-end metrics; every
case weighs the same in them.  ``--trace 1`` runs whole passes over the cases
untraced for half of ``--seconds``, then the same passes with every public
domsplit function wrapped (see tracer.py), and reports per-layer metrics per
op, kernel microbenchmarks and the tracing overhead.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time the benchmark reports is normalised: while each op, the import
and each set-up run, a fixed reference kernel is sampled every 10 ms, and the
wall time is scaled to a machine on which that kernel takes a fixed time (see
reference.py).  On a shared host the speed of a core flips by about 1.7x
every few seconds; the normalisation takes that out, so two runs of the same
code agree.  The raw wall figures are printed on the ``wall:`` line.
"""

import os

# Pin BLAS / OpenMP pools to one thread before numpy is imported; the load is
# one single-threaded client.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("dom-long", "cli-fleet", "ap-audit")
SETUP_REPEATS = 5
P90_MIN_OPS = 100  # p90 is reported only with at least ten samples beyond it


def closed_loop(cases, stop, run=lambda fn: fn(), on_result=None):
    """Runs the cases round-robin, one op at a time, until stop(ops, elapsed_s).

    Returns (wall seconds per op, normalised seconds per op, number of failed
    ops); see reference.py for the normalisation.  An op fails when it raises
    or its output fails the case's check; checks run outside the timed region.
    """
    meter = reference.Meter()
    times: list[float] = []
    norm: list[float] = []
    failed = 0
    reported: set[str] = set()
    start = time.perf_counter()
    while True:
        case = cases[len(times) % len(cases)]

        def attempt():
            try:
                return run(case.run), None
            except Exception:
                return None, traceback.format_exc()

        (result, error), wall, normalised = meter.time(attempt)
        times.append(wall)
        norm.append(normalised)
        if error is None and on_result is not None:
            on_result(result)
        if error is not None or not case.check(result):
            failed += 1
            if case.label not in reported:
                reported.add(case.label)
                why = f"raised:\n{error}" if error else "failed its output check"
                print(f"op {case.label} {why}", file=sys.stderr)
        if stop(len(times), time.perf_counter() - start):
            return times, norm, failed


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def end_to_end(norm, setup_s) -> dict:
    """The end-to-end metrics; every time is normalised (see reference.py)."""
    return {
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "op_s_p50": (statistics.median(norm), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, seed, seconds, cases, build_s, entries):
    """Untraced passes, kernel microbenchmarks, then the same passes traced.

    Every time it reports is normalised: each section's wall times are scaled
    by that section's ratio of normalised to wall seconds.  Times inside the
    traced passes include the tracing overhead and the reference samples.
    """
    import kernels
    from tracer import Tracer
    from workloads import CliOutput, is_nonstrict

    n = len(cases)
    _, untraced, failed_u = closed_loop(cases, lambda i, t: i % n == 0 and t >= seconds / 2)
    passes = len(untraced) // n
    kernel, kernel_wall, kernel_norm = reference.Meter().time(lambda: kernels.kernel_us(seed))

    cli = {"bytes": 0, "nonstrict": 0}

    def tally(result):
        if isinstance(result, CliOutput):
            cli["bytes"] += len(result.payload.encode("utf-8"))
            cli["nonstrict"] += is_nonstrict(result.payload)

    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced, failed_t = closed_loop(cases, lambda i, t: i == passes * n,
                                       run=tracer.run_op, on_result=tally)
    finally:
        tracer.uninstall()

    ops = len(traced)
    speed = sum(traced) / sum(traced_wall)
    metrics = {name: (value * speed if unit == "s/op" else value, unit)
               for name, (value, unit) in tracer.layer_metrics().items()}
    speed = kernel_norm / kernel_wall
    metrics.update({name: (us * speed, "us") for name, us in kernel.items()})
    metrics.update({
        "generators.build_s": (build_s, "s"),
        "generators.entries": (entries, "count"),
        "cli.bytes_out": (cli["bytes"] / ops, "bytes/op"),
        "cli.nonstrict_docs": (cli["nonstrict"] / ops, "count/op"),
        "trace.overhead_ratio": (sum(traced) / sum(untraced), "ratio"),
    })

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans, "w", encoding="utf-8") as fh:
        for op, name, parent, t0, t1 in tracer.spans:
            fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                 "start_s": t0, "end_s": t1}) + "\n")
    print(f"traced {ops} ops in {passes} passes; normalised seconds untraced "
          f"{sum(untraced):.3f} s, traced {sum(traced):.3f} s; "
          f"spans in {spans.relative_to(BENCH_DIR.parent)}")
    return metrics, len(untraced) + ops, failed_u + failed_t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="'all' runs every workload, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            argv = ["--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *argv]).returncode
            if code:
                return code
        return 0

    if not (SRC / "domsplit" / "__init__.py").is_file():
        print(f"perfbench: no domsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def load():
        import domsplit
        import workloads
        return domsplit, workloads

    reference.warm_up()
    meter = reference.Meter()
    (domsplit, workloads), import_wall, import_s = meter.time(load)
    if Path(domsplit.__file__).resolve().parent != (SRC / "domsplit").resolve():
        print(f"perfbench: imported domsplit from {domsplit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setup_wall, setup_norm, build_norm = [], [], []
        for _ in range(SETUP_REPEATS):
            (cases, stats), wall, norm = meter.time(
                lambda: workloads.setup(args.workload, args.seed, workdir))
            setup_wall.append(wall)
            setup_norm.append(norm)
            build_norm.append(stats.build_s * norm / wall)
        setup_s = import_s + statistics.median(setup_norm)
        print(f"set-up: import {import_wall:.4f} s wall, repeats "
              f"{[round(t, 4) for t in setup_wall]} s wall, {len(cases)} cases")

        if args.trace:
            metrics, attempted, failed = traced_run(
                args.workload, args.seed, args.seconds, cases,
                statistics.median(build_norm), stats.entries)
        else:
            n = len(cases)
            times, norm, failed = closed_loop(cases, lambda i, t: i % n == 0 and t >= args.seconds)
            attempted = len(times)
            metrics = end_to_end(norm, setup_s)
            print(f"wall: ops_per_s {attempted / sum(times):.6g} 1/s, "
                  f"op_s_p50 {statistics.median(times):.6g} s, "
                  f"set-up {import_wall + statistics.median(setup_wall):.6g} s")
            if attempted >= P90_MIN_OPS:
                p90 = statistics.quantiles(norm, n=10)[8]
                print(f"op_s_p90 {p90:.6f} s (n={attempted})")
            else:
                print(f"op_s_p90 not reported: n={attempted} < {P90_MIN_OPS}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
