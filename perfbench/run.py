#!/usr/bin/env python3
"""Benchmark of the tcladder command line, driven in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload, one table
    python3 perfbench/run.py --workload NAME --smoke  # tiny inputs, one operation

A workload is one closed-loop client: operations, each a call of
``tcladder.cli.main`` (the entry point of the ``tcladder`` command and of
``scripts/``), run back to back in this process until their summed wall time
reaches ``--seconds``.  BLAS is pinned to one thread.  Inputs come from
``--seed`` before timing starts, and every operation's output is checked
against the independent model in ``oracle.py`` outside its timed call.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each input
twice, once plain and once with spans recorded around the layer functions
listed in ``spans.py``, and reports per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample count behind each metric.  Results
and spans are also written to ``.perfbench-out/`` under the repository root.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# fixed here, not read from tcladder.verify, so the metric names in
# BENCHMARK.json stay put
CHECK_IDS = (
    "c01-dressed-energies", "c02-coherence-oracle", "c03-population-oracle",
    "c04-singlet-width", "c05-sc-boundary", "c06-splitting-limit",
    "c07-perturbative-order", "c08-position-merging", "c09-master-equation",
    "c10-qrt-identity", "c11-spectrum-peaks", "c12-negative-control",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single operation, to check the harness")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS copy (numpy's and scipy's) will use."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                query = getattr(lib, symbol, None)
                if query is not None:
                    found[path.name] = int(query())
                    break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "tcladder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_loaded": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Seconds from spawning a fresh process until it has imported
    ``tcladder.cli`` and built the workload's inputs, as a CLI user pays on
    every call.  The child stamps its finish on the system-wide monotonic
    clock, so the waiting loop behind ``timeout`` does not round the result."""
    code = (
        "import sys, time; from pathlib import Path; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        "import tcladder.cli, workloads; "
        f"workloads.WORKLOADS[{workload!r}]({seed}, {smoke}, Path('.')); "
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    )
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              timeout=120, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def run_op(cli, calls: list[list[str]]) -> tuple[float, str, str | None]:
    """Time one operation; returns (seconds, captured stdout, error or None)."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            for argv in calls:
                code = cli.main(argv)
                if code != 0:
                    error = f"{argv[0]} exited {code}"
                    break
    except Exception:  # an operation that raises is a failed operation
        error = traceback.format_exc()
    return time.perf_counter() - start, buf.getvalue(), error


def run_workload(args) -> tuple[dict, dict]:
    setup = measure_setup(args.workload, args.seed, args.smoke)
    sys.path[:0] = [str(SRC)]
    import tcladder.cli as cli
    import tcladder.verify
    from spans import Tracer

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, out_dir)
    tracer = Tracer() if args.trace else None
    plain, traced, failures = [], [], []
    failed = 0

    def one(k: int, trace_it: bool) -> float:
        nonlocal failed
        if trace_it:
            tracer.op = k
            tracer.install()
        try:
            seconds, stdout, error = run_op(cli, workload.calls(k))
        finally:
            if trace_it:
                tracer.uninstall()
        if error:
            problems = [error]
        else:
            try:
                problems = workload.check(k, stdout)
            except Exception:  # unreadable output is a failed operation
                problems = [traceback.format_exc()]
        failed += bool(problems)
        failures.extend(f"op {k}{' traced' if trace_it else ''}: {p}" for p in problems)
        (traced if trace_it else plain).append(seconds)
        return seconds

    # in a traced run each input runs plain and traced, alternating the order
    orders = ((False, True), (True, False)) if args.trace else ((False,),)
    busy, k = 0.0, 0
    while k == 0 or (not args.smoke and busy < args.seconds):
        for trace_it in orders[k % len(orders)]:
            busy += one(k, trace_it)
        k += 1

    attempted = len(plain) + len(traced)
    samples = {"setup_s": len(setup)}
    if args.trace:
        metrics = tracer.layer_metrics()
        for check_id in CHECK_IDS:
            seconds = 0.0
            if args.workload == "verify-gate" and not args.smoke:
                start = time.perf_counter()
                tcladder.verify.run_checks([check_id])
                seconds = time.perf_counter() - start
            metrics[f"verify.{check_id}.s"] = seconds
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        units = {"self_s": "s", "s": "s", "out_mb": "MB", "overhead_frac": "fraction"}
        result = {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
                  for name, value in metrics.items()}
        samples.update(traced_ops=len(traced), plain_ops=len(plain))
        tracer.write(OUT / f"{args.workload}-spans.json")  # latest traced run only
    else:
        result = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "latency_p50_s": {"value": statistics.median(plain), "unit": "s"},
            "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        samples.update(latency_p50_s=len(plain), ops_per_s=len(plain), peak_rss_mb=1)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": samples,
        "setup_s": setup,
        "latencies_s": plain,
        "traced_latencies_s": traced,
        "error_rate": failed / attempted,
        "failures": failures,
    }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }
    return detail, summary


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> dict:
    """Run each workload in its own process and print one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {done.returncode}")
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}:")
        rows = dict(summary["metrics"])
        rows["error_rate"] = {"value": summary["failed"] / summary["attempted"],
                              "unit": "fraction"}
        for metric, entry in rows.items():
            print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
    return combined


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tcladder" / "cli.py").is_file():
        print(f"perfbench: no tcladder sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    detail, summary = run_workload(args)
    for failure in detail["failures"]:
        print(f"perfbench: {failure}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, **summary}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
