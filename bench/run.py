"""Benchmark of the digital_pde library: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``
of the checkout the script lives in, never from an installed copy.

A run sets up (import, then input generation repeated and timed), runs
one untimed warm-up pass, then runs passes until ``--seconds`` have
elapsed (always at least one pass), timing each operation of a pass
on its own.  The outputs of every timed
operation are checked after timing.  With ``--trace 0`` the result
carries the end-to-end metrics; with ``--trace 1`` the window is split
into untraced and traced passes and the result carries the per-layer
metrics of the traced ones.  The last line of standard output is the
result object; the line before it holds the details (environment,
op-latency percentile and sample count, failures), which are also
written to ``.bench_out/`` together with the recorded spans.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5  # input generation is repeated; its median counts
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it


def single_blas_thread() -> None:
    """Run the OpenBLAS and OpenMP pools of this process on one thread.

    The benchmark is one process with one thread: a second BLAS thread
    would compete with other work on the host for the second vCPU and
    make the dense products the noisiest part of a run.  Must run
    before numpy is imported; the environment of the calling shell is
    not touched.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def import_library():
    """Import digital_pde from this checkout; None when it is not there."""
    package = os.path.join(SRC, "digital_pde")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import digital_pde
    if os.path.dirname(os.path.abspath(digital_pde.__file__)) != package:
        return None
    return digital_pde


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "machine": platform.machine(),
    }


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would sit
    below the median, so the maximum is reported instead (percentile
    100, nothing beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def median_op_pass(ops) -> float:
    """The sum over a pass's operations of each one's median time."""
    times = {}
    for label, dt, _ in ops:
        times.setdefault(label, []).append(dt)
    return sum(statistics.median(t) for t in times.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    single_blas_thread()
    if import_library() is None:
        print(f"error: no digital_pde package under {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    import_s = time.perf_counter() - SETUP_START

    generation = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        items = workload.generate(args.seed)
        generation.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(generation)

    t = time.perf_counter()
    workload.run_pass(items)
    warmup_s = time.perf_counter() - t

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "import_s": import_s,
              "generation_s": generation, "warmup_s": warmup_s}
    tracer = None
    if args.trace:
        walls, ops = workloads.run_window(workload, items, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_walls, traced_ops = workloads.run_window(workload, items, args.seconds / 2)
        finally:
            tracer.uninstall()
    else:
        walls, ops = workloads.run_window(workload, items, args.seconds)
        traced_ops = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Latencies come from untraced passes only; every output is checked.
    latencies = [dt for _, dt, _ in ops]
    best_pass_s, median_pass_s = workloads.fastest_pass(ops), median_op_pass(ops)
    ops += traced_ops
    failures = workloads.check_ops(workload, items, ops)
    tail_s, tail_pct = tail(latencies)
    detail.update({
        "passes": len(walls),
        "pass_s": {"each": walls, "median": statistics.median(walls), "unit": "s"},
        "median_op_pass_s": {"value": median_pass_s, "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms", "percentile": tail_pct,
                       "samples": len(latencies)},
        "fail_ratio": {"value": len(failures) / len(ops), "ops": len(ops)},
        "failures": failures[:20],
    })
    rate = workloads.steps_per_s(ops)
    if rate is not None:
        detail["steps_per_s"] = {"value": rate, "unit": "1/s"}

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "best_pass_s": {"value": best_pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics, totals = spans.layer_metrics(tracer, len(traced_walls), traced_walls, walls)
        detail["traced_passes"] = len(traced_walls)
        detail["layers"] = totals
        solve = [totals[f"solver.{f}"]["total_s"] for f in ("solve_ivp", "solve_bvp")]
        if totals["solver.step"]["calls"] and sum(solve):
            detail["traced_steps_per_s"] = {
                "value": totals["solver.step"]["calls"] / sum(solve), "unit": "1/s"}

    os.makedirs(OUT_DIR, exist_ok=True)
    # One file set per workload and mode, so repeated runs do not pile up.
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    if tracer is not None:
        tracer.save(stem + ".spans.npz")
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": metrics}
    op_ms = {}
    for label, dt, _ in ops:
        op_ms.setdefault(label, []).append(1e3 * dt)
    with open(stem + ".json", "w") as f:
        json.dump({"detail": detail, "op_ms": op_ms, "result": result}, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
