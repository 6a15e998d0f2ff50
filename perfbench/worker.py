"""One measured workload process: set-up, timed ops, output checks, one JSON line.

Started by ``run.py`` with BLAS already pinned to one thread. With
``--setup-only`` it stops after set-up (import plus input generation) and
reports only that time. Otherwise it prepares the checks, runs one untimed
warm-up op, then runs rounds of ops until ``--seconds`` have passed and
checks each op's output outside its timed region.

With ``--trace 1`` every op runs twice, untraced and then traced, so the
tracing overhead is measured on the same inputs; the per-layer metrics come
from the traced copies only.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports rydcorr)
from tracer import Tracer  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "rydcorr": workloads.rydcorr.__version__,
    }


def run_ops(workload, args, tracer):
    """Timed loop; returns the per-op records and the counter totals."""
    durations, points = [], []
    attempted = failed = 0
    errors = []
    totals = {}
    inputs = workload.inputs()
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_size):
            item = next(inputs)
            attempted += 1
            try:
                t0 = time.perf_counter()
                result = workload.run(item)
                seconds = time.perf_counter() - t0
                if tracer is not None:  # check the untraced copy, then trace the same input
                    n, counters = workload.check(item, result)
                    del result
                    attempted += 1
                    result, traced_s = tracer.run_op(workload.run, item)
                    tracer.add_pair(seconds, traced_s)
                n, counters = workload.check(item, result)
            except Exception as exc:  # an op that raises counts as failed; keep going
                failed += 1
                if len(errors) < 5:
                    errors.append("".join(traceback.format_exception_only(exc)).strip())
                continue
            durations.append(seconds)
            points.append(n)
            for key, value in counters.items():
                if key.endswith("_max"):
                    totals[key] = max(totals.get(key, 0.0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        if time.perf_counter() - start >= args.seconds:
            break
    return durations, points, attempted, failed, errors, totals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work_dir = Path(args.work_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    workload.prepare()
    t0 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t0

    tracer = Tracer(workloads.rydcorr) if args.trace else None
    durations, points, attempted, failed, errors, totals = run_ops(workload, args, tracer)
    busy = sum(durations)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup_s,
        "warmup_op_s": warmup_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "ops_timed": len(durations),
        "op_s": durations,
        "op_p50_s": statistics.median(durations) if durations else None,
        "op_p90_s": (statistics.quantiles(durations, n=10)[-1] if len(durations) > 1
                     else (durations[0] if durations else None)),
        "points_per_s": sum(points) / busy if busy else None,
        "traj_steps_per_s": totals["traj_steps"] / busy if "traj_steps" in totals else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_counters": totals,
    }
    if tracer is not None:
        for key, value in totals.items():
            if key.endswith("_max"):
                tracer.maxima[key] = value
            else:
                tracer.counters[key] += value
        trace_path = work_dir / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["layers"] = tracer.metrics()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
