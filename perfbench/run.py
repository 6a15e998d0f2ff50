"""rydcorr benchmark entry point.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads: ``figures``, ``route_scan``, ``mcwf`` (see workloads.py for why
each exists), or ``all`` to run the three in turn. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

BLAS is pinned to one thread here, before any process imports numpy: with
two OpenBLAS threads on a two-core machine the 81x81 kernels run several
times slower. Each workload runs in its own process, so its peak memory is
its own. Set-up (import plus input generation) is timed in fresh processes
after one cold start that fills the byte-code cache; ``setup_s`` is the
median of the warm ones. Op timings are warm: one untimed warm-up op runs
first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``# result``, holds the full report with the environment
(core count, BLAS threads, numpy, scipy and OpenBLAS versions).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("figures", "route_scan", "mcwf")
WARM_SETUPS = 5
SETUP_TIMEOUT_S = 20
SLACK_S = 140  # beyond --seconds; keeps a 30 s run, set-up included, under 180 s

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.startswith("share.") or name.endswith(("_ratio", "route_dev_max")):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_us"):
        return "us"
    return "count"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(work_dir):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(work_dir.parent / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args, workload, work_dir, extra, timeout):
    timeout = min(timeout, args.deadline - time.monotonic())
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(work_dir), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload):
    """Set-up timings, then the measured worker; returns the worker's report."""
    base = ROOT / ".bench_build" / "perfbench"
    work_dir = base / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setups = []
        cold = None
        if not args.trace:
            cold = run_worker(args, workload, work_dir, ["--setup-only"], SETUP_TIMEOUT_S)
            for _ in range(WARM_SETUPS):
                setups.append(run_worker(args, workload, work_dir, ["--setup-only"],
                                         SETUP_TIMEOUT_S)["setup_s"])
        report = run_worker(args, workload, work_dir, [], args.seconds + 120)
    finally:
        for path in work_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
    if not report["ops_timed"]:
        raise BenchError(f"{workload}: every op failed: {report['errors']}")
    if cold is not None:
        setups.append(report["setup_s"])
        report["setup_cold_s"] = cold["setup_s"]
        report["setup_warm_s"] = setups
        report["setup_s"] = statistics.median(setups)
    report["timings"] = {
        "setup_s": (f"warm: median of {len(setups)} processes after one cold start"
                    if setups else "one process; cold if it is the first run in this checkout"),
        "ops": "warm: after one untimed warm-up op",
    }
    return report


def metrics_of(report, trace):
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in report["layers"].items()}
    return {k: {"value": report[k], "unit": unit} for k, unit in END_TO_END.items()}


def print_report(report, metrics):
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['ops_timed']} timed ops, {report['failed']} of {report['attempted']} failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {report['failed'] / report['attempted']:.6g} failed/attempted")
    if report.get("traj_steps_per_s"):
        print(f"  {'traj_steps_per_s':40s} {report['traj_steps_per_s']:.6g} 1/s")
    counts = report["check_counters"]
    if "pqs.series_checked" in counts:
        print(f"  {'route series over criterion 06':40s} {counts['pqs.series_over_c06']} of "
              f"{counts['pqs.series_checked']} (worst {counts['pqs.route_dev_max']:.3g}x its "
              "1e-8 bound)")
    for err in report["errors"]:
        print(f"  failed op: {err}")
    print("# result " + json.dumps(report))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    args.deadline = time.monotonic() + (args.seconds + SLACK_S) * len(names)

    if not (ROOT / "src" / "rydcorr" / "__init__.py").is_file():
        print(f"run.py: no rydcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            report = run_workload(args, name)
            ms = metrics_of(report, args.trace)
            print_report(report, ms)
            correct = correct and report["failed"] == 0
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in ms.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
