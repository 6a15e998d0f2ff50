"""Span recorder for the traced run, built from the benchmark's own files.

Tracing wraps the public calls into each layer of ``rydcorr`` while one op
runs and removes the wrappers afterwards, so untraced ops execute the
program exactly as shipped. A function is wrapped wherever it is looked up:
every ``rydcorr`` module that bound the function object under some name gets
the wrapper under that name (``rydcorr.cli.g25`` as well as
``rydcorr.correlators.g25``), and ``Liouvillian.propagator`` is wrapped on
the class. ``model`` is reached only through ``liouville.build_*`` and is
measured there.

Spans stay in memory as (name, start, end, parent, op) rows and are written
out once, at the end of the run. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name) of every wrapped public call
TARGETS = (
    ("algebra", "expm", "algebra.expm"),
    ("algebra", "eig", "algebra.eig"),
    ("liouville", "build_liouvillian", "liouville.build"),
    ("liouville", "build_adjoint_liouvillian", "liouville.build"),
    ("liouville", "steady_state", "liouville.steady_state"),
    ("liouville", "spectrum", "liouville.spectrum"),
    ("correlators", "g2", "correlators.g2"),
    ("correlators", "g15", "correlators.g15"),
    ("correlators", "g3", "correlators.g3"),
    ("correlators", "g25", "correlators.g25"),
    ("correlators", "amplitude_ratio", "correlators.amplitude_ratio"),
    ("pqs", "g3_via_pqs", "pqs.g3_via_pqs"),
    ("pqs", "g25_via_pqs", "pqs.g25_via_pqs"),
    ("trajectories", "mcwf_run", "trajectories.mcwf_run"),
    ("trajectories", "estimate_g2", "trajectories.estimate_g2"),
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "_audit_conditional_path", "cli.audit"),
)
PROPAGATOR = "liouville.propagator"
OP = "op"

# layer groups whose self time is reported as a share of the traced op time
SHARES = {
    "share.correlators": ("correlators.g2", "correlators.g15", "correlators.g3",
                          "correlators.g25", "correlators.amplitude_ratio"),
    "share.algebra.expm": ("algebra.expm",),
    "share.propagator": (PROPAGATOR,),
    "share.cli": ("cli.main", "cli.audit", "cli.write_csv"),
    "share.pqs": ("pqs.g3_via_pqs", "pqs.g25_via_pqs"),
    "share.setup": ("liouville.build", "liouville.steady_state", "liouville.spectrum",
                    "algebra.eig"),
    "share.trajectories": ("trajectories.mcwf_run", "trajectories.estimate_g2"),
    "share.untraced": (OP,),
}

# per-layer metrics, in the order BENCHMARK.json lists them
SELF_TIMES = (
    "correlators.g2", "correlators.g15", "correlators.g3", "correlators.g25",
    "correlators.amplitude_ratio", "algebra.expm", "algebra.eig", PROPAGATOR,
    "liouville.build", "liouville.steady_state", "liouville.spectrum",
    "cli.main", "cli.audit", "cli.write_csv", "pqs.g3_via_pqs", "pqs.g25_via_pqs",
    "trajectories.mcwf_run", "trajectories.estimate_g2",
)


class Tracer:
    """Records the spans of the ops run through :meth:`run_op`; one instance per run."""

    def __init__(self, rydcorr_package):
        self.pkg = rydcorr_package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name_id, start, end, parent, op]
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.ops = 0
        self.untraced_pair_seconds = 0.0
        self.traced_pair_seconds = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.cached_dt: dict[int, tuple] = {}  # id(generator) -> (generator, set of dt)
        self._patches: list[tuple] = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_propagator(self, args, result):
        lv, dt = args[0], float(args[1])
        entry = self.cached_dt.setdefault(id(lv), (lv, set()))
        entry[1].add(dt)

    def _after_write_csv(self, args, result):
        self.counters["cli.write_csv.bytes"] += os.path.getsize(args[1])

    def _after_mcwf_run(self, args, result):
        steps = round(result.duration / result.step)
        self.counters["trajectories.steps"] += steps
        self.counters["trajectories.traj_steps"] += steps * result.count
        self.counters["trajectories.clicks"] += sum(len(r) for r in result.records)

    def _install(self):
        hooks = {"cli.write_csv": self._after_write_csv,
                 "trajectories.mcwf_run": self._after_mcwf_run}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "rydcorr" or n.startswith("rydcorr."))]
        for mod_name, attr, name in TARGETS:
            orig = getattr(getattr(self.pkg, mod_name), attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        cls = self.pkg.liouville.Liouvillian
        orig = cls.propagator
        self._patches.append((cls, "propagator", orig))
        cls.propagator = self._wrap(PROPAGATOR, orig, self._after_propagator)

    def _uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def run_op(self, fn, *args):
        """Run ``fn(*args)`` as one traced op; returns (result, seconds)."""
        self.op_id = self.ops
        self.ops += 1
        self._install()
        span = [self._name_id(OP), 0.0, 0.0, -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            span[1] = time.perf_counter()
            result = fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self._uninstall()
            self.counters["liouville.propagator.distinct_dt"] += sum(
                len(dts) for _, dts in self.cached_dt.values())
            self.cached_dt.clear()
        return result, span[2] - span[1]

    def add_pair(self, untraced_s, traced_s):
        """One op timed both ways, for the tracing overhead."""
        self.untraced_pair_seconds += untraced_s
        self.traced_pair_seconds += traced_s

    # --- results ----------------------------------------------------------

    def write(self, path):
        """Write every span as a tab-separated row; ``parent`` is the parent's row
        number (0 = first span, -1 = none) and ``op`` the traced op's index."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def metrics(self) -> dict:
        """Per-layer metrics, each averaged per traced op."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(self.spans)
        expm_id = self.name_ids.get("algebra.expm")
        prop_id = self.name_ids.get(PROPAGATOR)
        missed = set()
        for nid, start, end, parent, _ in self.spans:
            dur = end - start
            calls[nid] += 1
            total[nid] += dur
            if parent >= 0:
                child[parent] += dur
                if nid == expm_id and self.spans[parent][0] == prop_id:
                    missed.add(parent)
        self_time = [0.0] * n_names
        for idx, (nid, start, end, _, _) in enumerate(self.spans):
            self_time[nid] += (end - start) - child[idx]

        ops = max(self.ops, 1)

        def by_name(values, name):
            nid = self.name_ids.get(name)
            return values[nid] if nid is not None else 0

        out = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = by_name(self_time, name) / ops
        for name in ("algebra.expm", "algebra.eig", PROPAGATOR):
            out[f"{name}.calls"] = by_name(calls, name) / ops
        prop_calls = by_name(calls, PROPAGATOR)
        out[f"{PROPAGATOR}.misses"] = len(missed) / ops
        out[f"{PROPAGATOR}.hit_ratio"] = (
            (prop_calls - len(missed)) / prop_calls if prop_calls else 0.0)
        out[f"{PROPAGATOR}.distinct_dt"] = self.counters["liouville.propagator.distinct_dt"] / ops
        out["cli.audit.states_checked"] = self.counters["cli.audit.states_checked"] / ops
        out["cli.write_csv.bytes"] = self.counters["cli.write_csv.bytes"] / ops
        out["pqs.route_dev_max"] = self.maxima["pqs.route_dev_max"]
        out["pqs.series_over_c06"] = self.counters["pqs.series_over_c06"] / ops
        steps = self.counters["trajectories.steps"]
        run_s = by_name(total, "trajectories.mcwf_run")
        out["trajectories.step_us"] = 1e6 * run_s / steps if steps else 0.0
        out["trajectories.steps_per_s"] = (
            self.counters["trajectories.traj_steps"] / run_s if run_s else 0.0)
        out["trajectories.clicks"] = self.counters["trajectories.clicks"] / ops
        op_total = by_name(total, OP)
        for share, names in SHARES.items():
            busy = sum(by_name(self_time, n) for n in names)
            out[share] = busy / op_total if op_total else 0.0
        out["trace.ops"] = float(self.ops)
        out["trace.op_s"] = op_total / ops
        out["trace.untraced_s"] = by_name(self_time, OP) / ops
        out["trace.overhead_ratio"] = (
            self.traced_pair_seconds / self.untraced_pair_seconds
            if self.untraced_pair_seconds else 0.0)
        return out
