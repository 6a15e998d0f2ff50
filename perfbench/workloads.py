"""The three benchmark workloads: inputs from a seed, one op, and its output check.

Each workload exists to expose different open items of ROADMAP.md:

* ``figures`` -- the user path: the eight ``rydcorr figure`` recipes run in
  process through ``rydcorr.cli.main``. Its time goes to the regression
  chains, a hit-heavy propagator cache and the CLI invariant audit, so it
  exposes item 3 (the audit reusing the correlator's chains, one insertion
  kernel) and item 4 (spectral evaluation of the regression route).
* ``route_scan`` -- seeded parameter points, each on a fresh generator, so
  the propagator cache mostly misses and the per-generator set-up (SVD, LU,
  ``eig``) and the PQS route carry the time. It exposes item 2 (honest
  failures across parameter space; route-check failures count as failed
  ops) and item 4, including the cost item 4 adds: ``eig`` on every
  generator.
* ``mcwf`` -- large trajectory batches at criterion 09's bright parameters,
  then ``estimate_g2``; it uses almost nothing but ``trajectories`` and
  exposes item 5 (the waiting-time integrator and the vectorised pair
  count).

An op returns what the program produced; ``check`` then verifies it outside
the timed region and returns (points delivered, counters), or raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import rydcorr
import rydcorr.cli

HERE = Path(__file__).resolve().parent
FIGURE_REFERENCE = HERE / "reference" / "figures.json.gz"

# criterion 06: 1e-8 relative, measured against a 1e-5-of-peak floor
ROUTE_RTOL = 1e-8
ROUTE_FLOOR = 1e-5
# The route_scan gate. Criterion 06's 1e-8 is set at the reference parameters;
# at random points a decade away, g25 has a roundoff tail beyond it. Of
# 5,384 points on 81-point grids, 3 had a g25 (1,1,2) series over 1e-8, by
# 1.08x, 1.18x and 3.08x. Against an extended-precision (80-bit) evaluation,
# regression was off by 0.5x, 0.9x and 0.7x the 1e-8 bound and PQS by 1.6x,
# 0.2x and 3.7x. All three were late in the window (tau >= 0.9 T), at values
# 4e-5 of the peak or less, with absolute errors of at most 7e-13 of the
# peak: that is roundoff, not a wrong result. So an op fails at 1e-6, 30x
# beyond the worst seen, and criterion 06's own verdict is kept as a count.
ROUTE_GATE_RTOL = 1e-6


class CheckFailed(Exception):
    """An op's output failed its check."""


def relative_deviation(a, b, rtol=ROUTE_RTOL):
    """Worst |a-b| as a fraction of rtol*max(|a|,|b|), floored at 1e-5 of the peak.

    Values below 1 pass. This is the rule of criterion 06.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    peak = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    ref = np.maximum(np.maximum(np.abs(a), np.abs(b)), ROUTE_FLOOR * peak)
    return float(np.max(np.abs(a - b) / (rtol * ref)))


def read_series_csv(path):
    """Header lines and the (tau, value) columns of one CLI series file."""
    lines = Path(path).read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return lines[:2], rows.reshape(-1, 2)


# --- figures ------------------------------------------------------------------

class Figures:
    """The eight figure recipes, run in passes in a seeded order."""

    name = "figures"
    round_size = len(rydcorr.cli.FIGURES)  # ops run in whole passes

    def __init__(self, seed, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.order = [str(f) for _ in range(64)
                      for f in rng.permutation(rydcorr.cli.FIGURES)]
        self.count = 0
        self.reference = None

    def inputs(self):
        while True:
            yield from self.order

    def prepare(self):
        with gzip.open(FIGURE_REFERENCE, "rt") as fh:
            self.reference = json.load(fh)

    def warmup(self):
        shutil.rmtree(self.run("fig2")[1])

    def run(self, figure):
        self.count += 1
        out = self.work_dir / f"op{self.count}"
        code = rydcorr.cli.main(["figure", figure, "--out", str(out)])
        return code, out

    def check(self, figure, result):
        code, out = result
        try:
            if code != 0:
                raise CheckFailed(f"{figure}: exit code {code}")
            manifest = dict(
                line.split(" = ", 1)
                for line in (out / f"{figure}.manifest").read_text().splitlines())
            if manifest.get("invariant.overall") != "pass":
                raise CheckFailed(f"{figure}: invariant.overall is not pass")
            expected = self.reference[figure]
            produced = sorted(p.name for p in out.glob("*.csv"))
            if produced != sorted(expected):
                raise CheckFailed(f"{figure}: outputs {produced} != {sorted(expected)}")
            points = 0
            for name, (header, tau, values) in expected.items():
                got_header, rows = read_series_csv(out / name)
                if got_header != header:
                    raise CheckFailed(f"{name}: header {got_header} != {header}")
                if rows.shape[0] != len(tau):
                    raise CheckFailed(f"{name}: {rows.shape[0]} rows, reference has {len(tau)}")
                dev = max(relative_deviation(rows[:, 0], tau),
                          relative_deviation(rows[:, 1], values))
                if dev >= 1.0:
                    raise CheckFailed(f"{name}: deviates from the reference at "
                                      f"{dev:.2f}x the 1e-8 bound")
                points += rows.shape[0]
            return points, {"cli.audit.states_checked":
                            int(manifest["invariant.states_checked"])}
        finally:
            shutil.rmtree(out, ignore_errors=True)


# --- route_scan -----------------------------------------------------------------

REFERENCE_RATES = {"omega1": 0.2, "omega2": 5.0, "v12": 1.0, "gamma2": 1e-4, "gamma_ph": 1e-4}
T_PERIODS = (4.0, 16.0)     # log-uniform range of T, in Rabi periods
ROUTE_GRID_POINTS = 81      # fixed tau grid size on [0, T]
ROUTE_ATOMS = ((1, 2, 2), (1, 1, 2))
THETA = math.pi / 2


class RouteScan:
    """Seeded log-uniform parameter points; both routes, checked against each other."""

    name = "route_scan"
    round_size = 1

    def __init__(self, seed, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.points = []
        for _ in range(4096):
            rates = {k: v * 10.0 ** rng.uniform(-1.0, 1.0) for k, v in REFERENCE_RATES.items()}
            periods = math.exp(rng.uniform(*np.log(T_PERIODS)))
            self.points.append((rates, periods))

    def inputs(self):
        while True:
            yield from self.points

    def prepare(self):
        pass

    def warmup(self):
        self.run(({**REFERENCE_RATES}, 8.0))

    def run(self, point):
        rates, periods = point
        p = rydcorr.model.ModelParams(**rates)
        lv = rydcorr.liouville.build_liouvillian(p)
        lv_adj = rydcorr.liouville.build_adjoint_liouvillian(p)
        rydcorr.liouville.steady_state(lv)
        rydcorr.liouville.spectrum(lv)
        T = periods * 2 * math.pi / p.rabi
        grid = np.linspace(0.0, T, ROUTE_GRID_POINTS)
        pairs = {}
        for atoms in ROUTE_ATOMS:
            pairs[("g3", atoms)] = (
                rydcorr.correlators.g3(lv, *atoms, grid, T),
                rydcorr.pqs.g3_via_pqs(lv, lv_adj, *atoms, grid, T))
            pairs[("g25", atoms)] = (
                rydcorr.correlators.g25(lv, *atoms, THETA, grid, T),
                rydcorr.pqs.g25_via_pqs(lv, lv_adj, *atoms, THETA, grid, T))
        return pairs

    def check(self, point, pairs):
        """Fail at ROUTE_GATE_RTOL; count the series over criterion 06's 1e-8."""
        worst = 0.0
        over_c06 = 0
        points = 0
        for (kind, atoms), (regression, conditioned) in pairs.items():
            dev = relative_deviation(regression.values, conditioned.values)
            worst = max(worst, dev)
            over_c06 += dev >= 1.0
            if dev * ROUTE_RTOL >= ROUTE_GATE_RTOL:
                rates, periods = point
                raise CheckFailed(
                    f"{kind} {atoms}: routes differ at {dev * ROUTE_RTOL:.2e} relative, "
                    f"beyond the {ROUTE_GATE_RTOL:.0e} gate, at "
                    + ", ".join(f"{k}={v:.4g}" for k, v in rates.items())
                    + f", T={periods:.3f} periods")
            points += regression.values.size + conditioned.values.size
        return points, {"pqs.route_dev_max": worst, "pqs.series_over_c06": over_c06,
                        "pqs.series_checked": len(pairs)}


# --- mcwf -------------------------------------------------------------------------

# criterion 09's bright parameters, Philox seed, step and g2 binning
BRIGHT = dict(omega1=1.0, omega2=2.0, v12=1.0, gamma2=0.2, gamma_ph=0.2)
MCWF_SEED = 20260809
MCWF_TRAJECTORIES = 1000
MCWF_DURATION = 50.0
MCWF_STEP = 0.004
G2_T_MIN = 20.0
Z_LIMIT = 3.0


class Mcwf:
    """Identical trajectory batches with a fixed Philox seed, checked at 3 SE.

    The inputs do not depend on ``--seed``: criterion 09's 3-SE tests are
    statistical, and a fixed Philox seed makes their verdict deterministic.
    Every batch must also reproduce the first one bit for bit.
    """

    name = "mcwf"
    round_size = 1

    def __init__(self, seed, work_dir: Path):
        self.params = rydcorr.model.ModelParams(**BRIGHT)
        bw = (2 * math.pi / self.params.rabi) / 4
        self.bin_width = bw
        self.centers = np.arange(bw / 2, 4.0, bw)
        self.first_digest = None
        self.truth = None

    def inputs(self):
        while True:
            yield MCWF_TRAJECTORIES

    def prepare(self):
        """Master-equation values the batches are tested against."""
        lv = rydcorr.liouville.build_liouvillian(self.params)
        rho = rydcorr.liouville.steady_state(lv)
        excited = rydcorr.model.sigma(1, 2, 2).matrix
        ground = np.zeros((9, 9), dtype=complex)
        ground[0, 0] = 1.0
        bw = self.bin_width
        fine = np.linspace(0.0, self.centers[-1] + bw / 2, 2401)
        reg = rydcorr.correlators.g2(lv, 1, 2, fine).values
        self.truth = {
            "steady": float(np.trace(excited @ rho).real),
            "transient": lambda t: float(np.trace(
                excited @ rydcorr.liouville.propagate(lv, ground, t)).real),
            "g2": [reg[(fine >= c - bw / 2) & (fine < c + bw / 2)].mean() for c in self.centers],
        }

    def warmup(self):
        rydcorr.trajectories.mcwf_run(self.params, duration=1.0, step=MCWF_STEP,
                                      seed=MCWF_SEED, count=8)

    def run(self, count):
        batch = rydcorr.trajectories.mcwf_run(self.params, duration=MCWF_DURATION,
                                              step=MCWF_STEP, seed=MCWF_SEED, count=count)
        est = rydcorr.trajectories.estimate_g2(batch, 1, 2, self.centers, self.bin_width,
                                               t_min=G2_T_MIN)
        return batch, est

    def check(self, count, result):
        batch, est = result
        zs = [abs(m - self.truth["steady"]) / s
              for m, s in (batch.late_population(atom, 2) for atom in (1, 2))]
        ts = batch.sample_times
        for k in np.linspace(2, len(ts) - 1, 6).astype(int):
            mc = batch.level_mean["atom1"][k, 1]
            zs.append(abs(mc - self.truth["transient"](ts[k])) / batch.level_sem["atom1"][k, 1])
        g2_zs = [abs(v - t) / se for v, t, se in zip(est.values, self.truth["g2"], est.stderr)]
        if max(zs) >= Z_LIMIT or max(g2_zs) >= Z_LIMIT:
            raise CheckFailed(f"population worst z {max(zs):.2f}, g2 worst z {max(g2_zs):.2f}")
        digest = hashlib.sha256()
        for rec in batch.records:
            digest.update(np.array([(r.channel, r.time) for r in rec], dtype=float).tobytes())
            digest.update(b"|")
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        elif digest.hexdigest() != self.first_digest:
            raise CheckFailed("batch is not bit-identical to the first batch of the run")
        clicks = sum(len(r) for r in batch.records)
        steps = round(batch.duration / batch.step)
        return est.values.size, {"traj_steps": batch.count * steps, "clicks": clicks}


WORKLOADS = {w.name: w for w in (Figures, RouteScan, Mcwf)}
