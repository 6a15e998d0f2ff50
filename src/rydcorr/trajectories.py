"""Monte Carlo wave-function unraveling of the master equation.

Pure-state trajectories evolve under the non-Hermitian drift
H - (i/2) sum_c C_c^+ C_c with first-order jump sampling over the six
channels; a jump applies the channel operator and renormalizes. Only the
lower-transition channels (C1 of each atom) are recorded as detector clicks;
upper-level decay and dephasing cause jumps but no clicks.

Randomness is counter-based and splittable: trajectory n of a batch with
seed s draws from Philox4x64-10 keyed by the 128-bit pair (s, n), consuming
exactly one uniform per step, so batches are reproducible bit-for-bit for a
fixed (seed, params, duration, step) regardless of how the loop is chunked.

Stepping is thinned (Lewis & Shedler, 1979): a step jumps only when its
uniform lies below the jump probability of the current state, which for a
normalized state never exceeds the largest diagonal jump weight. Every
uniform is drawn, but only those below that bound send their step through
the jump test; the states between candidates come from cached powers of the
no-jump propagator. The uniforms and the jump rule are those of step-by-step
integration, so the clicks are too, unless a uniform falls within roundoff
of its step's jump probability.

The ensemble is an independent statistical oracle for the regression engine:
``estimate_g2`` turns recorded click pairs into a normalized delay histogram
with stationary-window edge correction and per-bin standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .correlators import CorrelationSeries
from .errors import (
    InsufficientStatisticsError,
    IoFailureError,
    NormUnderflowError,
    StepTooLargeError,
    TooManyStepsError,
    TooManyTrajectoriesError,
)
from .model import DIM_PAIR, ModelParams, jump_operators, pair_hamiltonian

__all__ = [
    "ClickRecord",
    "TrajectoryBatch",
    "mcwf_run",
    "estimate_g2",
    "write_clicks_csv",
]

CLICK_CHANNELS = (0, 3)  # C1 of atom 1, C1 of atom 2 in the fixed channel order
MAX_JUMP_PROBABILITY = 0.1
RNG_CHUNK_STEPS = 256
# most steps per trajectory: about 500x the 200,160 of the CLI default run
MAX_STEPS = 10**8
# most trajectories per batch: 10x criterion 09's 10^4, 1000x the CLI default;
# each one holds a Philox generator and a row of the uniform buffer
MAX_TRAJECTORIES = 10**5


@dataclass(frozen=True)
class ClickRecord:
    """One detected lower-transition photon."""

    channel: int
    atom: int
    time: float


@dataclass(frozen=True)
class TrajectoryBatch:
    """Click records plus ensemble population diagnostics for one reproducible run."""

    seed: int
    count: int
    duration: float
    step: float
    params: ModelParams
    records: tuple = field(repr=False)
    sample_times: np.ndarray = field(repr=False)
    level_mean: dict = field(repr=False)  # {"atom1": (S,3), "atom2": (S,3)} ensemble means
    level_sem: dict = field(repr=False)   # matching standard errors of the mean
    # per-trajectory level populations time-averaged over the late half of the
    # run, (count, 3) per atom; their spread gives an honest standard error
    # even when the ensemble mean is carried by a few rare trajectories
    late_half_mean: dict = field(repr=False)

    def late_population(self, atom: int, level: int):
        """Late-half time-averaged population: ensemble (mean, standard error)."""
        vals = self.late_half_mean[f"atom{atom}"][:, level - 1]
        sem = vals.std(ddof=1) / math.sqrt(self.count) if self.count > 1 else 0.0
        return float(vals.mean()), float(sem)

    def clicks_of_atom(self, atom: int) -> list:
        """Per-trajectory arrays of click times for one atom."""
        return [
            np.array([r.time for r in rec if r.atom == atom], dtype=float)
            for rec in self.records
        ]


def _channel_atom(channel: int) -> int:
    return 1 if channel < 3 else 2


def _ground_state() -> np.ndarray:
    psi = np.zeros(DIM_PAIR, dtype=complex)
    psi[0] = 1.0
    return psi


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _apply_powers(states: np.ndarray, powers: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row ``n`` of ``states`` times ``powers[k[n]]``."""
    return np.matmul(states[:, None, :], powers[k])[:, 0, :]


def mcwf_run(p: ModelParams, duration: float, step: float, seed: int,
             count: int = 1, initial: np.ndarray | None = None,
             sample_every: int | None = None) -> TrajectoryBatch:
    """Run ``count`` trajectories of the given duration.

    ``step`` must be positive and resolve the coherent dynamics (<= 0.01 / max(1, rabi));
    it is bisected further, before the run, whenever the worst-case jump
    probability per step dt * max_psi <psi|sum C^+C|psi> would exceed 0.1.
    A run of more than MAX_STEPS steps per trajectory is refused
    (TooManyStepsError), and so is a batch of more than MAX_TRAJECTORIES
    trajectories (TooManyTrajectoriesError), before anything is allocated.
    ``initial`` is a normalized 9-component state vector (default: both atoms
    in the ground state). Population statistics are sampled every
    ``sample_every`` steps (default: ~200 samples per run).

    Step s of a trajectory jumps when its uniform u_s is below
    p_tot(s) = sum_c dt <psi_s|C_c^+ C_c|psi_s>, on the channel where the
    cumulative channel weights first exceed u_s; otherwise the state moves
    by U_eff = exp(-i H_eff dt) and is renormalized. Since psi_s is
    normalized, p_tot(s) never exceeds the largest diagonal weight, so only
    steps whose uniform lies below that bound are evaluated (thinning). The
    run is cut into blocks at every sample step and RNG chunk edge; within a
    block each trajectory's state at a candidate step is its state at its
    last jump (or the block start) times a cached power of U_eff, and the
    block ends with one matrix product per trajectory.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_TRAJECTORIES:
        raise TooManyTrajectoriesError(f"a batch of {count} trajectories exceeds the bound of "
                                       f"{MAX_TRAJECTORIES}; run it as several seeds")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    limit = 0.01 / max(1.0, p.rabi)
    if step > limit * (1 + 1e-12):
        raise StepTooLargeError(f"step {step} exceeds coherent-resolution limit {limit:.3e}")

    if not duration / step <= MAX_STEPS:  # also refuses an overflow to inf
        raise TooManyStepsError(f"a step of {step:.3g} over a duration of {duration:g} takes "
                                f"more than {MAX_STEPS} steps; use a shorter duration")
    n_steps = max(1, int(round(duration / step)))
    dt = duration / n_steps

    h = pair_hamiltonian(p).matrix
    cs = [c.matrix for c in jump_operators(p)]
    decay_sum = sum(c.conj().T @ c for c in cs)
    # all six C^+C are diagonal in the product basis, which makes the
    # per-channel jump probabilities a cheap weighted sum of |psi|^2
    if np.max(np.abs(decay_sum - np.diag(np.diag(decay_sum)))) > 1e-12:
        raise ValueError("jump-rate matrix unexpectedly non-diagonal")
    rate_weights = np.stack([np.diag(c.conj().T @ c).real for c in cs])  # (6, 9)

    while dt * float(np.diag(decay_sum).real.max()) > MAX_JUMP_PROBABILITY:
        n_steps *= 2
        dt = duration / n_steps
    if n_steps > MAX_STEPS:
        raise TooManyStepsError(f"the jump-probability cap halves the step to {dt:.3g}, which "
                                f"takes more than {MAX_STEPS} steps; use a shorter duration")

    u_eff = algebra.expm((-1j * h - 0.5 * decay_sum) * dt)
    u_eff_t = np.ascontiguousarray(u_eff.T)
    jump_ops_t = [np.ascontiguousarray(c.T) for c in cs]
    total_weight = rate_weights.sum(axis=0) * dt  # (9,)
    channel_weight = rate_weights * dt            # (6, 9)
    # a normalized state jumps with probability at most the largest weight;
    # the relative margin covers the roundoff of |psi|^2 summing to one
    p_bound = float(total_weight.max()) * (1 + 1e-9)

    if initial is None:
        psi0 = _ground_state()
    else:
        psi0 = np.asarray(initial, dtype=complex).ravel()
        if psi0.size != DIM_PAIR:
            raise ValueError(f"initial state must have {DIM_PAIR} components")
        nrm = np.linalg.norm(psi0)
        if nrm <= 0:
            raise ValueError("initial state must be nonzero")
        psi0 = psi0 / nrm

    if sample_every is None:
        sample_every = max(1, n_steps // 200)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    atom1_groups = [slice(3 * l, 3 * l + 3) for l in range(3)]
    atom2_idx = [np.arange(l, DIM_PAIR, 3) for l in range(3)]

    generators = [
        np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
        for t in range(count)
    ]

    sample_times = []
    mean_rows = {"atom1": [], "atom2": []}
    sem_rows = {"atom1": [], "atom2": []}
    late_sums = {"atom1": np.zeros((count, 3)), "atom2": np.zeros((count, 3))}
    late_samples = 0
    half_time = duration / 2.0

    def take_sample(t_now, psi):
        nonlocal late_samples
        absq = psi.real ** 2 + psi.imag ** 2
        sample_times.append(t_now)
        late = t_now >= half_time
        if late:
            late_samples += 1
        for name, pops in (
            ("atom1", np.stack([absq[:, g].sum(axis=1) for g in atom1_groups], axis=1)),
            ("atom2", np.stack([absq[:, ix].sum(axis=1) for ix in atom2_idx], axis=1)),
        ):
            mean_rows[name].append(pops.mean(axis=0))
            sem_rows[name].append(pops.std(axis=0, ddof=1) / math.sqrt(count) if count > 1
                                  else np.zeros(3))
            if late:
                late_sums[name] += pops

    # blocks end at every sample step and every RNG chunk edge, so none is
    # longer than either period; powers[k] = U_eff^k acting on row vectors
    edges = np.union1d(np.arange(0, n_steps, sample_every),
                       np.arange(0, n_steps, RNG_CHUNK_STEPS)).tolist() + [n_steps]
    powers = np.empty((min(RNG_CHUNK_STEPS, sample_every, n_steps) + 1, DIM_PAIR, DIM_PAIR),
                      dtype=complex)
    powers[0] = np.eye(DIM_PAIR)
    for k in range(1, powers.shape[0]):
        powers[k] = powers[k - 1] @ u_eff_t

    psi = np.tile(psi0, (count, 1))
    uniforms = np.empty((count, min(RNG_CHUNK_STEPS, n_steps)))
    clicks = []  # (trajectory, step, channel) arrays, one per jump round
    for b0, b1 in zip(edges[:-1], edges[1:]):
        if b0 % sample_every == 0:
            take_sample(b0 * dt, psi)
        chunk_start = b0 - b0 % RNG_CHUNK_STEPS
        if b0 == chunk_start:
            # one uniform per step and trajectory; a Philox stream does not
            # depend on how its draws are chunked
            chunk_len = min(RNG_CHUNK_STEPS, n_steps - b0)
            for row, gen in zip(uniforms, generators):
                gen.random(out=row[:chunk_len])
        u = uniforms[:, b0 - chunk_start:b1 - chunk_start]

        # candidates: the only steps whose uniform can fall below p_tot,
        # ordered by trajectory, then step (block-relative)
        rows, offs = np.nonzero(u < p_bound)
        # psi[n] stays the normalized state of trajectory n at block step origin[n]
        origin = np.zeros(count, dtype=np.intp)
        while rows.size:
            phi = _normalized(_apply_powers(psi[rows], powers, offs - origin[rows]))
            absq = phi.real ** 2 + phi.imag ** 2
            u_c = u[rows, offs]
            hit = np.nonzero(u_c < absq @ total_weight)[0]
            if hit.size == 0:
                break
            # the first hit of each trajectory is a jump; its later
            # candidates are evaluated again from the post-jump state
            hit = hit[np.r_[True, rows[hit][1:] != rows[hit][:-1]]]
            cum = np.cumsum(absq[hit] @ channel_weight.T, axis=1)
            channel = (u_c[hit, None] < cum).argmax(axis=1)
            for c in np.unique(channel):
                sel = hit[channel == c]
                jumped = phi[sel] @ jump_ops_t[c]
                norms = np.linalg.norm(jumped, axis=1)
                if np.any(norms < 1e-150):
                    raise NormUnderflowError(f"jump on channel {c} produced a null state")
                psi[rows[sel]] = jumped / norms[:, None]
            jump_rows, jump_offs = rows[hit], offs[hit]
            origin[jump_rows] = jump_offs + 1
            is_click = np.isin(channel, CLICK_CHANNELS)
            clicks.append((jump_rows[is_click], b0 + jump_offs[is_click], channel[is_click]))
            last_jump = np.full(count, b1 - b0)
            last_jump[jump_rows] = jump_offs
            later = offs > last_jump[rows]
            rows, offs = rows[later], offs[later]

        end = psi @ powers[b1 - b0]
        moved = np.nonzero(origin)[0]
        if moved.size:
            end[moved] = _apply_powers(psi[moved], powers, b1 - b0 - origin[moved])
        psi = _normalized(end)
    take_sample(n_steps * dt, psi)

    per_traj: list[list[ClickRecord]] = [[] for _ in range(count)]
    if clicks:
        traj, steps, chans = (np.concatenate(x) for x in zip(*clicks))
        order = np.lexsort((steps, traj))
        times = (steps[order] + 1) * dt
        for idx, c, t_click in zip(traj[order].tolist(), chans[order].tolist(), times.tolist()):
            per_traj[idx].append(ClickRecord(channel=c, atom=_channel_atom(c), time=t_click))
    records = tuple(tuple(lst) for lst in per_traj)

    return TrajectoryBatch(
        seed=seed, count=count, duration=duration, step=dt, params=p, records=records,
        sample_times=np.array(sample_times),
        level_mean={k: np.array(v) for k, v in mean_rows.items()},
        level_sem={k: np.array(v) for k, v in sem_rows.items()},
        late_half_mean={k: v / max(late_samples, 1) for k, v in late_sums.items()},
    )


def estimate_g2(batch: TrajectoryBatch, i: int, j: int, tau_grid, bin_width: float,
                t_min: float = 0.0) -> CorrelationSeries:
    """Statistical g2 estimate from ordered click pairs (atom i first, atom j later).

    Bins are centered on ``tau_grid`` with width ``bin_width``; counts are
    normalized by the measured rate product, the bin width and the available
    stationary window (duration - t_min - tau), and tagged with Poisson
    standard errors. Pairs whose first click falls before ``t_min`` are
    discarded so an initial transient can be excluded.
    """
    centers = np.asarray(tau_grid, dtype=float)
    if centers.ndim != 1 or centers.size == 0 or np.any(np.diff(centers) <= 0):
        raise ValueError("tau_grid must be a strictly increasing 1-D array")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    window = batch.duration - t_min
    avail = window - centers
    if np.any(avail <= 0):
        raise ValueError("tau_grid extends beyond the stationary window")

    clicks_i = batch.clicks_of_atom(i)
    clicks_j = batch.clicks_of_atom(j)
    n_i = sum(int(np.sum(t >= t_min)) for t in clicks_i)
    n_j = sum(int(np.sum(t >= t_min)) for t in clicks_j)
    if n_i == 0 or n_j == 0:
        raise InsufficientStatisticsError("no clicks on one of the atoms in the window")
    rate_i = n_i / (batch.count * window)
    rate_j = n_j / (batch.count * window)

    expected = batch.count * rate_i * rate_j * bin_width * avail
    if np.any(expected < 50):
        worst = float(expected.min())
        raise InsufficientStatisticsError(
            f"expected only {worst:.1f} uncorrelated pairs in the thinnest bin; "
            "widen the bins or run more trajectories"
        )

    lo = centers - bin_width / 2.0
    hi = centers + bin_width / 2.0
    delays = [np.zeros(0)]
    for ta, tb in zip(clicks_i, clicks_j):
        ta = ta[ta >= t_min]
        d = (tb[None, :] - ta[:, None]).ravel()
        delays.append(d[(d > 0) & (d < hi[-1])])
    delays = np.sort(np.concatenate(delays))
    # pairs in [lo, hi) = #(d >= lo) - #(d >= hi); both are exact comparisons
    counts = (np.searchsorted(delays, hi) - np.searchsorted(delays, lo)).astype(float)

    norm = batch.count * rate_i * rate_j * bin_width * avail
    values = counts / norm
    stderr = np.sqrt(np.maximum(counts, 1.0)) / norm
    return CorrelationSeries(kind="g2", atoms=(i, j), tau_grid=centers, values=values,
                             stderr=stderr)


def write_clicks_csv(batch: TrajectoryBatch, path) -> None:
    """Dump the click records, one line per click: trajectory_index,channel,atom,time."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("trajectory_index,channel,atom,time\n")
            for idx, rec in enumerate(batch.records):
                for r in rec:
                    fh.write(f"{idx},{r.channel},{r.atom},{r.time:.11e}\n")
    except OSError as exc:
        raise IoFailureError(f"cannot write click records to {path}: {exc}") from exc
