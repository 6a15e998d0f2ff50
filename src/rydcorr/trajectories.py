"""Monte Carlo wave-function unraveling of the master equation.

Pure-state trajectories evolve under the non-Hermitian drift
H - (i/2) sum_c C_c^+ C_c between jumps over the six channels; a jump applies
the channel operator and renormalizes. Only the lower-transition channels (C1
of each atom) are recorded as detector clicks; upper-level decay and
dephasing cause jumps but no clicks.

Jumps follow the integrated-norm ("waiting-time") rule of Dalibard, Castin &
Molmer, PRL 68, 580 (1992), and Plenio & Knight, RMP 70, 101 (1998), on a
fixed step lattice; ``mcwf_run`` states it.

Randomness is counter-based and splittable: trajectory n of a batch with
seed s draws from Philox4x64-10 keyed by the 128-bit pair (s, n), one r at
its start and then (u, r) per jump (the stream ``STREAM``), so batches are
reproducible bit-for-bit for a fixed (seed, params, duration, step). A
trajectory's clicks do not depend on how the steps are blocked, the draws
chunked or the batch sized, unless a threshold falls within roundoff of a
squared norm.

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
STREAM = "philox4x64-10/v2"  # one threshold per start and (channel, threshold) per jump
MAX_JUMP_PROBABILITY = 0.1
MAX_BLOCK_STEPS = 256  # longest block; the powers cache holds U_eff^0 .. U_eff^256
RNG_CHUNK = 32  # uniforms read from a trajectory's generator at a time
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
    jumps: tuple = field(repr=False)  # jumps per channel over the batch, channel order

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


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _row_times(states: np.ndarray, mats: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row ``n`` of ``states`` times ``mats[k[n]]``."""
    return np.matmul(states[:, None, :], mats[k])[:, 0, :]


def _norm2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex array."""
    v = rows.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


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

    Jump rule (stream v2): at its start and after each jump a trajectory
    draws r and marches its un-normalized state psi_j = psi_0 U_eff^j,
    U_eff = exp(-i H_eff dt), from that lattice point. It jumps at the first
    j with |psi_j|^2 < r, clicking at time j dt. It then draws u and takes
    the first channel whose cumulative weight |C_c psi_j|^2 exceeds u times
    their sum; the pre-jump state is psi_j, at the click time.

    The run is cut into blocks at every sample step, none longer than
    MAX_BLOCK_STEPS. As |psi_j|^2 does not increase between jumps, a
    trajectory jumps in a block exactly when its state at the block end is
    below r. For those, binary lifting over the cached U_eff^(2^k), one
    product per power for all of them, finds the last point still >= r.
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
    # per-channel jump weights a cheap weighted sum of |psi|^2
    if np.max(np.abs(decay_sum - np.diag(np.diag(decay_sum)))) > 1e-12:
        raise ValueError("jump-rate matrix unexpectedly non-diagonal")
    rate_weights_t = np.stack([np.diag(c.conj().T @ c).real for c in cs], axis=1)  # (9, 6)

    while dt * float(np.diag(decay_sum).real.max()) > MAX_JUMP_PROBABILITY:
        n_steps *= 2
        dt = duration / n_steps
    if n_steps > MAX_STEPS:
        raise TooManyStepsError(f"the jump-probability cap halves the step to {dt:.3g}, which "
                                f"takes more than {MAX_STEPS} steps; use a shorter duration")

    u_eff = algebra.expm((-1j * h - 0.5 * decay_sum) * dt)
    jump_ops_t = np.stack([c.T for c in cs])  # (6, 9, 9), acting on row vectors

    if initial is None:
        psi0 = np.eye(DIM_PAIR, dtype=complex)[0]
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

    # basis state 3(k1-1) + (k2-1) -> atom 1 in level k1 (columns 0-2), atom 2 in k2 (3-5)
    level_of = np.hstack([np.kron(np.eye(3), np.ones((3, 1))), np.kron(np.ones((3, 1)), np.eye(3))])

    generators = [np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
                  for t in range(count)]
    buffer, used = np.empty((count, RNG_CHUNK)), np.full(count, RNG_CHUNK)

    def draw(rows):
        """The next double of each listed trajectory; chunks do not change a Philox stream."""
        empty = rows[used[rows] == RNG_CHUNK]
        for n in empty.tolist():
            generators[n].random(out=buffer[n])
        used[empty] = 0
        values = buffer[rows, used[rows]]
        used[rows] += 1
        return values

    sample_times = []
    mean_rows, sem_rows = [], []
    late_sum = np.zeros((count, 6))
    late_samples = 0
    half_time = duration / 2.0

    def take_sample(t_now, psi):
        nonlocal late_samples, late_sum
        absq = psi.real ** 2 + psi.imag ** 2
        pops = (absq @ level_of) / absq.sum(axis=1)[:, None]
        sample_times.append(t_now)
        mean_rows.append(pops.mean(axis=0))
        sem_rows.append(pops.std(axis=0, ddof=1) / math.sqrt(count) if count > 1
                        else np.zeros(6))
        if t_now >= half_time:
            late_samples += 1
            late_sum += pops

    # blocks end at every sample step and every MAX_BLOCK_STEPS steps, so
    # none is longer than either; powers[k] = U_eff^k acting on row vectors
    edges = np.union1d(np.arange(0, n_steps, sample_every),
                       np.arange(0, n_steps, MAX_BLOCK_STEPS)).tolist() + [n_steps]
    powers = np.empty((min(MAX_BLOCK_STEPS, sample_every, n_steps) + 1, DIM_PAIR, DIM_PAIR),
                      dtype=complex)
    powers[0] = np.eye(DIM_PAIR)
    for k in range(1, powers.shape[0]):
        powers[k] = powers[k - 1] @ u_eff.T
    lifts = [1 << k for k in reversed(range((powers.shape[0] - 1).bit_length()))]

    # psi[n]: trajectory n's un-normalized no-jump state since its last jump
    psi = np.tile(psi0, (count, 1))
    threshold = draw(np.arange(count))
    jumps = [(np.zeros(0, dtype=np.intp),) * 3]  # (trajectory, step, channel) per jump round
    for b0, b1 in zip(edges[:-1], edges[1:]):
        if b0 % sample_every == 0:
            take_sample(b0 * dt, psi)
        span = b1 - b0
        # state[i] is trajectory rows[i] at block step at[i], and end[i] is
        # its no-jump state at the block end
        rows, state, at = np.arange(count), psi, np.zeros(count, dtype=np.intp)
        end = psi @ powers[span]
        while rows.size:
            below = _norm2(end) < threshold[rows]
            state, at = state[below], at[below]
            psi[rows[~below]] = end[~below]
            rows = rows[below]
            if not rows.size:
                break
            # binary lifting to the last step at or above r; its norm^2 at
            # the block end is below r, so it stops short of the end
            r = threshold[rows]
            left = span - at
            for k in lifts:
                if k > left.max():
                    continue
                ahead = state @ powers[k]
                ok = (k <= left) & (_norm2(ahead) >= r)
                np.copyto(state, ahead, where=ok[:, None])
                left[ok] -= k
            # a search reaches the block end only by roundoff: no jump then
            done = left == 0
            psi[rows[done]] = state[done]
            rows, state, at = rows[~done], state[~done], span - left[~done] + 1
            # the jump falls on the next step; phi is the no-jump state there
            phi = _normalized(state @ powers[1])
            cum = np.cumsum((phi.real ** 2 + phi.imag ** 2) @ rate_weights_t, axis=1)
            u = draw(rows)
            channel = (u[:, None] * cum[:, -1:] < cum).argmax(axis=1)
            after = _row_times(phi, jump_ops_t, channel)
            norms = np.linalg.norm(after, axis=1)
            if np.any(norms < 1e-150):
                c = int(channel[norms.argmin()])
                raise NormUnderflowError(f"jump on channel {c} produced a null state")
            state = after / norms[:, None]
            jumps.append((rows, b0 + at - 1, channel))
            threshold[rows] = draw(rows)
            end = _row_times(state, powers, span - at)
    take_sample(n_steps * dt, psi)

    per_traj: list[list[ClickRecord]] = [[] for _ in range(count)]
    traj, steps, chans = (np.concatenate(x) for x in zip(*jumps))
    click = np.nonzero(np.isin(chans, CLICK_CHANNELS))[0]
    click = click[np.lexsort((steps[click], traj[click]))]
    for idx, c, s in zip(traj[click].tolist(), chans[click].tolist(), steps[click].tolist()):
        per_traj[idx].append(ClickRecord(channel=c, atom=_channel_atom(c), time=(s + 1) * dt))
    records = tuple(tuple(lst) for lst in per_traj)
    mean, sem = np.array(mean_rows), np.array(sem_rows)
    late = late_sum / max(late_samples, 1)

    return TrajectoryBatch(
        seed=seed, count=count, duration=duration, step=dt, params=p, records=records,
        sample_times=np.array(sample_times),
        level_mean={"atom1": mean[:, :3], "atom2": mean[:, 3:]},
        level_sem={"atom1": sem[:, :3], "atom2": sem[:, 3:]},
        late_half_mean={"atom1": late[:, :3], "atom2": late[:, 3:]},
        jumps=tuple(np.bincount(chans, minlength=len(cs)).tolist()),
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
