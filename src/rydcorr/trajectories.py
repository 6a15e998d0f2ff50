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
reproducible bit-for-bit for a fixed (seed, params, duration, step). Each
double is the top 53 bits of one raw 64-bit Philox word times 2^-53, which
is what numpy's ``Generator.random()`` returns; one bare bit generator,
re-keyed, reads every trajectory's words. A trajectory's clicks do not
depend on how the steps are blocked, the draws chunked or the batch sized,
unless a threshold falls within roundoff of a squared norm.

A batch keeps its clicks as one table, a structured array sorted by
(trajectory, time) with per-trajectory offsets into it. The ensemble is an
independent statistical oracle for the regression engine: ``estimate_g2``
pairs the table's clicks into a normalized delay histogram with
stationary-window edge correction and per-bin standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "TrajectoryBatch",
    "mcwf_run",
    "estimate_g2",
    "write_clicks_csv",
]

CLICK_CHANNELS = (0, 3)  # C1 of atom 1, C1 of atom 2 in the fixed channel order
STREAM = "philox4x64-10/v2"  # one threshold per start and (channel, threshold) per jump
MAX_JUMP_PROBABILITY = 0.1
MAX_BLOCK_STEPS = 256  # longest block; the powers cache holds U_eff^0 .. U_eff^256
RNG_CHUNK = 32  # raw words read from a trajectory's stream at a time; a multiple of 4
# most steps per trajectory: about 500x the 200,160 of the CLI default run
MAX_STEPS = 10**8
# most trajectories per batch: 10x criterion 09's 10^4, 1000x the CLI default;
# each one holds a row of the raw-word buffer
MAX_TRAJECTORIES = 10**5
# one row per click: its trajectory, its channel and its time (step + 1) * dt
CLICK_DTYPE = np.dtype([("trajectory", np.int64), ("channel", np.int64), ("time", np.float64)])


class ClickRecord(NamedTuple):
    """One click as ``TrajectoryBatch.records`` lists it."""

    channel: int
    atom: int
    time: float


def _atom(channel: np.ndarray) -> np.ndarray:
    """The atom of each channel: channels 0-2 are atom 1's, 3-5 atom 2's."""
    return channel // 3 + 1


class _Uniforms:
    """Trajectory n's doubles in [0, 1), from Philox4x64-10 keyed by (seed, n).

    One bit generator reads every stream, RNG_CHUNK raw words at a time. A
    Philox stream is a function of its key and a counter that grows by one
    for every four words, so chunk k of stream n is read from key (seed, n)
    and counter k * RNG_CHUNK / 4. A double is the top 53 bits of a word
    times 2^-53, as ``Generator.random()`` makes it.
    """

    def __init__(self, seed: int, count: int):
        self.bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self.state = self.bits.state  # a fresh stream: empty buffer, counter 0
        self.key, self.counter = self.state["state"]["key"], self.state["state"]["counter"]
        self.words = np.empty((count, RNG_CHUNK), dtype=np.uint64)
        self.used = np.full(count, RNG_CHUNK)
        self.chunks = np.zeros(count, dtype=np.int64)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """The next double of each listed trajectory."""
        empty = rows[self.used[rows] == RNG_CHUNK]
        for n, k in zip(empty.tolist(), self.chunks[empty].tolist()):
            self.key[1], self.counter[0] = n, k * (RNG_CHUNK // 4)
            self.bits.state = self.state
            self.words[n] = self.bits.random_raw(RNG_CHUNK)
        self.chunks[empty] += 1
        self.used[empty] = 0
        values = (self.words[rows, self.used[rows]] >> 11) * 2.0**-53
        self.used[rows] += 1
        return values


@dataclass(frozen=True)
class TrajectoryBatch:
    """The click table plus ensemble population diagnostics for one reproducible run.

    ``clicks`` is a read-only ``CLICK_DTYPE`` array sorted by (trajectory,
    time); trajectory n's clicks are rows ``offsets[n]:offsets[n + 1]``.
    """

    seed: int
    count: int
    duration: float
    step: float
    params: ModelParams
    clicks: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)  # (count + 1,), into ``clicks``
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

    @property
    def records(self) -> tuple:
        """Trajectory n's clicks as ``records[n]``, a tuple of ClickRecords read off the table."""
        c = self.clicks
        items = list(map(ClickRecord, c["channel"].tolist(), _atom(c["channel"]).tolist(),
                         c["time"].tolist()))
        bounds = self.offsets.tolist()
        return tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _row_times(states: np.ndarray, mats: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row ``n`` of ``states`` times ``mats[k[n]]``."""
    return np.matmul(states[:, None, :], mats[k])[:, 0, :]


def _norm2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex array."""
    v = rows.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _mean_sem(rows: np.ndarray) -> tuple:
    """Column means and standard errors of the mean (zero for one row).

    They are numpy's mean(axis=0) and std(axis=0, ddof=1) / sqrt(n),
    operation for operation; einsum adds the rows in order, as sum(axis=0)
    does, at a third of its cost.
    """
    n = rows.shape[0]
    mean = np.einsum("ij->j", rows) / n
    if n == 1:
        return mean, np.zeros(rows.shape[1])
    dev = rows - mean
    return mean, np.sqrt(np.einsum("ij->j", dev * dev) / (n - 1)) / math.sqrt(n)


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

    draw = _Uniforms(seed, count)
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
        mean, sem = _mean_sem(pops)
        mean_rows.append(mean)
        sem_rows.append(sem)
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
    jumps = np.zeros(len(cs), dtype=np.int64)  # per channel; only clicks are kept
    is_click = np.isin(np.arange(len(cs)), CLICK_CHANNELS)
    clicks = [(np.zeros(0, dtype=np.intp),) * 3]  # (trajectory, step, channel) per jump round
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
            jumps += np.bincount(channel, minlength=len(cs))
            click = is_click[channel]
            clicks.append((rows[click], b0 + at[click] - 1, channel[click]))
            threshold[rows] = draw(rows)
            end = _row_times(state, powers, span - at)
    take_sample(n_steps * dt, psi)

    traj, steps, chans = (np.concatenate(x) for x in zip(*clicks))
    order = np.lexsort((steps, traj))
    table = np.empty(order.size, dtype=CLICK_DTYPE)
    table["trajectory"], table["channel"] = traj[order], chans[order]
    table["time"] = (steps[order] + 1) * dt
    table.flags.writeable = False
    offsets = np.searchsorted(table["trajectory"], np.arange(count + 1))
    offsets.flags.writeable = False
    mean, sem = np.array(mean_rows), np.array(sem_rows)
    late = late_sum / max(late_samples, 1)

    return TrajectoryBatch(
        seed=seed, count=count, duration=duration, step=dt, params=p, clicks=table,
        offsets=offsets,
        sample_times=np.array(sample_times),
        level_mean={"atom1": mean[:, :3], "atom2": mean[:, 3:]},
        level_sem={"atom1": sem[:, :3], "atom2": sem[:, 3:]},
        late_half_mean={"atom1": late[:, :3], "atom2": late[:, 3:]},
        jumps=tuple(jumps.tolist()),
    )


def estimate_g2(batch: TrajectoryBatch, i: int, j: int, tau_grid, bin_width: float,
                t_min: float = 0.0) -> CorrelationSeries:
    """Statistical g2 estimate from ordered click pairs (atom i first, atom j later).

    Bins are centered on ``tau_grid`` with width ``bin_width``; counts are
    normalized by the measured rate product, the bin width and the available
    stationary window (duration - t_min - tau), and tagged with Poisson
    standard errors. A pair is two clicks of one trajectory with delay
    d = t_j - t_i > 0, counted in a bin when lo <= d < hi. Pairs whose first
    click falls before ``t_min`` are discarded so an initial transient can be
    excluded.
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

    atoms = _atom(batch.clicks["channel"])
    first = batch.clicks[(atoms == i) & (batch.clicks["time"] >= t_min)]
    second = batch.clicks[atoms == j]
    n_i = first.size
    n_j = int(np.count_nonzero(second["time"] >= t_min))
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
    # numpy orders complex numbers by real part, then imaginary part, so
    # trajectory + 1j * time keys sort as the table's rows do. Each first click
    # pairs with the second clicks of its trajectory from the first later one
    # (d > 0) through the last at or before t + hi[-1], rounded; that takes in
    # every d < hi[-1], and the bin counts ignore the longer ones.
    key = second["trajectory"] + 1j * second["time"]
    start = np.searchsorted(key, first["trajectory"] + 1j * first["time"], side="right")
    stop = np.searchsorted(key, first["trajectory"] + 1j * (first["time"] + hi[-1]),
                           side="right")
    n_pairs = np.maximum(stop - start, 0)
    at = np.arange(n_pairs.sum()) + np.repeat(start - (np.cumsum(n_pairs) - n_pairs), n_pairs)
    delays = np.sort(second["time"][at] - np.repeat(first["time"], n_pairs))
    # pairs in [lo, hi) = #(d >= lo) - #(d >= hi); both are exact comparisons
    counts = (np.searchsorted(delays, hi) - np.searchsorted(delays, lo)).astype(float)

    values = counts / expected
    stderr = np.sqrt(np.maximum(counts, 1.0)) / expected
    return CorrelationSeries(kind="g2", atoms=(i, j), tau_grid=centers, values=values,
                             stderr=stderr)


def write_clicks_csv(batch: TrajectoryBatch, path) -> None:
    """Dump the click table, one line per click: trajectory_index,channel,atom,time."""
    # one %-format for the whole table, its fields interleaved row by row
    c = batch.clicks
    fields = [None] * (4 * c.size)
    fields[0::4], fields[1::4] = c["trajectory"].tolist(), c["channel"].tolist()
    fields[2::4], fields[3::4] = _atom(c["channel"]).tolist(), c["time"].tolist()
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("trajectory_index,channel,atom,time\n")
            fh.write("%d,%d,%d,%.11e\n" * c.size % tuple(fields))
    except OSError as exc:
        raise IoFailureError(f"cannot write click records to {path}: {exc}") from exc
