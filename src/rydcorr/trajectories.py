"""Monte Carlo wave-function unraveling of the master equation.

Pure-state trajectories evolve under the non-Hermitian drift
H - (i/2) sum_c C_c^+ C_c between jumps over the six channels; a jump applies
the channel operator and renormalizes. Only the lower-transition channels (C1
of each atom) are recorded as detector clicks; upper-level decay and
dephasing cause jumps but no clicks.

Jumps follow the integrated-norm ("waiting-time") rule of Dalibard, Castin &
Molmer, PRL 68, 580 (1992), and Plenio & Knight, RMP 70, 101 (1998), on a
fixed step lattice; ``mcwf_run`` states it. A batch runs in windows of whole
sample intervals: in each search round every trajectory finds its next jump
up to the window end by binary lifting, so a window takes one round more
than the most jumps any trajectory makes in it, and the samples inside it
are marched afterwards from the window-start and post-jump states.

Randomness is counter-based and splittable: trajectory n of a batch with
seed s draws from Philox4x64-10 keyed by the 128-bit pair (s, n), one r at
its start and then (u, r) per jump (the stream ``STREAM``), so batches are
reproducible bit-for-bit for a fixed (seed, params, duration, step). Each
double is the top 53 bits of one raw 64-bit Philox word times 2^-53, which
is what numpy's ``Generator.random()`` returns; one bare bit generator,
re-keyed, reads every trajectory's words. A trajectory's clicks do not
depend on how the run is cut into windows, the draws chunked or the batch
sized, unless a threshold falls within roundoff of a squared norm.

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
# a search round looks ahead about this many steps: a window is as many
# whole sample intervals as fit in it, and at least one
WINDOW_STEPS = 1024
RNG_CHUNK = 64  # raw words read from a trajectory's stream at a time; a multiple of 4
# most steps per trajectory: about 500x the 200,160 of the CLI default run
MAX_STEPS = 10**8
# most trajectories per batch: 10x criterion 09's 10^4, 1000x the CLI default;
# each one holds a row of RNG_CHUNK + 1 words in the raw-word buffer, 52 MB at the bound
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

    One bit generator reads every stream, RNG_CHUNK raw words at a time,
    re-keyed once per chunk. A Philox stream is a function of its key and a
    counter that grows by one for every four words, so chunk k of stream n
    is read from key (seed, n) and counter k * RNG_CHUNK / 4, and the chunk
    size cannot change the doubles. A double is the top 53 bits of a word
    times 2^-53, as ``Generator.random()`` makes it.
    """

    def __init__(self, seed: int, count: int):
        self.bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self.state = self.bits.state  # a fresh stream: empty buffer, counter 0
        self.key, self.counter = self.state["state"]["key"], self.state["state"]["counter"]
        # row n holds its chunk in columns 1..RNG_CHUNK; column 0 takes the
        # chunk's last word when a draw of two straddles a refill
        self.words = np.empty((count, RNG_CHUNK + 1), dtype=np.uint64)
        self.used = np.full(count, RNG_CHUNK + 1)  # the next word's column
        self.chunks = np.zeros(count, dtype=np.int64)

    def __call__(self, rows: np.ndarray, n: int = 1) -> np.ndarray:
        """The next double of each listed trajectory; with n = 2, an array of
        two rows, its next double and the one after it."""
        short = rows[self.used[rows] > RNG_CHUNK + 1 - n]
        for row, k in zip(short.tolist(), self.chunks[short].tolist()):
            self.words[row, 0] = self.words[row, RNG_CHUNK]
            self.key[1], self.counter[0] = row, k * (RNG_CHUNK // 4)
            self.bits.state = self.state
            self.words[row, 1:] = self.bits.random_raw(RNG_CHUNK)
        self.chunks[short] += 1
        self.used[short] -= RNG_CHUNK
        at = self.used[rows]
        self.used[rows] += n
        if n == 1:
            return (self.words[rows, at] >> 11) * 2.0**-53
        return (self.words[rows, at + np.arange(n)[:, None]] >> 11) * 2.0**-53


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
    rounds: int = field(repr=False)  # jump-search rounds the run took, over all windows

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


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix that acts on complex row vectors, viewed as interleaved
    real and imaginary parts, as ``m`` does: a product through it costs about
    60% of the complex one."""
    r = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    r[0::2, 0::2], r[0::2, 1::2] = m.real, m.imag
    r[1::2, 0::2], r[1::2, 1::2] = -m.imag, m.real
    return r


def _times(rows: np.ndarray, form: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, set to C-contiguous complex ``rows`` times the matrix whose
    real form is ``form``."""
    np.matmul(rows.view(np.float64), form, out=out.view(np.float64))
    return out


def _room(buf: np.ndarray, rows: int) -> np.ndarray:
    """``buf``, or a copy of it with room for half as many again as ``rows``
    when it holds fewer."""
    if rows <= buf.shape[0]:
        return buf
    grown = np.empty((rows + rows // 2,) + buf.shape[1:], dtype=buf.dtype)
    grown[:buf.shape[0]] = buf
    return grown


def _norm2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex array."""
    v = rows.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _jump_tables(jump_ops_t: np.ndarray) -> tuple:
    """``(jump_from, jump_weight)``, both (channels, 9): column j of channel
    c's C^T holds its one nonzero entry jump_weight[c, j] in row
    jump_from[c, j] (weight 0 for a zero column). Refuses (ValueError) a
    C^T with two nonzero entries in one column, which a gather cannot apply.
    """
    if np.any(np.count_nonzero(jump_ops_t, axis=1) > 1):
        raise ValueError("a jump operator maps two basis states onto one; "
                         "a jump cannot be applied as a gather")
    jump_from = (jump_ops_t != 0).argmax(axis=1)
    return jump_from, np.take_along_axis(jump_ops_t, jump_from[:, None], axis=1)[:, 0]


def _jump(phi: np.ndarray, channel: np.ndarray, jump_from: np.ndarray,
          jump_weight: np.ndarray) -> tuple:
    """Each row of ``phi`` times its channel's C^T, and the norm of each.

    With ``_jump_tables``' one nonzero entry per column, the product is a
    gather and one multiply per entry: the numbers of ``phi @ C^T``.
    """
    after = np.take_along_axis(phi, jump_from[channel], axis=1)
    after *= jump_weight[channel]
    return after, np.sqrt(_norm2(after))


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


def _run_windows(u_t: np.ndarray, jump_from: np.ndarray, jump_weight: np.ndarray,
                 rate_weights_t: np.ndarray, psi0: np.ndarray, count: int, n_steps: int,
                 sample_every: int, seed: int, take_sample) -> tuple:
    """``mcwf_run``'s search rounds and sample marches, window by window.

    The jumps are ``_jump``'s gathers from ``jump_from`` and ``jump_weight``.
    ``take_sample(step, states)`` receives the un-normalized states at every
    sample step, the last at ``n_steps``. Returns the clicks of each jump
    round as (trajectory, step, channel) arrays, the jumps per channel and
    the number of search rounds.
    """
    draw = _Uniforms(seed, count)
    window = max(1, WINDOW_STEPS // sample_every) * sample_every
    # lifts: (2^k, U_eff^(2^k)), largest first, 2^k up to the longest window
    lifts = [(1, u_t)]
    while 2 * lifts[-1][0] <= min(window, n_steps):
        lifts.append((2 * lifts[-1][0], lifts[-1][1] @ lifts[-1][1]))
    lifts = [(k, _real_form(power)) for k, power in reversed(lifts)]
    marched = window > sample_every  # a window holds samples past its start
    if marched:
        u_sample = _real_form(np.linalg.matrix_power(u_t, sample_every))
    # the window's jumps: the normalized state after each, and its trajectory
    # and window step
    landed = np.empty((count if marched else 0, DIM_PAIR), dtype=complex)
    landed_at = np.empty((landed.shape[0], 2), dtype=np.intp)

    # psi[n]: trajectory n's un-normalized no-jump state since its last jump,
    # at the window start; nxt: the same at the window end; ahead: products
    psi = np.tile(psi0, (count, 1))
    nxt, ahead = np.empty_like(psi), np.empty_like(psi)
    threshold = draw(np.arange(count))
    n_channels = len(jump_from)
    jumps = np.zeros(n_channels, dtype=np.int64)  # per channel; only clicks are kept
    is_click = np.isin(np.arange(n_channels), CLICK_CHANNELS)
    # cumulative channel weights of the squared interleaved real and imaginary parts
    cum_weights = np.repeat(rate_weights_t, 2, axis=0) @ np.triu(np.ones((n_channels,) * 2))
    clicks = [(np.zeros(0, dtype=np.intp),) * 3]  # (trajectory, step, channel) per jump round
    rounds = 0
    for w0 in range(0, n_steps, window):
        take_sample(w0, psi)
        span = min(window, n_steps - w0)
        # state[i] is trajectory rows[i] at window step span - left[i]; the
        # first round searches in place in nxt
        rows, left = np.arange(count), np.full(count, span)
        np.copyto(nxt, psi)
        state = nxt
        n_landed = 0
        while rows.size:
            rounds += 1
            r, prod = threshold[rows], ahead[:rows.size]
            top = left.max()
            for k, power in lifts:
                if k > top:
                    continue
                _times(state, power, out=prod)
                ok = (k <= left) & (_norm2(prod) >= r)
                np.copyto(state, prod, where=ok[:, None])
                left -= k * ok
            done = left == 0
            nxt[rows[done]] = state[done]
            # the others jump on the next step; phi is the no-jump state there
            go = ~done
            rows, left = rows[go], left[go] - 1
            if not rows.size:
                break
            phi = _times(state[go], lifts[-1][1], out=ahead[:rows.size])
            phi /= np.sqrt(_norm2(phi))[:, None]
            cum = phi.view(np.float64) ** 2 @ cum_weights
            u, threshold[rows] = draw(rows, 2)
            channel = (u[:, None] * cum[:, -1:] < cum).argmax(axis=1)
            state, norms = _jump(phi, channel, jump_from, jump_weight)
            if np.any(norms < 1e-150):
                c = int(channel[norms.argmin()])
                raise NormUnderflowError(f"jump on channel {c} produced a null state")
            state /= norms[:, None]
            jumps += np.bincount(channel, minlength=n_channels)
            at = span - left  # the jump's window step
            click = is_click[channel]
            clicks.append((rows[click], w0 + at[click] - 1, channel[click]))
            if marched:
                end = n_landed + rows.size
                landed, landed_at = _room(landed, end), _room(landed_at, end)
                landed[n_landed:end] = state
                landed_at[n_landed:end, 0], landed_at[n_landed:end, 1] = rows, at
                n_landed = end
        samples = -(-span // sample_every)  # sample points in the window, the first at its start
        cur = psi
        if marched and samples > 1:
            jump_rows, jump_at = landed_at[:n_landed].T
            nearest = -(-jump_at // sample_every)  # the first sample at or after each jump
            # sample s takes each trajectory's last jump before it, if any; the
            # rounds store each trajectory's jumps in order, and a stable sort
            # by (sample, trajectory) keeps that order
            key = nearest * count + jump_rows
            order = np.argsort(key, kind="stable")
            key = key[order]
            last = np.append(key[1:] != key[:-1], True) & (key < samples * count)
            order, key = order[last], key[last]
            # carry only those post-jump states to their samples, count rows at a time
            d = key // count * sample_every - jump_at[order]
            for a in range(0, order.size, count):
                part = landed[order[a:a + count]]
                prod = ahead[:part.shape[0]]
                for k, power in lifts:
                    on = (d[a:a + count] & k) != 0
                    if on.any():
                        np.copyto(part, _times(part, power, out=prod), where=on[:, None])
                landed[order[a:a + count]] = part
            bounds = np.searchsorted(key, np.arange(1, samples + 1) * count).tolist()
            for s in range(1, samples):
                _times(cur, u_sample, out=ahead)
                cur, ahead = ahead, cur
                take = slice(bounds[s - 1], bounds[s])
                cur[key[take] % count] = landed[order[take]]
                take_sample(w0 + s * sample_every, cur)
        psi, nxt = nxt, cur
    take_sample(n_steps, psi)
    return clicks, jumps, rounds


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
    their sum; the pre-jump state is psi_j, at the click time. A jump is a
    gather: each C_c^T has at most one nonzero entry per column (a run with
    a jump operator that has two is refused with ValueError), so C_c psi_j
    is psi_j's entries, reordered and scaled.

    The run is cut into windows of whole sample intervals, each about
    WINDOW_STEPS steps long (one interval when ``sample_every`` is longer),
    and every trajectory finishes a window before any starts the next. In
    each search round every trajectory still in the window looks from its
    window-start or last post-jump state to the window end for its next
    jump. As |psi_j|^2 does not increase between jumps, binary lifting over
    the cached U_eff^(2^k), one product per power for all of them, finds the
    last point still >= r; a search that reaches the window end finds no
    jump. A window thus takes 1 + the most jumps any one trajectory makes in
    it rounds (``TrajectoryBatch.rounds``). The samples inside a window are
    then marched from the window-start states by U_eff^sample_every, each
    trajectory restarting from its last post-jump state before the sample.
    Only those last jumps, one per (trajectory, sample) at most, are carried
    to their samples from their lattice steps.
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
    # a jump is a gather; an operator the gather cannot apply is refused here
    jump_from, jump_weight = _jump_tables(np.stack([c.T for c in cs]))
    rate_weights_t = np.stack([np.diag(c.conj().T @ c).real for c in cs], axis=1)  # (9, 6)

    while dt * float(np.diag(decay_sum).real.max()) > MAX_JUMP_PROBABILITY:
        n_steps *= 2
        dt = duration / n_steps
    if n_steps > MAX_STEPS:
        raise TooManyStepsError(f"the jump-probability cap halves the step to {dt:.3g}, which "
                                f"takes more than {MAX_STEPS} steps; use a shorter duration")

    u_t = algebra.expm((-1j * h - 0.5 * decay_sum) * dt).T  # U_eff on row vectors

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
    level_of2 = np.repeat(level_of, 2, axis=0)  # over interleaved real and imaginary parts

    sample_times = []
    mean_rows, sem_rows = [], []
    late_sum = np.zeros((count, 6))
    late_samples = 0
    half_time = duration / 2.0

    def take_sample(at_step, psi):
        nonlocal late_samples, late_sum
        t_now = at_step * dt
        pops = psi.view(np.float64) ** 2 @ level_of2
        pops /= (pops[:, 0] + pops[:, 1] + pops[:, 2])[:, None]  # atom 1's levels sum to the norm
        sample_times.append(t_now)
        mean, sem = _mean_sem(pops)
        mean_rows.append(mean)
        sem_rows.append(sem)
        if t_now >= half_time:
            late_samples += 1
            late_sum += pops

    clicks, jumps, rounds = _run_windows(u_t, jump_from, jump_weight, rate_weights_t, psi0,
                                         count, n_steps, sample_every, seed, take_sample)

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
        rounds=rounds,
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
