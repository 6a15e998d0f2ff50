"""Steady-state multi-time correlation functions of the emitted light.

Every correlator is a choice of insertion superoperators fed to one kernel,
``_regression``: between insertions the (unnormalized) conditional matrix
evolves under the master-equation generator, and each insertion multiplies
it from the left and/or right. A photon count on atom i is X -> s12_i X
s21_i. A homodyne measurement of atom j's field quadrature at phase theta
(Carmichael, Castro-Beltran, Foster & Orozco, PRL 85, 1855 (2000)) is
X -> (e^{i theta} X s21_j + e^{-i theta} s12_j X) / 2: on the Hermitian X
the kernel carries, this is the Hermitian part of e^{i theta} X s21_j, the
ordering the time-ordered, normally ordered field correlators reduce to, so
a trace read after it is Re(e^{i theta} ...) of the one-sided insertion's.
``_insertion`` writes both as 81x81 superoperators. Both
map Hermitian matrices to Hermitian matrices, so the kernel runs in the
Hermitian basis of ``liouville`` on real rows only: the start vector, the
insertions (``_basis_insertion``) and the readout functional are converted
once, and the rows marched in real arithmetic.

The past-quantum-state pair (Gammelmark, Julsgaard & Molmer, PRL 111,
160401 (2013)) is written here once, for ``pqs``, ``amplitude_ratio`` and the
CLI's audit: ``_state_chain``, ``_effect_chain`` and ``_contract``. Each
chain is kept on its generator, the state chain in a slot of its own beside
regression's first chain, so g3 and g25 of one generator pair, grid and
atoms i, k march the pair once.

Provided correlators (all normalized by products of stationary one-time
expectations, so uncorrelated signals give 1):

* ``g2``  -- count at t, count at t+tau.
* ``g15`` -- count and quadrature amplitude; separate operator orderings for
  the amplitude measured after (tau > 0) and before (tau < 0) the count.
* ``g3``  -- counts at t and t+tau, count at t+T.
* ``g25`` -- count at t, amplitude at t+tau, count at t+T.
* ``amplitude_ratio`` -- g25 normalized by g2(T), summarized around tau = T/2;
  its windows are read by the past-quantum-state contraction, not the kernel.

``dominant_frequency`` estimates the leading angular frequency of a series
from its periodogram (used to verify the oscillation-frequency structure).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import (
    DegenerateQuadratureError,
    InvariantViolationError,
    NoOscillationError,
    TooFewSamplesError,
    ZeroEmissionRateError,
)
from .liouville import (
    Liouvillian,
    _coordinates,
    _kept_chain,
    derive_adjoint,
    grid_steps,
    steady_state,
)
from .model import DIM_PAIR, sigma

__all__ = [
    "CorrelationSeries",
    "g2",
    "g15",
    "g3",
    "g25",
    "amplitude_ratio",
    "dominant_frequency",
]

SERIES_KINDS = ("g2", "g15", "g3", "g25", "amplitude_ratio")
EMISSION_RATE_FLOOR = 1e-14


@dataclass(frozen=True)
class CorrelationSeries:
    """A correlator sampled on a strictly increasing delay grid."""

    kind: str
    atoms: tuple
    tau_grid: np.ndarray
    values: np.ndarray
    theta: float | None = None
    T: float | None = None
    stderr: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        grid = np.array(self.tau_grid, dtype=float)
        vals = np.array(self.values, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != vals.shape:
            raise ValueError("tau_grid and values must be equal-length 1-D arrays")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(vals)):
            raise ValueError("series contains non-finite entries")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("tau_grid must be strictly increasing")
        if self.kind == "g2" and len(self.atoms) == 2 and self.atoms[0] == self.atoms[1]:
            at_zero = np.isclose(grid, 0.0, atol=1e-15)
            if np.any(at_zero) and np.max(np.abs(vals[at_zero])) > 1e-10:
                raise InvariantViolationError("same-atom g2 must vanish at tau = 0")
        grid.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "tau_grid", grid)
        object.__setattr__(self, "values", vals)


# --- shared plumbing -------------------------------------------------------

def _expect(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def _emission_rate(rho: np.ndarray, atom: int) -> float:
    p = _expect(sigma(atom, 2, 2).matrix, rho).real
    if p < EMISSION_RATE_FLOOR:
        raise ZeroEmissionRateError(
            f"stationary excited population of atom {atom} is {p:.3e}; "
            "the correlator normalization is undefined (dark-state parameters)"
        )
    return p


def _quadrature_mean(rho: np.ndarray, atom: int, theta: float) -> float:
    p = _emission_rate(rho, atom)
    q = (np.exp(1j * theta) * _expect(sigma(atom, 2, 1).matrix, rho)).real
    if abs(q) < 1e-12 * math.sqrt(p):
        raise DegenerateQuadratureError(
            f"mean quadrature of atom {atom} at theta={theta} is {q:.3e}"
        )
    return q


def _check_grid(grid, lo=None, hi=None):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("tau grid must be a nonempty 1-D array")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise ValueError("tau grid must be strictly increasing")
    # no slack: the march would refuse the negative step to lo or back from hi
    if lo is not None and g[0] < lo:
        raise ValueError(f"tau grid starts below {lo}")
    if hi is not None and g[-1] > hi:
        raise ValueError(f"tau grid ends above {hi}")
    return g


def _march(lv: Liouvillian, rows: np.ndarray, counts: np.ndarray, h: float,
           block: int) -> np.ndarray:
    """Advance coordinate row n (rows of shape (N, 81)) by counts[n] steps
    of h: first counts[n] % block single steps of P(h), then counts[n] // block
    jumps of P(block h).

    The jump is its own exponential, never a power of P(h): squaring P(h)
    compounds its rounding, to 13x the error of the direct jump on a
    638-point grid.
    Each phase fetches its propagator once and applies it to the rows still
    short of their count, so a phase of at most s steps costs s matrix
    products.
    """
    w = rows.copy()
    for dt, reps in ((h, counts % block), (block * h, counts // block)):
        if not reps.any():
            continue
        prop = lv.propagator(dt).T
        order = np.argsort(-reps, kind="stable")  # most steps first
        ws = w[order]
        short = np.cumsum(np.bincount(reps)[::-1])[::-1]  # short[s]: rows with >= s steps
        for s in range(1, len(short)):
            ws[:short[s]] = ws[:short[s]] @ prop
        w[order] = ws
    return w


def _suffix_propagate(lv: Liouvillian, rows: np.ndarray, grid: np.ndarray, t_end: float) -> np.ndarray:
    """Finish each coordinate row's evolution from its own grid time to t_end.

    Row k enters at time grid[k], with N - 1 - k grid steps left and then the
    tail t_end - grid[-1]. On a uniform grid (one step h from ``grid_steps``)
    ``_march`` takes the steps in blocks of B = isqrt(N): about N^1.5 row
    products and one more exponential, P(B h), instead of N^2 / 2 products.
    Any other grid is marched step by step, each step applied to the rows
    still short of it.
    """
    steps = grid_steps(grid)
    if steps.size and np.all(steps == steps[0]):
        w = _march(lv, rows, np.arange(steps.size, -1, -1), steps[0], math.isqrt(grid.size))
    else:
        w = rows.copy()
        for m, dt in enumerate(steps, start=1):
            w[:m] = w[:m] @ lv.propagator(dt).T
    tail = t_end - grid[-1]
    if tail > 0:
        w = w @ lv.propagator(tail).T
    return w


def _stationary_norm(rho: np.ndarray, counts, amplitude=None) -> float:
    """Product of the stationary count rates of the atoms in ``counts`` and,
    for ``amplitude = (j, theta)``, the mean quadrature of atom j."""
    norm = 1.0
    for atom in counts:
        norm *= _emission_rate(rho, atom)
    if amplitude is not None:
        norm *= _quadrature_mean(rho, *amplitude)
    return norm


def _insertion(atom: int, theta: float | None) -> np.ndarray:
    """Superoperator of a count on one atom (theta None), X -> s12 X s21, or of
    its theta-quadrature amplitude, X -> (e^{i theta} X s21 + e^{-i theta}
    s12 X) / 2: X -> A X B is kron(B.T, A) on column-stacked X."""
    s12, s21 = sigma(atom, 1, 2).matrix, sigma(atom, 2, 1).matrix
    if theta is None:
        return algebra.kron(s21.T, s12)
    phase = 0.5 * np.exp(1j * theta)
    eye = np.eye(DIM_PAIR)
    return phase * algebra.kron(s21.T, eye) + phase.conjugate() * algebra.kron(eye, s12)


@functools.lru_cache(maxsize=64)
def _basis_insertion(atom: int, theta: float | None) -> np.ndarray:
    """``_insertion`` in the Hermitian basis: real, as both insertions map
    Hermitian matrices to Hermitian matrices."""
    op = np.ascontiguousarray(
        algebra.superoperator_in_hermitian_basis(_insertion(atom, theta)).real)
    op.flags.writeable = False
    return op


def _quadrature(atom: int, theta: float) -> np.ndarray:
    """Q = (e^{i theta} s21 + e^{-i theta} s12) / 2, exactly Hermitian: on a
    Hermitian X, Tr(Q X) = Re(e^{i theta} Tr(s21 X))."""
    a = 0.5 * np.exp(1j * theta) * sigma(atom, 2, 1).matrix
    return a + a.conj().T


def _inserted(rho: np.ndarray, insertion: np.ndarray) -> np.ndarray:
    """Coordinates, shape (81,), of a basis insertion applied to rho."""
    return _coordinates(algebra.vectorize(rho)) @ insertion.T


def _read(rows: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Tr(probe @ X) for each coordinate row X, with probe Hermitian: in the
    orthonormal Hermitian basis, the plain dot product of their coordinates."""
    return rows @ _coordinates(algebra.vectorize(probe))


def _chain_steps(grid: np.ndarray) -> np.ndarray:
    """The durations of a chain from delay 0 along ``grid``: to its first point,
    then ``grid_steps``."""
    return np.r_[grid[:1], grid_steps(grid)]


def _count_chain(lv: Liouvillian, i: int, grid: np.ndarray) -> np.ndarray:
    """Coordinate rows of the conditional state after a count on atom i, at
    each point of an ascending grid of delays >= 0: the count applied to the
    steady state over its emission rate (unit trace), marched along the grid.

    These are the first-chain rows of every correlator that starts with that
    count, over the rate; the chain the last of them marched is read back
    from the generator, not marched again.
    """
    rho = steady_state(lv)
    rows = _kept_chain(lv, _inserted(rho, _basis_insertion(i, None)), _chain_steps(grid))
    return rows / _emission_rate(rho, i)


def _state_chain(lv: Liouvillian, i: int, grid) -> np.ndarray:
    """Coordinate rows of rho_c(tau) on an ascending grid of delays >= 0: the
    count on atom i applied to the steady state over its emission rate, then
    marched. Kept on the generator in a slot of its own, never the regression
    route's (``_count_chain``): sharing that forward rounding halved the
    median route deviation over 3,600 ``route_scan`` series (4.3e-5 -> 2.1e-5
    of criterion 06's rule) and hid its 10.8x one."""
    rho = steady_state(lv)
    jumped = _inserted(rho, _basis_insertion(i, None)) / _emission_rate(rho, i)
    return _kept_chain(lv, jumped, _chain_steps(np.asarray(grid, dtype=float)), "state_chain")


def _effect_chain(lv_adj: Liouvillian, k: int, grid, T: float) -> np.ndarray:
    """Coordinate rows of E(tau) on an ascending grid ending by T: the
    excited-state projector of atom k marched back from T with the adjoint,
    which keeps the rows (one entry, keyed by start row and steps)."""
    if not lv_adj.adjoint:
        raise ValueError("effect_chain needs the adjoint generator")
    grid = np.asarray(grid, dtype=float)
    projector = _coordinates(algebra.vectorize(sigma(k, 2, 2).matrix))
    return _kept_chain(lv_adj, projector, np.r_[T - grid[-1:], grid_steps(grid)[::-1]],
                       "effect_chain")[::-1]


def _contract(states: np.ndarray, mid: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Tr(E_n O(rho_n)) for each pair of rows, with O the basis insertion
    ``mid``: in the Hermitian basis, the dot product of their coordinates."""
    return np.einsum("na,na->n", states @ mid.T, effects)


def _regression(lv: Liouvillian, rho: np.ndarray, first: np.ndarray, grid: np.ndarray,
                probe: np.ndarray, mid: np.ndarray | None = None,
                T: float | None = None) -> np.ndarray:
    """The insertion kernel: raw traces Tr(probe @ X) along a delay grid.

    The basis insertion ``first`` acts on rho at delay 0 and the result is
    propagated to each grid point. Without ``mid`` the probe is read there;
    with it, the basis insertion ``mid`` acts on every grid point at once and
    each row is propagated on to T before the probe is read. The first chain
    stays on the generator (``_kept_chain``), where the run audit reads it.
    """
    rows = _kept_chain(lv, _inserted(rho, first), _chain_steps(grid))
    if mid is not None:
        rows = _suffix_propagate(lv, rows @ mid.T, grid, T)
    return _read(rows, probe)


# --- named correlators -----------------------------------------------------

def g2(lv: Liouvillian, i: int, j: int, tau_grid) -> CorrelationSeries:
    """Intensity-intensity correlation: count on atom i, count on atom j a delay tau later."""
    grid = _check_grid(tau_grid, lo=0.0)
    rho = steady_state(lv)
    norm = _stationary_norm(rho, (i, j))
    vals = _regression(lv, rho, _basis_insertion(i, None), grid, sigma(j, 2, 2).matrix) / norm
    return CorrelationSeries(kind="g2", atoms=(i, j), tau_grid=grid, values=vals)


def g15(lv: Liouvillian, i: int, j: int, theta: float, tau_grid) -> CorrelationSeries:
    """Intensity-amplitude correlation across positive and negative delays.

    For tau >= 0 the quadrature of atom j is measured a delay tau after a
    count on atom i; for tau < 0 the amplitude measurement comes first and
    normal ordering leads to a different operator arrangement.
    """
    grid = _check_grid(tau_grid)
    rho = steady_state(lv)
    norm = _stationary_norm(rho, (i,), (j, theta))

    vals = np.empty(grid.size, dtype=float)
    pos = grid >= 0
    neg = ~pos
    if np.any(neg):
        # amplitude first: evolve the quadrature-inserted rho_ss forward by |tau|
        raw = _regression(lv, rho, _basis_insertion(j, theta), -grid[neg][::-1],
                          sigma(i, 2, 2).matrix)
        vals[neg] = raw[::-1] / norm
    if np.any(pos):
        # last, so that the count's chain is the one left on the generator
        raw = _regression(lv, rho, _basis_insertion(i, None), grid[pos], _quadrature(j, theta))
        vals[pos] = raw / norm
    return CorrelationSeries(kind="g15", atoms=(i, j), tau_grid=grid, values=vals, theta=theta)


def _three_time(lv, i, j, k, theta, tau_grid, T) -> CorrelationSeries:
    """Counts on atoms i and k at t and t+T bracketing, at t+tau, a count on
    atom j (theta None: g3) or its theta-quadrature amplitude (g25)."""
    grid = _check_grid(tau_grid, lo=0.0, hi=T)
    rho = steady_state(lv)
    if theta is None:
        kind, norm = "g3", _stationary_norm(rho, (i, j, k))
    else:
        kind, norm = "g25", _stationary_norm(rho, (i, k), (j, theta))
    vals = _regression(lv, rho, _basis_insertion(i, None), grid, sigma(k, 2, 2).matrix,
                       mid=_basis_insertion(j, theta), T=T) / norm
    return CorrelationSeries(kind=kind, atoms=(i, j, k), tau_grid=grid, values=vals,
                             theta=theta, T=T)


def g3(lv: Liouvillian, i: int, j: int, k: int, tau_grid, T: float) -> CorrelationSeries:
    """Three-time intensity correlation: counts on atoms i, j, k at t, t+tau, t+T."""
    return _three_time(lv, i, j, k, None, tau_grid, T)


def g25(lv: Liouvillian, i: int, j: int, k: int, theta: float, tau_grid, T: float) -> CorrelationSeries:
    """Intensity-amplitude-intensity correlation: counts at t and t+T bracket an
    amplitude measurement on atom j at t+tau."""
    return _three_time(lv, i, j, k, theta, tau_grid, T)


def _window_runs(rabi: float, Ts: np.ndarray):
    """``amplitude_ratio``'s tau windows on the T grid Ts, run by run.

    Window n spans width_n = min(2 w, T_n) (w one Rabi period) from
    lo_n = (T_n - width_n) / 2 in m_n points, a step of about w / 40.
    Consecutive windows of one width, every unclipped one, form a run. Yields
    each run's indices, its window starts and the tau grid of its first window.
    """
    window = 2 * math.pi / rabi
    dtau = window / 40.0
    width = np.minimum(2.0 * window, Ts)
    lo = (Ts - width) / 2.0
    m = np.maximum(2, np.rint(width / dtau).astype(int) + 1)
    for run in np.split(np.arange(Ts.size), np.flatnonzero(np.diff(width)) + 1):
        n0 = run[0]
        yield run, lo[run], np.linspace(lo[n0], lo[n0] + width[n0], m[n0])


def _window_step(rabi: float, Ts: np.ndarray) -> float:
    """The tau step of the last run of windows on Ts, to the bit as
    ``amplitude_ratio`` marches it, so a grid on that step reuses the
    sweep's propagators."""
    for _, _, grid in _window_runs(rabi, Ts):
        pass
    return float(grid_steps(grid)[0])


def amplitude_ratio(lv: Liouvillian, i: int, j: int, k: int, theta: float, T_grid):
    """g25 normalized by g2(T), summarized in a window around tau = T/2.

    For every T in ``T_grid`` the ratio g25_ijk(tau, T, theta) / g2_ik(T) is
    evaluated inside [T/2 - window, T/2 + window] (clipped to [0, T]), with
    the window one Rabi period, on a tau grid of a fortieth of one, and
    reduced to its max, min and mean. Returns three series (max, min, mean)
    over the T grid.

    Each window's raw g25 is the past-quantum-state pair of its grid,
    ``_state_chain`` and ``_effect_chain`` from T_n, contracted around the
    amplitude insertion. The windows of a run (``_window_runs``) share the
    chains of the first, each next marching both one step.
    """
    Ts = _check_grid(T_grid, lo=0.0)
    if Ts[0] <= 0:
        raise ValueError("T grid must be strictly positive")

    g2_at_T = g2(lv, i, k, Ts).values
    norm = _stationary_norm(steady_state(lv), (k,), (j, theta))
    lv_adj = derive_adjoint(lv)
    mid = _basis_insertion(j, theta)
    stats = np.empty((3, Ts.size))  # max, min and mean of the ratio at each T
    for run, starts, grid in _window_runs(lv.params.rabi, Ts):
        states = _state_chain(lv, i, grid)
        effects = _effect_chain(lv_adj, k, grid, Ts[run[0]])
        for n, step in zip(run, np.r_[0.0, grid_steps(starts)]):
            if step:
                states = states @ lv.propagator(step).T
                effects = effects @ lv_adj.propagator(step).T
            ratio = _contract(states, mid, effects) / norm / g2_at_T[n]
            stats[:, n] = ratio.max(), ratio.min(), ratio.mean()
    return tuple(CorrelationSeries(kind="amplitude_ratio", atoms=(i, j, k), tau_grid=Ts,
                                   values=vals, theta=theta) for vals in stats)


def dominant_frequency(series: CorrelationSeries, half: str = "all") -> float:
    """Angular frequency of the strongest periodogram peak of (values - mean).

    ``half`` selects the negative-tau or positive-tau part of the grid (or all
    of it); the peak bin is refined by quadratic interpolation. Raises
    TooFewSamplesError below 16 samples and NoOscillationError when no peak
    stands above 3x the median periodogram level.
    """
    if half not in ("negative", "positive", "all"):
        raise ValueError(f"half must be 'negative', 'positive' or 'all', got {half!r}")
    grid = series.tau_grid
    vals = series.values
    if half == "negative":
        mask = grid < 0
    elif half == "positive":
        mask = grid > 0
    else:
        mask = np.ones(grid.size, dtype=bool)
    grid = grid[mask]
    vals = vals[mask]
    if grid.size < 16:
        raise TooFewSamplesError(f"{grid.size} samples in selected half, need >= 16")
    steps = np.diff(grid)
    dt = steps.mean()
    if np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1e-300):
        raise ValueError("dominant_frequency requires a uniform grid")

    x = vals - vals.mean()
    windowed = x * np.hanning(x.size)
    power = np.abs(np.fft.rfft(windowed)) ** 2
    if power.size < 3:
        raise TooFewSamplesError("too few frequency bins")
    nonzero = power[1:]
    peak = int(np.argmax(nonzero)) + 1
    floor = float(np.median(nonzero))
    if power[peak] <= 0 or power[peak] < 3.0 * floor:
        raise NoOscillationError("no periodogram peak above 3x the median level")

    # quadratic refinement on log power; clamp at the spectrum edges
    if 1 <= peak < power.size - 1:
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(power[peak - 1:peak + 2], 1e-300))
        denom = logs[0] - 2 * logs[1] + logs[2]
        shift = 0.5 * (logs[0] - logs[2]) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    return 2 * math.pi * (peak + shift) / (x.size * dt)
