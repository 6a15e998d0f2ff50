"""Command-line front end: named computations, figure recipes, CSV output.

Usage:
    rydcorr <command> [figure-name] [flags]

Commands: steady, spectrum, g2, g15, g3, g25, ampratio, figure, trajectories.
Each setting is one row of ``OPTIONS``: a config key (its flag is the key
with "_" written as "-"), a converter and a default; the model parameters
default to the reference set of ``ModelParams``. Flags override a flat
"key = value" config file, which overrides the defaults. A value from either
source passes the same converter, and a bad one (not a finite number, or out
of its setting's range) exits 2, as do argparse's own errors (an unknown flag
or command, a flag without its value).

Every run writes CSV series (header line, then "tau,value" rows with 12
significant digits) and a flat key=value manifest echoing the parameters,
grids, tool version and the state-invariant checks performed along the run.
Output bytes are deterministic for identical configurations. Lines that can
change from run to run (wall time, timestamp, the BLAS thread setting, stage
timings and work counters; keys in ``VOLATILE_KEYS``) close the manifest, so
they can be filtered out.

Exit codes: 0 success, 2 configuration error (grids over MAX_GRID_POINTS
included), 3 numerical-invariant failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, algebra, correlators
from .correlators import CorrelationSeries, _count_chain, _effect_chain
from .errors import (
    BadValueError,
    ConfigError,
    IoFailureError,
    MissingCommandError,
    RydcorrError,
    UnknownFigureError,
    UnknownKeyError,
)
from .liouville import (
    DIM_PAIR,
    STATE_EIG_FLOOR,
    STATIONARY_EIG_TOL,
    TRACE_TOL,
    Liouvillian,
    _coordinates,
    _trace_deviation,
    build_liouvillian,
    derive_adjoint,
    spectrum,
    steady_state,
)
from .model import ModelParams, sigma
from .trajectories import MAX_TRAJECTORIES, STREAM, mcwf_run, write_clicks_csv

# manifest keys (or key prefixes) whose values can change between identical runs
VOLATILE_KEYS = ("timing.", "counter.", "env.", "wall_time_s", "timestamp_utc")

COMMANDS = ("steady", "spectrum", "g2", "g15", "g3", "g25", "ampratio", "figure", "trajectories")

# largest grid a run may build: a chain of this many rows of vec(9x9) is 85 MB
MAX_GRID_POINTS = 65_536
# spectrum command: stationary mode vs steady state
SPECTRUM_MATCH_TOL = 1e-8

# tau window of each series kind (for ampratio: its T window); None ends at T
WINDOWS = {"g2": (0.0, 25.0), "g15": (-25.0, 25.0), "g3": (0.0, None), "g25": (0.0, None),
           "ampratio": (10.0, 18.0)}


@dataclass(frozen=True)
class Recipe:
    """A series kind on fixed atoms, with one panel per T or v12 value.

    The window defaults to the kind's entry in WINDOWS.
    """

    kind: str
    atoms: tuple
    Ts: tuple = (None,)
    v12: tuple = (None,)
    window: tuple | None = None


RECIPES = {
    "fig2": Recipe("g2", (1, 2)),
    "fig3a": Recipe("g15", (1, 1)),
    "fig3b": Recipe("g15", (1, 2), v12=(0.0, 0.5, 1.0)),
    "fig4": Recipe("g3", (1, 1, 2), Ts=(5.0, 10.0, 15.0)),
    "fig5": Recipe("g3", (1, 2, 2), Ts=(5.0, 10.0, 15.0)),
    "fig6": Recipe("g25", (1, 1, 2), Ts=(5.0, 10.0, 20.0)),
    "fig7": Recipe("g25", (1, 2, 2), Ts=(5.0, 10.0, 20.0)),
    "fig8": Recipe("ampratio", (1, 2, 2)),
}
FIGURES = tuple(RECIPES)


def _number(key, text):
    try:
        value = float(text)
    except ValueError:
        raise BadValueError(f"{key} must be numeric, got {text!r}") from None
    if not math.isfinite(value):
        raise BadValueError(f"{key} must be finite, got {text!r}")
    return value


def _positive(key, text):
    value = _number(key, text)
    if value <= 0:
        raise BadValueError(f"{key} must be positive, got {text!r}")
    return value


def _integer(key, text, lo, hi):
    try:
        value = int(text)
    except ValueError:
        raise BadValueError(f"{key} must be an integer, got {text!r}") from None
    if not lo <= value <= hi:
        raise BadValueError(f"{key} must lie in [{lo}, {hi}], got {value}")
    return value


def _trajectories(key, text):
    # the bound is read at call time, so a bound set on the module is seen
    return _integer(key, text, 1, MAX_TRAJECTORIES)


def _seed(key, text):
    return _integer(key, text, 0, 2**64 - 1)  # the range of a Philox key word


def _atoms(key, text):
    try:
        atoms = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadValueError(f"{key} must be comma-separated integers, got {text!r}") from None
    if any(a not in (1, 2) for a in atoms):
        raise BadValueError(f"atom indices must be 1 or 2, got {text!r}")
    return atoms


# config key -> (converter, default); the flag is --key with "_" as "-", and a
# None converter keeps the text. A None default is resolved by the command:
# atoms and window by the series kind, dtau and step by the Rabi period.
OPTIONS = {
    "omega1": (_number, ModelParams.omega1),
    "omega2": (_number, ModelParams.omega2),
    "v12": (_number, ModelParams.v12),
    "gamma2": (_number, ModelParams.gamma2),
    "gammaph": (_number, ModelParams.gamma_ph),
    "theta": (_number, math.pi / 2),
    "t_sep": (_positive, 10.0),
    "tau_min": (_number, None),
    "tau_max": (_number, None),
    "dtau": (_positive, None),
    "atoms": (_atoms, None),
    "seed": (_seed, 1),
    "trajectories": (_trajectories, 100),
    "duration": (_positive, 200.0),
    "step": (_positive, None),
    "out": (None, None),
}


def read_config_file(path) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in OPTIONS:
            raise UnknownKeyError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors (an unknown flag or command, a flag
    without its value) raise BadValueError, so that ``main`` returns 2 with
    argparse's message, which names the argument, instead of exiting.

    A token that float() reads (-2.5e1, -1e-3, -inf) is a flag's value, as it
    is in a config file; argparse's own negative-number pattern takes only
    forms like -25 and -2.5, and reads the others as unknown flags."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = SimpleNamespace(match=_reads_as_float)

    def error(self, message):
        raise BadValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rydcorr",
        description="Correlation functions of the fluorescence from two Rydberg-interacting atoms",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("figure_name", nargs="?")
    for key, (convert, default) in OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=default,
                            type=None if convert is None else functools.partial(convert, key))
    parser.add_argument("--config")
    parser.add_argument("--version", action="version", version=f"rydcorr {__version__}")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Resolve argv (+ optional config file) into validated settings (flags >
    config file > defaults), with ``params`` and the command's ``atoms``."""
    parser = _build_parser()
    cfg = parser.parse_args(argv)
    if cfg.command is None:
        raise MissingCommandError(f"no command given; expected one of {', '.join(COMMANDS)}")
    if cfg.config:
        # argparse runs a string default through the flag's converter
        parser.set_defaults(**read_config_file(cfg.config))
        cfg = parser.parse_args(argv)

    try:
        cfg.params = ModelParams(omega1=cfg.omega1, omega2=cfg.omega2, v12=cfg.v12,
                                 gamma2=cfg.gamma2, gamma_ph=cfg.gammaph)
    except ValueError as exc:
        raise BadValueError(str(exc)) from exc

    default_atoms = {"g2": (1, 2), "g15": (1, 1), "g3": (1, 1, 2), "g25": (1, 1, 2),
                     "ampratio": (1, 2, 2)}.get(cfg.command, ())
    cfg.atoms = cfg.atoms or default_atoms
    if default_atoms and len(cfg.atoms) != len(default_atoms):
        raise BadValueError(f"{cfg.command} needs {len(default_atoms)} atom indices, "
                            f"got {cfg.atoms}")

    if cfg.command == "figure":
        if cfg.figure_name is None:
            raise BadValueError("figure command needs a figure name, e.g. 'rydcorr figure fig2'")
        if cfg.figure_name not in FIGURES:
            raise UnknownFigureError(f"unknown figure {cfg.figure_name!r}; "
                                     f"choose from {', '.join(FIGURES)}")
    elif cfg.figure_name is not None:
        raise BadValueError(f"unexpected positional argument {cfg.figure_name!r} for {cfg.command}")
    if cfg.out and cfg.command != "figure":
        out = Path(cfg.out)
        if not out.name or out.suffix == ".manifest":
            raise BadValueError(f"out must name a file other than a .manifest file, got "
                                f"{cfg.out!r}: the run's manifest is written beside it")
    return cfg


# --- output ----------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _params_echo(p: ModelParams) -> str:
    items = [
        ("omega1", p.omega1), ("omega2", p.omega2), ("v12", p.v12),
        ("gamma1", p.gamma1), ("gamma2", p.gamma2), ("gamma_ph", p.gamma_ph),
    ]
    def show(v):
        v = complex(v)
        return f"{v.real:.12g}" if v.imag == 0 else f"{v.real:.12g}{v.imag:+.12g}j"
    return ";".join(f"{k}={show(v)}" for k, v in items)


def write_csv(series: CorrelationSeries, path, params: ModelParams | None = None) -> None:
    """One series per file: a '#' metadata line, a column header, then tau,value rows."""
    atoms = ",".join(str(a) for a in series.atoms)
    theta = "" if series.theta is None else f"{series.theta:.12g}"
    t_sep = "" if series.T is None else f"{series.T:.12g}"
    params = _params_echo(params) if params is not None else ""
    header = f"# kind={series.kind}, atoms={atoms}, theta={theta}, T={t_sep}, params={params}"
    rows = (f"{t:.11e},{v:.11e}"
            for t, v in zip(series.tau_grid.tolist(), series.values.tolist()))
    _write_lines(path, [header, "tau,value", *rows])


def _write_lines(path, lines) -> None:
    """Each line and a newline; a failed write is an IoFailureError (exit code 4)."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def _bool_word(ok: bool) -> str:
    return "pass" if ok else "fail"


# The audit's sufficient positivity test is one batched Cholesky of
# X - STATE_EIG_FLOOR / 2 I. Run to completion on a Hermitian 9x9 A, Cholesky
# factors A + dA exactly, with |dA_kl| within a small multiple of
# gamma_10 sqrt(a_kk a_ll), so that ||dA||_2 ~ 9 gamma_10 max a_kk ~ 1e-14
# max a_kk (Demmel, LAPACK Working Note 14 (1989); Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed. (2002), ch. 10). A pass proves
# lambda_min(X) >= STATE_EIG_FLOOR / 2 - ||dA||, at or above the floor while
# ||dA|| stays under the margin |STATE_EIG_FLOOR| / 2 = 5e-10, which needs
# bounded entries. A state (rho >= 0, trace 1) or an effect (0 <= E <= I) has
# entries of modulus at most 1; a stack with a real or imaginary part beyond
# this bound, or a non-finite one, is left to eigvalsh.
CHOLESKY_ENTRY_BOUND = 2.0


def _coordinate_gather() -> tuple[np.ndarray, np.ndarray]:
    """For each float of a column-stacked complex 9x9 matrix, its real and
    imaginary part in turn, the coordinate it comes from and its factor: the
    entry above the diagonal is (x_upper + i x_lower) / sqrt2, the one below
    it its conjugate, and a diagonal entry the coordinate itself."""
    upper, lower = algebra._hermitian_pairs(DIM_PAIR * DIM_PAIR)
    diagonal = np.arange(DIM_PAIR) * (DIM_PAIR + 1)
    source = np.zeros((DIM_PAIR * DIM_PAIR, 2), dtype=np.intp)
    factor = np.zeros((DIM_PAIR * DIM_PAIR, 2))
    source[diagonal, 0], factor[diagonal, 0] = diagonal, 1.0
    source[upper, 0] = source[lower, 0] = upper
    source[upper, 1] = source[lower, 1] = lower
    factor[upper] = factor[lower] = algebra._WEIGHT
    factor[lower, 1] = -algebra._WEIGHT
    return source.ravel(), factor.ravel()


_GATHER_SOURCE, _GATHER_FACTOR = _coordinate_gather()


def _stack_from_coordinates(rows: np.ndarray) -> np.ndarray:
    """One complex (N, 9, 9) buffer of the Hermitian matrices of coordinate
    rows, each transposed, which conjugates it and keeps its eigenvalues: the
    column-stacked entries in C order, in one gather from the rows and one
    scaling. The diagonal entries are the coordinates themselves."""
    n = len(rows)
    stack = np.empty((n, DIM_PAIR, DIM_PAIR), dtype=complex)
    parts = stack.reshape(n, DIM_PAIR * DIM_PAIR).view(float)
    # every index is in range; "clip" lets take write into out without a buffer
    np.take(rows, _GATHER_SOURCE, axis=1, out=parts, mode="clip")
    parts *= _GATHER_FACTOR
    return stack


def _cholesky_passes(stack: np.ndarray) -> bool:
    """Whether one batched Cholesky proves every matrix of a C-contiguous
    Hermitian stack at or above STATE_EIG_FLOOR (see CHOLESKY_ENTRY_BOUND).
    It shifts the stack in place, so the caller's buffer is spent."""
    parts = stack.view(float)
    if not (-CHOLESKY_ENTRY_BOUND <= parts.min() and parts.max() <= CHOLESKY_ENTRY_BOUND):
        return False  # also an inf or a NaN, which cholesky factors into NaNs without raising
    stack.reshape(len(stack), -1)[:, ::DIM_PAIR + 1].real -= 0.5 * STATE_EIG_FLOOR
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


class InvariantLog:
    """Worst-case generator and state/effect residuals seen along a run, and
    the spectrum command's structure verdict, for the manifest.

    States and effects arrive as (N, 81) coordinate rows in the Hermitian
    basis, one stack per ``add_coordinates`` call. Each stack is gathered by
    ``_stack_from_coordinates`` and passes the sufficient Cholesky test
    (``_cholesky_passes``), or is gathered again, with the same eigenvalues,
    and decided by ``eigvalsh``. So ``min_eig`` is the smallest eigenvalue of
    a stack that the test did not pass, capped at 0, and 0 when every stack
    passed; ``eigvalsh_stacks`` counts the stacks that the eigenvalues
    decided.
    """

    def __init__(self):
        self.max_trace_dev = 0.0
        self.max_herm = 0.0
        self.min_eig = 0.0
        self.checked = 0
        self.eigvalsh_stacks = 0
        self.spectrum_ok = True

    def add_steady_state(self, lv: Liouvillian) -> np.ndarray:
        """Log a forward generator's Hermiticity residue (no verdict: a larger
        one than ``HERMITIAN_BASIS_RTOL`` is refused when built), check its
        steady state, and return that state as a 9x9 matrix."""
        self.max_herm = max(self.max_herm, lv.hermitian_residue)
        rho = steady_state(lv)
        self.add_coordinates(_row(rho))
        return rho

    def add_coordinates(self, rows, effects=False):
        """Density matrices, whose trace must be one, or with ``effects``
        effect matrices, which have no trace condition, as (N, 81)
        coordinate rows in the Hermitian basis."""
        stack = _stack_from_coordinates(rows)
        self.checked += len(stack)
        if not effects:
            self.max_trace_dev = float(np.max(_trace_deviation(stack), initial=self.max_trace_dev))
        if len(stack) and not _cholesky_passes(stack):
            self.eigvalsh_stacks += 1
            try:  # the test spent the stack
                min_eig = np.linalg.eigvalsh(_stack_from_coordinates(rows)).min(axis=-1)
            except np.linalg.LinAlgError:  # eigvalsh does not converge on an inf or a NaN
                min_eig = np.nan
            self.min_eig = float(np.min(min_eig, initial=self.min_eig))

    @property
    def ok(self) -> bool:
        return (self.max_trace_dev <= TRACE_TOL and self.min_eig >= STATE_EIG_FLOOR
                and self.spectrum_ok)

    def entries(self):
        return [
            ("invariant.states_checked", str(self.checked)),
            ("invariant.max_trace_dev", _fmt(self.max_trace_dev)),
            ("invariant.max_hermiticity_residual", _fmt(self.max_herm)),
            ("invariant.min_eigenvalue", _fmt(self.min_eig)),
            ("invariant.overall", _bool_word(self.ok)),
        ]


def _row(matrix: np.ndarray) -> np.ndarray:
    """One Hermitian 9x9 matrix as a stack of one coordinate row."""
    return _coordinates(algebra.vectorize(matrix))[np.newaxis]


def _audit_conditional_path(lv: Liouvillian, i: int, grid, log: InvariantLog,
                            lv_adj: Liouvillian | None = None, k: int | None = None,
                            T: float | None = None) -> None:
    """Check a recipe's conditional path: the generator and its steady state,
    the state after the count on atom i at each grid point >= 0 and, given
    the adjoint, the projector on atom k and the effect matrix before the
    count on atom k at T, at each grid point. Every one reaches the log as
    coordinate rows.

    The states are the correlator's own first chain over the emission rate,
    read back from the generator (``correlators._count_chain``; marched only
    if no correlator left it there), with their traces as marched; the
    past-quantum-state pair marches its own (``correlators._state_chain``),
    so that the route check sees two forward roundings. The effects are that
    pair's backward half, ``correlators._effect_chain``, kept on the one
    adjoint every ``derive_adjoint(lv)`` returns (fig8's audit shares
    ``amplitude_ratio``'s). Each stack is checked and dropped before the
    next is built, so the states and the effects are never copied together.
    """
    log.add_steady_state(lv)
    log.add_coordinates(_count_chain(lv, i, grid[grid >= 0]))
    if lv_adj is not None and k is not None and T is not None:
        log.add_coordinates(_row(sigma(k, 2, 2).matrix), effects=True)
        log.add_coordinates(_effect_chain(lv_adj, k, grid, T), effects=True)


def _grid(lo, hi, dt):
    steps = (hi - lo) / dt
    if not steps <= MAX_GRID_POINTS - 1:  # also refuses inf and nan
        raise BadValueError(f"a step of {dt:.3g} over [{lo:g}, {hi:g}] makes a grid of more than "
                            f"{MAX_GRID_POINTS} points; use a larger step or a narrower window")
    n = max(1, int(round(steps)))
    return np.linspace(lo, hi, n + 1)


def _run_recipe(recipe: Recipe, cfg: argparse.Namespace, log: InvariantLog) -> list:
    """Every panel of a recipe, each followed by the audit of its conditional path.

    ``cfg.dtau`` is the step of the tau grid, or of the ampratio T grid
    (default: a fortieth of the Rabi period, or a sixteenth for T). Returns
    (suffix, series, panel parameters) triples; the suffix names the panel
    (``_v0.5``, ``_T10``, ``_max``) and is empty for a single panel. Every
    grid is built, and so checked against MAX_GRID_POINTS, before the first
    generator.
    """
    p, theta = cfg.params, cfg.theta
    period = 2 * math.pi / p.rabi
    step = cfg.dtau
    if step is None:
        step = period / (16.0 if recipe.kind == "ampratio" else 40.0)
    lo, hi = recipe.window or WINDOWS[recipe.kind]
    i, k = recipe.atoms[0], recipe.atoms[-1]
    amplitude = (theta,) if recipe.kind in ("g15", "g25") else ()
    if recipe.kind == "ampratio":
        # audited like a g25 panel at T = hi
        T_grid = _grid(lo, hi, step)
        audit_grid = _grid(0.0, hi, period / 40.0)
    else:
        grids = [_grid(lo, T if hi is None else hi, step) for T in recipe.Ts]
    out = []
    for v12 in recipe.v12:
        panel = p if v12 is None else replace(p, v12=v12)
        tag = "" if v12 is None else f"_v{v12:g}"
        lv = build_liouvillian(panel)
        if recipe.kind == "ampratio":
            series = correlators.amplitude_ratio(lv, *recipe.atoms, theta, T_grid)
            out.extend((f"{tag}_{name}", s, panel) for name, s in zip(("max", "min", "mean"), series))
            _audit_conditional_path(lv, i, audit_grid, log, derive_adjoint(lv), k, hi)
            continue
        lv_adj = derive_adjoint(lv) if recipe.kind in ("g3", "g25") else None
        for T, grid in zip(recipe.Ts, grids):
            # looked up at call time, so a wrapper installed on the module is seen
            series = getattr(correlators, recipe.kind)(lv, *recipe.atoms, *amplitude, grid,
                                                       *([] if T is None else [T]))
            out.append((tag if T is None else f"{tag}_T{T:g}", series, panel))
            _audit_conditional_path(lv, i, grid, log, lv_adj, k, T)
    return out


# --- commands ---------------------------------------------------------------

def _run_series_command(cfg: argparse.Namespace, out: Path):
    kind = cfg.command
    lo = cfg.tau_min if cfg.tau_min is not None else WINDOWS[kind][0]
    hi = cfg.tau_max if cfg.tau_max is not None else WINDOWS[kind][1]
    if kind == "g2" and lo < 0:
        raise BadValueError("g2 needs tau >= 0")
    if kind == "ampratio" and lo <= 0:
        raise BadValueError("ampratio needs a positive T grid")
    three_time = kind in ("g3", "g25")
    if three_time:
        hi = cfg.t_sep if hi is None else hi
        if lo < 0 or hi > cfg.t_sep:
            raise BadValueError(f"{kind} needs 0 <= tau <= t_sep = {cfg.t_sep:g}, "
                                f"got [{lo:g}, {hi:g}]")
    if hi <= lo:
        raise BadValueError(f"tau_max {hi:g} must exceed tau_min {lo:g}")
    recipe = Recipe(kind, cfg.atoms, Ts=(cfg.t_sep,) if three_time else (None,), window=(lo, hi))
    log = InvariantLog()
    panels = _run_recipe(recipe, cfg, log)

    entries = [("command", kind), ("atoms", ",".join(map(str, cfg.atoms)))]
    if kind in ("g15", "g25", "ampratio"):
        entries.append(("theta", f"{cfg.theta:.12g}"))
    if three_time:
        entries.append(("t_sep", f"{cfg.t_sep:.12g}"))
    grid = panels[0][1].tau_grid
    entries += [("tau_min", f"{grid[0]:.12g}"), ("tau_max", f"{grid[-1]:.12g}"),
                ("points", str(len(grid)))]
    outputs = []
    for suffix, series, params in panels:
        path = out if len(panels) == 1 else out.with_name(f"{out.stem}{suffix}{out.suffix or '.csv'}")
        write_csv(series, path, params=params)
        outputs.append(path)
    return entries, log, outputs


def _run_steady(cfg: argparse.Namespace, out: Path):
    log = InvariantLog()
    rho = log.add_steady_state(build_liouvillian(cfg.params))
    rows = (f"{r},{c},{_fmt(rho[r, c].real)},{_fmt(rho[r, c].imag)}"
            for r in range(DIM_PAIR) for c in range(DIM_PAIR))
    _write_lines(out, [f"# kind=steady_state, params={_params_echo(cfg.params)}", "row,col,re,im", *rows])
    entries = [("command", "steady")]
    for a in (1, 2):
        pop = np.trace(sigma(a, 2, 2).matrix @ rho).real
        entries.append((f"excited_population_atom{a}", _fmt(pop)))
    entries.append(("rydberg_pair_population", _fmt(rho[8, 8].real)))
    return entries, log, [out]


def _run_spectrum(cfg: argparse.Namespace, out: Path):
    lv = build_liouvillian(cfg.params)
    spec = spectrum(lv)
    log = InvariantLog()
    rho = log.add_steady_state(lv)
    rows = (f"{n},{_fmt(w.real)},{_fmt(w.imag)}" for n, w in enumerate(spec.eigenvalues))
    _write_lines(out, [f"# kind=spectrum, params={_params_echo(cfg.params)}", "index,re,im", *rows])
    w = spec.eigenvalues
    zero_modes = spec.stationary_count
    zero_symmetric, zero_antisymmetric = spec.stationary_by_parity
    max_real = float(w.real.max())
    mode0 = algebra.devectorize(spec.right_modes[:, 0], DIM_PAIR, DIM_PAIR)
    steady_match = float(np.max(np.abs(mode0 - rho)))
    entries = [
        ("command", "spectrum"),
        ("stationary_modes", str(zero_modes)),
        ("stationary_modes_symmetric", str(zero_symmetric)),
        ("stationary_modes_antisymmetric", str(zero_antisymmetric)),
        ("max_real_part", _fmt(max_real)),
        # a generator above HERMITIAN_BASIS_RTOL is refused when built; below
        # it, the real matrix gives eigenvalues closed under conjugation exactly
        ("hermitian_basis_residue", _fmt(lv.hermitian_residue)),
        # likewise above PARITY_RTOL: below it, the spectrum is the two sectors'
        ("parity_residue", _fmt(lv.parity_residue)),
        ("zero_mode_vs_steady_state", _fmt(steady_match)),
    ]
    log.spectrum_ok = (zero_modes == 1 and max_real <= STATIONARY_EIG_TOL
                       and steady_match <= SPECTRUM_MATCH_TOL)
    entries.append(("invariant.spectrum", _bool_word(log.spectrum_ok)))
    return entries, log, [out]


def _run_trajectories(cfg: argparse.Namespace, out: Path):
    p = cfg.params
    step = cfg.step if cfg.step is not None else 0.005 / max(1.0, p.rabi)
    t0 = time.perf_counter()
    batch = mcwf_run(p, duration=cfg.duration, step=step, seed=cfg.seed, count=cfg.trajectories)
    run_s = time.perf_counter() - t0
    write_clicks_csv(batch, out)
    log = InvariantLog()
    rho = log.add_steady_state(build_liouvillian(p))
    n_clicks = batch.clicks.size
    entries = [
        ("command", "trajectories"),
        ("stream", STREAM),
        ("seed", str(batch.seed)),
        ("trajectories", str(batch.count)),
        ("duration", f"{batch.duration:.12g}"),
        ("step", f"{batch.step:.12g}"),
        ("clicks_total", str(n_clicks)),
        ("click_rate_per_atom", _fmt(n_clicks / (2 * batch.count * batch.duration))),
        ("steady_emission_rate", _fmt(np.trace(sigma(1, 2, 2).matrix @ rho).real)),
        ("timing.mcwf_run_s", f"{run_s:.3f}"),
        ("counter.mcwf.steps", str(batch.count * round(batch.duration / batch.step))),
        *((f"counter.mcwf.jumps.c{c}", str(n)) for c, n in enumerate(batch.jumps)),
        ("counter.mcwf.uniforms", str(batch.count + 2 * sum(batch.jumps))),
        ("counter.mcwf.rounds", str(batch.rounds)),
    ]
    return entries, log, [out]


def run_figure(name: str, cfg: argparse.Namespace):
    """Produce the CSV series for one named figure recipe."""
    if name not in RECIPES:
        raise UnknownFigureError(f"unknown figure {name!r}")
    recipe = RECIPES[name]
    out_dir = Path(cfg.out) if cfg.out else Path(name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create {out_dir}: {exc}") from exc

    log = InvariantLog()
    panels = _run_recipe(recipe, cfg, log)
    outputs = []
    for suffix, series, params in panels:
        path = out_dir / f"{name}_{recipe.kind}_{''.join(map(str, recipe.atoms))}{suffix}.csv"
        write_csv(series, path, params=params)
        outputs.append(path)
    return [("command", "figure"), ("figure", name)], log, outputs, out_dir / f"{name}.manifest"


def run(cfg: argparse.Namespace) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    t0 = time.monotonic()
    if cfg.command == "figure":
        entries, log, outputs, manifest = run_figure(cfg.figure_name, cfg)
    else:
        # the manifest goes beside the output: g2.csv and v1 give g2.manifest and v1.manifest
        name = "clicks" if cfg.command == "trajectories" else cfg.command
        out = Path(cfg.out or f"{name}.csv")
        handler = {"steady": _run_steady, "spectrum": _run_spectrum,
                   "trajectories": _run_trajectories}.get(cfg.command, _run_series_command)
        entries, log, outputs = handler(cfg, out)
        manifest = out.with_suffix(".manifest")

    head = [("tool", "rydcorr"), ("version", __version__)]
    for part in _params_echo(cfg.params).split(";"):
        k, _, v = part.partition("=")
        head.append((f"param.{k}", v))
    tail = [("outputs", ";".join(str(o) for o in outputs))]
    tail.extend(log.entries())
    volatile = [e for e in entries if e[0].startswith(VOLATILE_KEYS)] + [
        ("counter.audit.eigvalsh_stacks", str(log.eigvalsh_stacks)),
        ("env.openblas_num_threads", os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        ("wall_time_s", f"{time.monotonic() - t0:.3f}"),
        ("timestamp_utc", datetime.now(timezone.utc).isoformat()),
    ]
    entries = [e for e in entries if not e[0].startswith(VOLATILE_KEYS)]
    _write_lines(manifest, (f"{k} = {v}" for k, v in head + entries + tail + volatile))
    if not log.ok:
        print(f"rydcorr: numerical invariant failure; see {manifest}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except RydcorrError as exc:
        print(f"rydcorr: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4 if isinstance(exc, IoFailureError) else 3


if __name__ == "__main__":
    sys.exit(main())
