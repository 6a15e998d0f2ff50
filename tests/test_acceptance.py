"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here runs at the reference parameter set except the statistical
trajectory oracle, which uses a brighter set (omega1=1, omega2=2, v12=1,
gamma2=gamma_ph=0.2): at the reference point the atoms emit ~3e-6 photons
per unit time, far below what any desk-scale click histogram can resolve,
while the bright point exercises the identical machinery with healthy
statistics.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from rydcorr import (
    ModelParams,
    amplitude_ratio,
    build_adjoint_liouvillian,
    build_liouvillian,
    dominant_frequency,
    estimate_g2,
    g2,
    g3,
    g3_via_pqs,
    g15,
    g25,
    g25_via_pqs,
    mcwf_run,
    propagate,
    spectrum,
    steady_state,
)
from rydcorr.cli import InvariantLog, _audit_conditional_path
from rydcorr.model import sigma

from conftest import BRIGHT, THETA, default_grid, refined_maxima, rel_close, series_rel_close, series_rel_close
from oracles import conjugation_defect

MCWF_SEED = 20260809


def report(number, ok, detail):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mcwf_batch():
    return mcwf_run(BRIGHT, duration=200.0, step=0.004, seed=MCWF_SEED, count=10_000)


def test_criterion_01_antibunching_zeros(lv, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    worst = max(
        abs(g2(lv, 1, 1, grid).values[0]),
        abs(g2(lv, 2, 2, grid).values[0]),
        abs(g3(lv, 1, 1, 2, grid, T).values[0]),
        abs(g3(lv, 1, 2, 2, grid, T).values[-1]),
    )
    report(1, worst <= 1e-10, f"same-atom coincidences vanish (worst {worst:.2e})")


def test_criterion_02_bunching_and_period(lv, params):
    period = 2 * math.pi / params.rabi
    assert period == pytest.approx(1.2556, abs=2e-4)
    grid = default_grid(params, 0.0, 12.0)
    series = g2(lv, 1, 2, grid)
    zero_val = series.values[0]
    maxima = refined_maxima(grid, series.values)[:5]
    spacing = float(np.mean(np.diff(maxima)))
    ok = zero_val > 1.0 and len(maxima) == 5 and abs(spacing - period) <= 0.02 * period
    report(2, ok, f"g2_12(0) = {zero_val:.3e} > 1, maxima spacing {spacing:.4f} vs {period:.4f}")


def test_criterion_03_uncoupled_atoms_decouple():
    p0 = ModelParams(v12=0.0)
    lv0 = build_liouvillian(p0)
    d2 = np.max(np.abs(g2(lv0, 1, 2, default_grid(p0, 0.0, 25.0)).values - 1.0))
    d15 = np.max(np.abs(g15(lv0, 1, 2, THETA, default_grid(p0, -25.0, 25.0)).values - 1.0))
    ok = d2 <= 1e-8 and d15 <= 1e-8
    report(3, ok, f"v12=0 cross correlators unity (|g2-1| {d2:.2e}, |g15-1| {d15:.2e})")


def test_criterion_04_frequency_doubling(lv, params):
    series = g15(lv, 1, 1, THETA, default_grid(params, -25.0, 25.0))
    f_neg = dominant_frequency(series, "negative")
    f_pos = dominant_frequency(series, "positive")
    ok = (abs(f_neg - params.rabi) <= 0.05 * params.rabi
          and abs(f_pos - params.rabi / 2) <= 0.05 * params.rabi / 2)
    report(4, ok, f"amplitude oscillates at {f_neg:.3f} before and {f_pos:.3f} after the count "
                  f"(rabi {params.rabi:.3f})")


def test_criterion_05_spectrum_structure(lv, rho_ss):
    spec = spectrum(lv)
    w = spec.eigenvalues
    n_zero = int(np.sum(np.abs(w) <= 1e-10))
    max_re = float(w.real.max())
    # spectrum's real eigensolve closes w under conjugation by construction,
    # so closure is measured on the complex generator's own eigenvalues
    conj = conjugation_defect(scipy.linalg.eigvals(lv.matrix))
    mode0 = spec.right_modes[:, 0].reshape(9, 9, order="F")
    match = float(np.max(np.abs(mode0 - rho_ss)))
    ok = n_zero == 1 and max_re <= 1e-10 and conj <= 1e-8 and match <= 1e-8
    report(5, ok, f"{n_zero} stationary mode, max Re {max_re:.1e}, conjugation {conj:.1e}, "
                  f"steady match {match:.1e}")


def test_criterion_06_route_equivalence(lv, lv_adj, params):
    worst = 0.0
    checks = 0
    for T in (5.0, 10.0, 15.0):
        grid = default_grid(params, 0.0, T)
        for atoms in ((1, 2, 2), (1, 1, 2)):
            a = g3(lv, *atoms, grid, T).values
            b = g3_via_pqs(lv, lv_adj, *atoms, grid, T).values
            worst = max(worst, series_rel_close(a, b, rtol=1e-8))
            checks += grid.size
    for T in (5.0, 10.0, 20.0):
        grid = default_grid(params, 0.0, T)
        for atoms in ((1, 2, 2), (1, 1, 2)):
            a = g25(lv, *atoms, THETA, grid, T).values
            b = g25_via_pqs(lv, lv_adj, *atoms, THETA, grid, T).values
            worst = max(worst, series_rel_close(a, b, rtol=1e-8))
            checks += grid.size
    report(6, worst < 1.0, f"conditioning route matches regression route at 1e-8 relative "
                           f"on {checks} points (worst bound fraction {worst:.2e})")


def window_ptp(grid, values, lo, hi):
    m = (grid >= lo - 1e-12) & (grid <= hi + 1e-12)
    return float(values[m].max() - values[m].min())


def reduced_g3(lv, i, j, k, grid, T):
    """Three-time intensity correlation with the two-time coincidence factors
    divided out: g3_ijk(tau,T) / (g2_ij(tau) g2_jk(T-tau)).

    The raw curves are dominated by pair-coincidence structure at the window
    ends (huge cross-atom bunching, exact same-atom zeros); dividing by the
    measured two-time correlators removes exactly that boundary physics and
    leaves the intermediate-time oscillations whose damping is under test.
    Independent atoms give identically 1.
    """
    g3v = g3(lv, i, j, k, grid, T).values
    first = g2(lv, i, j, grid).values
    second = g2(lv, j, k, grid).values[::-1]  # g2_jk(T - tau) on a symmetric grid
    good = (np.abs(first) > 1e-8) & (np.abs(second) > 1e-8)
    out = np.full(grid.size, np.nan)
    out[good] = g3v[good] / (first[good] * second[good])
    return grid[good], out[good]


def test_criterion_07_persistence_contrast(lv, params):
    # amplitude family, raw peak-to-peak on the declared windows
    T = 20.0
    grid = default_grid(params, 0.0, T)
    ratios = {}
    for tag, atoms in (("g25_122", (1, 2, 2)), ("g25_112", (1, 1, 2))):
        v = g25(lv, *atoms, THETA, grid, T).values
        ratios[tag] = window_ptp(grid, v, T - 4.0, T) / window_ptp(grid, v, 0.0, 4.0)
    # intensity family, coincidence-reduced peak-to-peak on the same windows
    T = 15.0
    grid = default_grid(params, 0.0, T)
    for tag, atoms in (("g3_122", (1, 2, 2)), ("g3_112", (1, 1, 2))):
        g, v = reduced_g3(lv, *atoms, grid, T)
        ratios[tag] = window_ptp(g, v, T - 4.0, T) / window_ptp(g, v, 0.0, 4.0)
    ok = (ratios["g25_122"] >= 0.5 and ratios["g3_122"] >= 0.5
          and ratios["g25_112"] <= 0.2 and ratios["g3_112"] <= 0.2)
    report(7, ok, "late/early oscillation ratios " +
           ", ".join(f"{k} {v:.3f}" for k, v in ratios.items()))


def test_criterion_08_amplitude_ratio_sweep(lv, params):
    period = 2 * math.pi / params.rabi
    Ts = np.arange(10.0, 18.0 + 1e-9, period / 16)
    hi, lo, mean = amplitude_ratio(lv, 1, 2, 2, THETA, Ts)
    ordered = bool(np.all(hi.values >= mean.values) and np.all(mean.values >= lo.values))

    m = mean.values
    sign_change = np.nonzero(np.sign(m[:-1]) != np.sign(m[1:]))[0]
    crossings = np.array([
        Ts[k] - m[k] * (Ts[k + 1] - Ts[k]) / (m[k + 1] - m[k]) for k in sign_change
    ])
    # one full positive/negative cycle per g2 period: compare same-direction flips
    same_direction = np.diff(crossings[::2])
    spacing = float(np.mean(same_direction))
    spacing_ok = abs(spacing - period) <= 0.10 * period

    # around its extremes the window range is one-sided: [~0, large positive]
    # at the positive peak, [large negative, ~0] at the negative peak
    k_pos = int(np.argmax(m))
    k_neg = int(np.argmin(m))
    one_sided = (abs(lo.values[k_pos]) <= 0.1 * hi.values[k_pos]
                 and hi.values[k_neg] <= 0.1 * abs(lo.values[k_neg]))

    ok = ordered and len(crossings) >= 4 and spacing_ok and one_sided
    report(8, ok, f"max>=mean>=min {ordered}, {len(crossings)} sign flips, full-cycle "
                  f"spacing {spacing:.4f} vs period {period:.4f}, one-sided extremes {one_sided}")


def test_criterion_09_trajectory_oracle(mcwf_batch):
    lv = build_liouvillian(BRIGHT)
    rho_ss = steady_state(lv)
    target = float(np.trace(sigma(1, 2, 2).matrix @ rho_ss).real)
    ground = np.zeros((9, 9), dtype=complex)
    ground[0, 0] = 1.0

    zs = []
    for atom in (1, 2):
        mean, sem = mcwf_batch.late_population(atom, 2)
        zs.append(abs(mean - target) / sem)
    ts = mcwf_batch.sample_times
    for k in np.linspace(2, len(ts) - 1, 6).astype(int):
        me = float(np.trace(sigma(1, 2, 2).matrix @ propagate(lv, ground, ts[k])).real)
        mc = mcwf_batch.level_mean["atom1"][k, 1]
        sem = mcwf_batch.level_sem["atom1"][k, 1]
        zs.append(abs(mc - me) / sem)
    pop_worst = max(zs)

    period = 2 * math.pi / BRIGHT.rabi
    bw = period / 4
    centers = np.arange(bw / 2, 4.0, bw)
    est = estimate_g2(mcwf_batch, 1, 2, centers, bw, t_min=20.0)
    fine = np.linspace(0.0, centers[-1] + bw / 2, 2401)
    reg = g2(lv, 1, 2, fine)
    g2_worst = 0.0
    for c, v, se in zip(centers, est.values, est.stderr):
        truth = reg.values[(fine >= c - bw / 2) & (fine < c + bw / 2)].mean()
        g2_worst = max(g2_worst, abs(v - truth) / se)

    ok = pop_worst < 3.0 and g2_worst < 3.0
    report(9, ok, f"10^4 trajectories vs master equation: population worst z {pop_worst:.2f}, "
                  f"g2 bins worst z {g2_worst:.2f}")


def test_criterion_10_state_sanity_and_exchange(lv, lv_adj, params):
    log = InvariantLog()
    dtau = (2 * math.pi / params.rabi) / 40.0

    def grid(lo, hi):
        n = int(round((hi - lo) / dtau))
        return np.linspace(lo, hi, n + 1)

    _audit_conditional_path(lv, 1, grid(0.0, 25.0), log)                      # two-time recipes
    _audit_conditional_path(lv, 1, grid(-25.0, 25.0), log)
    for T in (5.0, 10.0, 15.0, 20.0):                                         # three-time recipes
        _audit_conditional_path(lv, 1, grid(0.0, T), log, lv_adj, 2, T)
    states_ok = log.ok

    T = 5.0
    g = grid(0.0, T)
    worst = 0.0
    for a, b in (
        (g2(lv, 1, 2, g).values, g2(lv, 2, 1, g).values),
        (g3(lv, 1, 1, 2, g, T).values, g3(lv, 2, 2, 1, g, T).values),
        (g3(lv, 1, 2, 2, g, T).values, g3(lv, 2, 1, 1, g, T).values),
        (g25(lv, 1, 1, 2, THETA, g, T).values, g25(lv, 2, 2, 1, THETA, g, T).values),
        (g25(lv, 1, 2, 2, THETA, g, T).values, g25(lv, 2, 1, 1, THETA, g, T).values),
    ):
        worst = max(worst, rel_close(a, b, rtol=1e-10, atol=1e-12))
    ok = states_ok and worst < 1.0
    report(10, ok, f"{log.checked} states/effects within tolerances "
                   f"(trace {log.max_trace_dev:.1e}, herm {log.max_herm:.1e}, "
                   f"min eig {log.min_eig:.1e}); exchange identities hold")
