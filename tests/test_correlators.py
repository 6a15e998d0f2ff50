import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcorr import (
    ModelParams,
    amplitude_ratio,
    build_liouvillian,
    cli,
    dominant_frequency,
    g2,
    g15,
    g25,
    g3,
    steady_state,
)
from rydcorr.algebra import from_hermitian_basis, superoperator_in_hermitian_basis, vectorize
from rydcorr.correlators import (
    CorrelationSeries,
    _basis_insertion,
    _inserted,
    _insertion,
    _readout,
    _stationary_norm,
    _suffix_propagate,
)
from rydcorr.errors import (
    DegenerateQuadratureError,
    NoOscillationError,
    TooFewSamplesError,
    ZeroEmissionRateError,
)
from rydcorr.liouville import _coordinate_chain, _coordinates, grid_steps
from rydcorr.model import PairOperator, sigma

from conftest import REF, THETA, default_grid, rel_close, series_rel_close
from oracles import amplitude_event, count_event, multitime_correlator


def steady_population(rho, atom):
    return np.trace(sigma(atom, 2, 2).matrix @ rho).real


# --- pointwise oracle and insertions ------------------------------------------

def test_multitime_no_events_identity(lv, rho_ss):
    identity = PairOperator(np.eye(9))
    assert multitime_correlator(lv, rho_ss, [], identity) == pytest.approx(1.0, abs=1e-12)


def test_multitime_no_events_population(lv, rho_ss):
    val = multitime_correlator(lv, rho_ss, [], sigma(1, 2, 2))
    assert val.real == pytest.approx(steady_population(rho_ss, 1), abs=1e-14)


def test_multitime_click_empties_excited_state(lv, rho_ss):
    val = multitime_correlator(lv, rho_ss, [count_event(0.0, 1)], sigma(1, 2, 2))
    assert abs(val) == 0.0


def test_multitime_rejects_unordered(lv, rho_ss):
    events = [count_event(1.0, 1), count_event(0.5, 2)]
    with pytest.raises(ValueError):
        multitime_correlator(lv, rho_ss, events, sigma(1, 2, 2))
    with pytest.raises(ValueError):
        multitime_correlator(lv, rho_ss, [count_event(2.0, 1)], sigma(1, 2, 2), t_obs=1.0)


def test_insertion_superoperators(rho_ss):
    """On column-stacked X, a count is X -> s12 X s21 and the theta-quadrature
    amplitude insertion X -> (e^{i theta} X s21 + e^{-i theta} s12 X) / 2.
    Each output entry is one entry of X times 1, exactly, or times
    e^{+-i theta} / 2, within the rounding of one complex product."""
    x = rho_ss + 0.3j * np.triu(np.arange(81.0).reshape(9, 9), 1)
    for atom in (1, 2):
        s12, s21 = sigma(atom, 1, 2).matrix, sigma(atom, 2, 1).matrix
        assert np.array_equal(_insertion(atom, None) @ vectorize(x), vectorize(s12 @ x @ s21))
        for theta in (0.0, THETA, 2.0):
            amplitude = vectorize(0.5 * (np.exp(1j * theta) * (x @ s21)
                                         + np.exp(-1j * theta) * (s12 @ x)))
            got = _insertion(atom, theta) @ vectorize(x)
            assert np.all(np.abs(got - amplitude) <= 4 * np.finfo(float).eps * np.abs(amplitude))


@pytest.mark.parametrize("theta", [None, 0.0, THETA, 2.0, -np.pi])
@pytest.mark.parametrize("atom", [1, 2])
def test_basis_insertions_are_real(atom, theta):
    """Both insertions map Hermitian matrices to Hermitian matrices, so in the
    Hermitian basis each is a real matrix: float64, and the imaginary part of
    U^H M U that it drops is rounding, at most 1e-16."""
    op = _basis_insertion(atom, theta)
    full = superoperator_in_hermitian_basis(_insertion(atom, theta))
    assert op.dtype == np.float64
    assert np.array_equal(op, full.real)
    assert np.max(np.abs(full.imag)) <= 1e-16


@pytest.mark.parametrize("atom", [1, 2])
def test_readout_is_the_measured_operator_bit_for_bit(atom):
    """The identity's coordinates through an insertion are, bit for bit, the
    coordinates of s22 for a count and of (e^{i theta} s21 + h.c.) / 2 for an
    amplitude, at seeded theta and at 0 and pi: each correlator's last trace,
    and so each CSV's bytes, rests on this. The memoised rows are read-only."""
    assert np.array_equal(_readout(atom, None), _coordinates(vectorize(sigma(atom, 2, 2).matrix)))
    thetas = [0.0, np.pi, *np.random.default_rng(25).uniform(-7.0, 7.0, 32).tolist()]
    for theta in thetas:
        a = 0.5 * np.exp(1j * theta) * sigma(atom, 2, 1).matrix
        assert np.array_equal(_readout(atom, theta), _coordinates(vectorize(a + a.conj().T)))
    assert not _readout(atom, THETA).flags.writeable


# --- g2 -----------------------------------------------------------------------

def test_g2_same_atom_antibunching(lv, params):
    grid = default_grid(params, 0.0, 2.0)
    assert abs(g2(lv, 1, 1, grid).values[0]) <= 1e-10


def test_g2_cross_bunching_and_tail(lv, params):
    grid = default_grid(params, 0.0, 50.0)
    series = g2(lv, 1, 2, grid)
    assert series.values[0] > 1.0
    assert series.values[-1] == pytest.approx(1.0, abs=1e-3)


def test_g2_series_validation(lv, params):
    with pytest.raises(ValueError):
        g2(lv, 1, 2, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        g2(lv, 1, 2, np.array([-1.0, 0.0]))


def test_g2_dark_parameters_raise():
    lv0 = build_liouvillian(ModelParams(gamma2=0.0, gamma_ph=0.0, v12=0.0))
    with pytest.raises(ZeroEmissionRateError):
        g2(lv0, 1, 2, np.array([0.0, 1.0]))


# --- g15 -----------------------------------------------------------------------

def test_g15_uncoupled_cross_is_unity():
    lv0 = build_liouvillian(ModelParams(v12=0.0))
    grid = default_grid(ModelParams(v12=0.0), -25.0, 25.0)
    series = g15(lv0, 1, 2, THETA, grid)
    assert np.max(np.abs(series.values - 1.0)) < 1e-8


def test_g15_long_delay_factorizes(lv):
    series = g15(lv, 1, 1, THETA, np.array([-60.0, 0.0, 60.0]))
    assert series.values[0] == pytest.approx(1.0, abs=1e-3)
    assert series.values[-1] == pytest.approx(1.0, abs=1e-3)


def test_g15_frequency_doubling(lv, params):
    grid = default_grid(params, -25.0, 25.0)
    series = g15(lv, 1, 1, THETA, grid)
    f_neg = dominant_frequency(series, "negative")
    f_pos = dominant_frequency(series, "positive")
    assert f_neg == pytest.approx(params.rabi, rel=0.05)
    assert f_pos == pytest.approx(params.rabi / 2, rel=0.05)


def test_g15_degenerate_quadrature(lv, rho_ss):
    coh = np.trace(sigma(2, 2, 1).matrix @ rho_ss)
    theta_bad = np.arctan2(coh.real, coh.imag)  # makes Re[e^{i theta} <s21>] = 0
    with pytest.raises(DegenerateQuadratureError):
        g15(lv, 1, 2, theta_bad, np.array([0.0, 1.0]))


@pytest.mark.parametrize("theta", [THETA, 0.7])
@pytest.mark.parametrize("atoms", [(1, 1), (1, 2)], ids=["11", "12"])
def test_g15_matches_pointwise_insertion(lv, rho_ss, atoms, theta):
    """g15 against the pointwise reference on both sides of tau = 0: the
    one-sided amplitude event a delay tau after the count, or |tau| before
    it, projected on the theta quadrature. At 1e-10 relative against a floor
    of 1e-5 of the series peak."""
    i, j = atoms
    grid = np.linspace(-6.0, 6.0, 13)
    series = g15(lv, i, j, theta, grid)
    phase = np.exp(1j * theta)
    norm = steady_population(rho_ss, i) * (phase * np.trace(sigma(j, 2, 1).matrix @ rho_ss)).real
    floor = 1e-5 * np.max(np.abs(series.values))
    identity = PairOperator(np.eye(9))
    for tau, value in zip(grid, series.values):
        if tau >= 0:
            events = [count_event(0.0, i), amplitude_event(tau, j)]
        else:
            events = [amplitude_event(0.0, j), count_event(-tau, i)]
        direct = (phase * multitime_correlator(lv, rho_ss, events, identity)).real / norm
        assert abs(value - direct) <= 1e-10 * max(abs(direct), floor)


# --- three-time ----------------------------------------------------------------

def test_g3_antibunching_zeros(lv, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    assert abs(g3(lv, 1, 1, 2, grid, T).values[0]) <= 1e-10
    assert abs(g3(lv, 1, 2, 2, grid, T).values[-1]) <= 1e-10


def test_g3_cross_coincidence_positive(lv, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    assert g3(lv, 1, 1, 2, grid, T).values[-1] > 0.0


def test_g3_zero_delay_matches_double_insertion(lv, rho_ss):
    """g3 at tau = 0 against the oracle's two counts at the same instant."""
    T = 5.0
    events = [count_event(0.0, 1), count_event(0.0, 2)]
    raw = multitime_correlator(lv, rho_ss, events, sigma(2, 2, 2), t_obs=T)
    norm = steady_population(rho_ss, 1) * steady_population(rho_ss, 2) ** 2
    direct = raw.real / norm
    series = g3(lv, 1, 2, 2, np.array([0.0, T]), T)
    assert series.values[0] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("kind", ["g3", "g25"])
@pytest.mark.parametrize("atoms", [(1, 2, 2), (1, 1, 2)], ids=["122", "112"])
@pytest.mark.parametrize("T", [5.0, 10.0])
@pytest.mark.parametrize("n", [0, 2, 3, 6], ids=["tau0", "tauT_3", "tauT_2", "tauT"])
def test_three_time_matches_pointwise_insertion(lv, rho_ss, kind, atoms, T, n):
    """The batched kernel against the pointwise reference at one delay of a
    7-point grid (n = 0, 2, 3, 6 is tau = 0, T/3, T/2, T), at 1e-10 relative
    against a floor of 1e-5 of the series peak."""
    i, j, k = atoms
    grid = np.linspace(0.0, T, 7)
    tau = grid[n]
    p_i, p_k = steady_population(rho_ss, i), steady_population(rho_ss, k)
    if kind == "g3":
        series = g3(lv, i, j, k, grid, T)
        middle, phase = count_event(tau, j), 1.0
        norm = p_i * steady_population(rho_ss, j) * p_k
    else:
        series = g25(lv, i, j, k, THETA, grid, T)
        middle, phase = amplitude_event(tau, j), np.exp(1j * THETA)
        norm = p_i * p_k * (phase * np.trace(sigma(j, 2, 1).matrix @ rho_ss)).real
    raw = multitime_correlator(lv, rho_ss, [count_event(0.0, i), middle], sigma(k, 2, 2), t_obs=T)
    direct = (phase * raw).real / norm
    floor = 1e-5 * np.max(np.abs(series.values))
    assert abs(series.values[n] - direct) <= 1e-10 * max(abs(direct), floor)


def stepwise_suffix(lv, rows, grid, t_end):
    """The suffix march one grid step at a time, each applied to every row
    still short of it (N^2 / 2 row products), then the tail.

    It takes and returns coordinate rows, as ``_suffix_propagate`` does, but
    marches them column-stacked in complex128 with scipy's exponential of
    ``lv.matrix``, apart from the real kernel. Its rounding compounds with
    each step a row takes: see the error test below."""
    props = {}

    def prop(dt):
        if dt not in props:
            props[dt] = scipy.linalg.expm(lv.matrix * dt).T
        return props[dt]

    w = from_hermitian_basis(rows)
    for m, dt in enumerate(grid_steps(grid), start=1):
        w[:m] = w[:m] @ prop(dt)
    tail = t_end - grid[-1]
    if tail > 0:
        w = w @ prop(tail)
    return _coordinates(w)


def inserted_rows(lv, rho, j, theta, grid):
    """The kernel's coordinate rows of g3/g25 (1, j, k) after the middle
    insertion on atom j, one per grid point, before the suffix march."""
    chain = _coordinate_chain(lv, _inserted(rho, (1, None)), np.r_[0.0, grid_steps(grid)])
    return chain @ _basis_insertion(j, theta).T


@pytest.mark.parametrize("kind", ["g3", "g25"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 81, 638])
def test_blocked_suffix_march_matches_stepwise(lv, rho_ss, kind, n):
    """The blocked march (B = isqrt(N): single steps, then jumps of B steps)
    against an oracle read through the probe, on uniform grids around the
    block edges and up to fig6's T = 20 grid of 638 points, at criterion
    06's rule.

    Row k's value is x_k . ((P^T)^(N-1-k) P_tail^T p), with x_k the kernel's
    row after the middle insertion and p = vec(s22_2^T) the probe. So the
    probe is marched back once in extended precision, N matrix-vector
    products with scipy's exponential of ``lv.matrix`` (one per distinct
    step, rounded to complex128), and each step's vector is dotted with its
    row: N products where a step-by-step march of the rows takes N^2 / 2.

    Not tighter: at the 1e-5-of-peak floor, 1e-10 relative would be 1e-15 of
    the peak, below the rounding of the oracle's complex128 propagators. On
    the 638-point grid g25 reads 0.418x the rule. A stepwise row march in
    real long double in the Hermitian basis was rejected: it read 1.19x
    the rule there, as its propagator carries the rounding of the basis
    change."""
    T = 20.0
    grid = np.linspace(0.0, T, n)
    if kind == "g3":
        theta, norm = None, _stationary_norm(rho_ss, ((1, None), (1, None), (2, None)))
        blocked = g3(lv, 1, 1, 2, grid, T).values
    else:
        theta, norm = THETA, _stationary_norm(rho_ss, ((1, None), (1, THETA), (2, None)))
        blocked = g25(lv, 1, 1, 2, THETA, grid, T).values
    props = {}

    def prop(dt):
        if dt not in props:
            props[dt] = scipy.linalg.expm(lv.matrix * dt).astype(np.clongdouble)
        return props[dt]

    probe = vectorize(sigma(2, 2, 2).matrix.T).astype(np.clongdouble)
    tail = T - grid[-1]
    if tail > 0:
        probe = probe @ prop(tail)
    probes = [probe]
    for dt in grid_steps(grid)[::-1]:
        probes.append(probes[-1] @ prop(dt))
    rows = from_hermitian_basis(inserted_rows(lv, rho_ss, 1, theta, grid))
    oracle = np.einsum("na,na->n", rows.astype(np.clongdouble), probes[::-1]).real / norm
    assert series_rel_close(blocked, oracle.astype(float), rtol=1e-8) < 1.0


def expm_extended(a):
    """exp(a) in extended precision: a Taylor series on a / 2^s, then s squarings."""
    a = np.asarray(a, dtype=np.clongdouble)
    s = max(0, math.ceil(math.log2(float(np.abs(a).sum(axis=0).max()) / 0.1)))
    a = a / 2**s
    out = term = np.eye(len(a), dtype=np.clongdouble)
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_blocked_suffix_march_error(lv, rho_ss):
    """g25 (1,1,2)'s rows after the quadrature insertion, marched on to T = 20,
    against the same march in extended precision (exact exp(L h), powers by
    squaring in 80 bits). The blocked march errs by at most 5e-14 of the
    largest entry (measured 3.9e-15 at N = 81 and 6.5e-15 at N = 638 on the
    real rows; 4.1e-15 and 6.4e-15 with the one-sided insertion's stacked
    real and imaginary rows, 2.1e-14 and 9.9e-15 with the complex kernel),
    and on fig6's 638-point grid by at most half as much as the step-by-step
    march in complex128, whose rounding compounds over 637 products
    (measured 0.072x). A jump formed as P(h)^B by squaring measured 1.34e-13
    there, 1.5x the step-by-step error. Both marches take and return
    coordinate rows. The previous test checks the values read from these
    rows against the probe marched back in extended precision, where g25
    at N = 638 reads 0.418x criterion 06's rule; a step-by-step row march
    in real long double read 1.19x, and one in complex long double, 0.419x,
    took 15-16 s per N = 638 case against under 0.2 s for the probe read."""
    T = 20.0
    errors = {}
    for n in (81, 638):
        grid = np.linspace(0.0, T, n)
        rows = inserted_rows(lv, rho_ss, 1, THETA, grid)
        exact = from_hermitian_basis(rows).astype(np.clongdouble)
        power = expm_extended(lv.matrix * grid_steps(grid)[0]).T
        steps = np.arange(n - 1, -1, -1)
        while steps.any():
            odd = steps % 2 == 1
            exact[odd] = exact[odd] @ power
            steps //= 2
            power = power @ power
        scale = np.abs(exact).max()
        marched = (_suffix_propagate(lv, rows, grid, T),
                   stepwise_suffix(lv, rows, grid, T))
        errors[n] = [float(np.abs(from_hermitian_basis(w) - exact).max() / scale) for w in marched]
        assert errors[n][0] <= 5e-14
    assert errors[638][0] <= 0.5 * errors[638][1]


def test_g3_large_separation_reduces_to_two_time(lv, params):
    T = 60.0
    taus = default_grid(params, 0.0, 5.0)
    three = g3(lv, 1, 1, 2, taus, T)
    two = g2(lv, 1, 1, taus)
    assert np.max(np.abs(three.values - two.values)) < 1e-3 * max(1.0, np.max(np.abs(two.values)))


def test_g25_uncoupled_amplitude_is_unconditioned():
    p0 = ModelParams(v12=0.0)
    lv0 = build_liouvillian(p0)
    T = 60.0
    grid = np.linspace(0.0, T, 121)
    series = g25(lv0, 1, 2, 1, THETA, grid, T)
    scale = max(1.0, np.max(np.abs(series.values)))
    # constancy up to propagator roundoff accumulated over the 120 segments
    assert (series.values.max() - series.values.min()) < 1e-7 * scale
    g2_11_at_T = g2(lv0, 1, 1, np.array([0.0, T])).values[-1]
    assert series.values[0] == pytest.approx(g2_11_at_T, rel=1e-9)
    assert series.values[0] == pytest.approx(1.0, abs=1e-3)


def test_g25_same_atom_equal_time_zero(lv, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    series = g25(lv, 1, 2, 2, THETA, grid, T)
    assert abs(series.values[-1]) <= 1e-10


def test_three_time_exchange_symmetry(lv, params):
    T = 5.0
    grid = default_grid(params, 0.0, T)
    pairs = [
        (g3(lv, 1, 1, 2, grid, T), g3(lv, 2, 2, 1, grid, T)),
        (g3(lv, 1, 2, 2, grid, T), g3(lv, 2, 1, 1, grid, T)),
        (g25(lv, 1, 1, 2, THETA, grid, T), g25(lv, 2, 2, 1, THETA, grid, T)),
        (g25(lv, 1, 2, 2, THETA, grid, T), g25(lv, 2, 1, 1, THETA, grid, T)),
    ]
    for a, b in pairs:
        assert rel_close(a.values, b.values, rtol=1e-10, atol=1e-12) < 1.0


def test_two_time_exchange_symmetry(lv, params):
    grid = default_grid(params, 0.0, 10.0)
    a = g2(lv, 1, 2, grid).values
    b = g2(lv, 2, 1, grid).values
    assert rel_close(a, b, rtol=1e-10, atol=1e-12) < 1.0


# --- amplitude ratio -----------------------------------------------------------

def test_amplitude_ratio_definition(lv, params):
    Ts = np.array([10.0, 10.5, 11.0])
    hi, lo, mean = amplitude_ratio(lv, 1, 2, 2, THETA, Ts)
    period = 2 * np.pi / params.rabi
    g2_at = g2(lv, 1, 2, Ts).values
    for n, T in enumerate(Ts):
        w0, w1 = max(0.0, T / 2 - period), min(T, T / 2 + period)
        m = max(2, int(round((w1 - w0) / (period / 40.0))) + 1)
        tau = np.linspace(w0, w1, m)
        ratio = g25(lv, 1, 2, 2, THETA, tau, T).values / g2_at[n]
        assert hi.values[n] == pytest.approx(ratio.max(), rel=1e-12)
        assert lo.values[n] == pytest.approx(ratio.min(), rel=1e-12)
        assert mean.values[n] == pytest.approx(ratio.mean(), rel=1e-12)
    assert np.all(hi.values >= mean.values) and np.all(mean.values >= lo.values)


def test_amplitude_ratio_definition_on_fig8_grid(lv, params):
    """The definition above on all 103 values of fig8's T grid, at criterion
    06's rule: 1e-8 relative, on a floor of 1e-5 of the series peak. The
    three-T check's 1e-12 without a floor does not hold on this grid, where
    the marched and per-T ratios differ by a few 1e-12 at values small
    against the peak."""
    period = 2 * np.pi / params.rabi
    got = np.array([s.values for s in amplitude_ratio(lv, 1, 2, 2, THETA, FIG8_T)])
    for g, want in zip(got, ratio_per_T(lv, FIG8_T, period, period / 40.0)):
        assert series_rel_close(g, want, rtol=1e-8) < 1.0


def ratio_per_T(lv, Ts, window, dtau):
    """Oracle for amplitude_ratio: one g25 window per T, as the definition reads."""
    g2_at = g2(lv, 1, 2, Ts).values
    out = np.empty((3, Ts.size))
    for n, T in enumerate(Ts):
        w0, w1 = max(0.0, T / 2 - window), min(T, T / 2 + window)
        m = max(2, int(round((w1 - w0) / dtau)) + 1)
        ratio = g25(lv, 1, 2, 2, THETA, np.linspace(w0, w1, m), T).values / g2_at[n]
        out[:, n] = ratio.max(), ratio.min(), ratio.mean()
    return out


FIG8_T = cli._grid(*cli.WINDOWS["ampratio"], (2 * np.pi / REF.rabi) / 16)


@pytest.mark.parametrize("Ts, propagators", [(FIG8_T, 5), (np.linspace(1.0, 4.0, 13), None),
                                              (np.array([3.0, 3.5, 4.5, 6.0]), None),
                                              (np.linspace(1.0, 6.0, 21), None)],
                         ids=["fig8", "clipped", "non-uniform", "mixed"])
def test_amplitude_ratio_marches_across_T(params, Ts, propagators):
    """Every T grid, uniform or not, with windows clipped at 0 and T
    (T/2 < window) or not, gives the ratios of one g25 per T. fig8's sweep
    (103 values of T) takes five propagators: g2's first T and its step, the
    windows' first start and their tau step, and the step between starts."""
    period = 2 * np.pi / params.rabi
    lv = build_liouvillian(params)
    got = np.array([s.values for s in amplitude_ratio(lv, 1, 2, 2, THETA, Ts)])
    if propagators is not None:
        assert len(lv._propagators) <= propagators
    expected = ratio_per_T(build_liouvillian(params), Ts, period, period / 40)
    for g, want in zip(got, expected):
        assert series_rel_close(g, want, rtol=1e-10) < 1.0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(st.floats(0.2, 12.0), min_size=1, max_size=8, unique=True).map(sorted))
def test_amplitude_ratio_matches_per_T_on_any_grid(lv, params, Ts):
    """Drawn T grids, clipped, unclipped, mixed and non-uniform, agree with
    one g25 per T."""
    Ts = np.array(Ts)
    period = 2 * np.pi / params.rabi
    got = np.array([s.values for s in amplitude_ratio(lv, 1, 2, 2, THETA, Ts)])
    for g, want in zip(got, ratio_per_T(lv, Ts, period, period / 40)):
        assert series_rel_close(g, want, rtol=1e-10) < 1.0


# --- dominant frequency ---------------------------------------------------------

def test_dominant_frequency_synthetic():
    t = np.arange(0.0, 40.0, 0.05)
    series = CorrelationSeries(kind="g2", atoms=(1, 2), tau_grid=t, values=np.cos(5.0 * t) + 1.0)
    assert dominant_frequency(series) == pytest.approx(5.0, rel=0.01)


def test_dominant_frequency_constant_raises():
    t = np.linspace(0.0, 10.0, 64)
    series = CorrelationSeries(kind="g2", atoms=(1, 2), tau_grid=t, values=np.ones(64))
    with pytest.raises(NoOscillationError):
        dominant_frequency(series)


def test_dominant_frequency_too_few_samples():
    t = np.linspace(0.0, 1.0, 8)
    series = CorrelationSeries(kind="g2", atoms=(1, 2), tau_grid=t, values=np.cos(t))
    with pytest.raises(TooFewSamplesError):
        dominant_frequency(series)


def test_series_invariant_same_atom_zero():
    grid = np.array([0.0, 1.0])
    with pytest.raises(Exception):
        CorrelationSeries(kind="g2", atoms=(1, 1), tau_grid=grid, values=np.array([0.5, 1.0]))


def test_series_copies_the_callers_grid(lv):
    """A series freezes its own copy of the grid, never the caller's array."""
    grid = np.linspace(0.0, 5.0, 41)
    series = g2(lv, 1, 2, grid)
    assert series.tau_grid is not grid and np.array_equal(series.tau_grid, grid)
    assert not series.tau_grid.flags.writeable
    grid[0] = 0.0  # still the caller's to write
    with pytest.raises(ValueError):
        series.tau_grid[0] = 1.0
