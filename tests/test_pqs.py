import math

import numpy as np
import pytest

from rydcorr import (
    ModelParams,
    build_adjoint_liouvillian,
    build_liouvillian,
    correlators,
    g2,
    g3,
    g3_via_pqs,
    g15,
    g25,
    g25_via_pqs,
    liouville,
    propagate,
    steady_state,
)
from rydcorr.algebra import from_hermitian_basis
from rydcorr.errors import NegativeDurationError
from rydcorr.model import sigma

from conftest import THETA, default_grid, series_rel_close


def partial_trace_atom2(m):
    """Reduced atom-1 operator of a 9x9 pair operator."""
    return m.reshape(3, 3, 3, 3).trace(axis1=1, axis2=3)


def partial_trace_atom1(m):
    return m.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)


def state_chain(lv, i, grid):
    """Rows vec(rho_c(tau)), column-stacked, of the route's forward chain."""
    return from_hermitian_basis(correlators._state_chain(lv, i, grid))


def effect_chain(lv_adj, k, grid, T):
    """Rows vec(E(tau)), column-stacked, of the route's backward chain."""
    return from_hermitian_basis(correlators._effect_chain(lv_adj, k, grid, T))


def square(rows):
    """9x9 matrices of column-stacked chain rows."""
    return rows.reshape(-1, 9, 9).transpose(0, 2, 1)


def forward_after_click(lv, i, tau):
    """rho_c a time tau after a count on atom i, from the forward chain."""
    return square(state_chain(lv, i, [tau]))[0]


def backward_before_click(lv_adj, k, remaining):
    """E a time ``remaining`` before a count on atom k, from the backward chain."""
    return square(effect_chain(lv_adj, k, [0.0], remaining))[0]


def test_forward_after_click_initial_factorization(lv):
    rho_c = forward_after_click(lv, 1, 0.0)
    reduced = partial_trace_atom2(rho_c)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.max(np.abs(reduced - expected)) < 1e-12
    assert np.trace(rho_c).real == pytest.approx(1.0, abs=1e-12)


def test_forward_after_click_uncoupled_product():
    p0 = ModelParams(v12=0.0)
    lv0 = build_liouvillian(p0)
    rho = steady_state(lv0)
    rho_c = forward_after_click(lv0, 1, 0.0)
    marginal2 = partial_trace_atom1(rho)
    ground = np.zeros((3, 3))
    ground[0, 0] = 1.0
    assert np.max(np.abs(rho_c - np.kron(ground, marginal2))) < 1e-10


def test_forward_after_click_relaxes(lv, rho_ss):
    assert np.max(np.abs(forward_after_click(lv, 1, 100.0) - rho_ss)) < 1e-6


def test_backward_boundary_is_excited_projector(lv_adj):
    e = backward_before_click(lv_adj, 2, 0.0)
    assert np.array_equal(e, sigma(2, 2, 2).matrix)


def test_backward_long_time_reaches_scaled_identity(lv_adj, rho_ss):
    e = backward_before_click(lv_adj, 2, 100.0)
    c = np.trace(sigma(2, 2, 2).matrix @ rho_ss).real
    assert np.max(np.abs(e - c * np.eye(9))) < 1e-6


def test_backward_rejects_negative(lv_adj):
    """A grid that runs past T would march the effect back by a negative time."""
    with pytest.raises(NegativeDurationError):
        effect_chain(lv_adj, 2, [0.0, 5.0], 3.0)


def test_backward_needs_the_adjoint_generator(lv):
    """The forward generator would march E the wrong way."""
    with pytest.raises(ValueError, match="adjoint"):
        effect_chain(lv, 2, [0.0], 1.0)


@pytest.mark.parametrize("route", [
    steady_state,
    lambda lv: g2(lv, 1, 2, [0.0, 0.5, 1.0]),
    lambda lv: state_chain(lv, 1, [0.0, 0.5, 1.0]),
], ids=["steady_state", "g2", "state_chain"])
def test_forward_routes_need_the_forward_generator(lv_adj, route):
    """The adjoint generator also annihilates a trace-one matrix, I/9, which
    would pass for a steady state: g2 would read 1, 1.41, 1.77."""
    with pytest.raises(ValueError, match="forward generator"):
        route(lv_adj)


def test_forward_rejects_negative(lv):
    with pytest.raises(NegativeDurationError):
        state_chain(lv, 1, [-1.0])


def test_grid_outside_its_window_is_refused_by_both_routes(lv, lv_adj):
    """Even by 1e-13 at either end: the chains would march backwards there."""
    T = 5.0
    for grid in (np.linspace(-1e-13, T, 11), np.linspace(0.0, T + 1e-13, 11)):
        with pytest.raises(ValueError, match="tau grid"):
            g3(lv, 1, 2, 2, grid, T)
        with pytest.raises(ValueError, match="tau grid"):
            g3_via_pqs(lv, lv_adj, 1, 2, 2, grid, T)


def test_backward_identity_invariant(lv_adj):
    for t in (0.5, 2.0, 10.0):
        out = propagate(lv_adj, np.eye(9), t)
        assert np.max(np.abs(out - np.eye(9))) < 1e-12


def test_backward_uncoupled_atom1_factor_stays_identity():
    p0 = ModelParams(v12=0.0)
    lv_adj0 = build_adjoint_liouvillian(p0)
    for rem in (0.0, 1.0, 5.0, 12.0):
        e = backward_before_click(lv_adj0, 2, rem)
        e2 = partial_trace_atom1(e) / 3.0
        assert np.max(np.abs(e - np.kron(np.eye(3), e2))) < 1e-10


def test_pqs_click_weight_matches_g3(lv, lv_adj, rho_ss):
    """The chains' click weight Tr(s12 rho_c s21 E) at tau, between counts on
    atoms 1 and 2 at 0 and T, against the regression route's g3 (1, 2, 2)."""
    T = 6.0
    grid = np.array([0.0, 2.1, T])
    p2 = np.trace(sigma(2, 2, 2).matrix @ rho_ss).real
    s12, s21 = sigma(2, 1, 2).matrix, sigma(2, 2, 1).matrix
    pairs = zip(square(state_chain(lv, 1, grid)), square(effect_chain(lv_adj, 2, grid, T)))
    weights = np.array([np.trace(s12 @ rho_c @ s21 @ e).real for rho_c, e in pairs])
    expected = g3(lv, 1, 2, 2, grid, T).values * p2 * p2
    assert weights == pytest.approx(expected, rel=1e-10, abs=1e-16)


def test_pqs_amplitude_with_trivial_effect_matches_g15(lv, rho_ss):
    """With the trivial effect E = I, the conditioned amplitude
    Re[e^{i theta} Tr(E rho_c s21)] / Tr(E rho_c) after a count is g15 at
    tau > 0 times the stationary mean quadrature."""
    s21 = sigma(2, 2, 1).matrix
    q2 = (np.exp(1j * THETA) * np.trace(s21 @ rho_ss)).real
    grid = np.array([0.4, 1.7, 6.0])
    amps = np.array([(np.exp(1j * THETA) * np.trace(rho_c @ s21)).real / np.trace(rho_c).real
                     for rho_c in square(state_chain(lv, 1, grid))])
    transient = g15(lv, 1, 2, THETA, grid).values
    assert amps == pytest.approx(transient * q2, rel=1e-10)


def test_route_equivalence_three_time_intensity(lv, lv_adj, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    reg = g3(lv, 1, 2, 2, grid, T)
    pqs = g3_via_pqs(lv, lv_adj, 1, 2, 2, grid, T)
    assert series_rel_close(reg.values, pqs.values, rtol=1e-8) < 1.0


def test_route_equivalence_three_time_amplitude(lv, lv_adj, params):
    T = 10.0
    grid = default_grid(params, 0.0, T)
    reg = g25(lv, 1, 2, 2, THETA, grid, T)
    pqs = g25_via_pqs(lv, lv_adj, 1, 2, 2, THETA, grid, T)
    assert series_rel_close(reg.values, pqs.values, rtol=1e-8) < 1.0


def test_uncoupled_atom1_outcomes_independent_of_posterior_time():
    """Without the interaction, whether atom 1 is excited at tau after its own
    count, Tr(s22_1 rho_c E) / Tr(rho_c E), does not depend on when atom 2
    is later counted."""
    p0 = ModelParams(v12=0.0)
    lv0 = build_liouvillian(p0)
    lv_adj0 = build_adjoint_liouvillian(p0)
    tau = 1.2
    rho_c = forward_after_click(lv0, 1, tau)
    excited = []
    for T in (tau, 3.0, 7.0, 15.0):
        e = backward_before_click(lv_adj0, 2, T - tau)
        excited.append(np.trace(sigma(1, 2, 2).matrix @ rho_c @ e).real / np.trace(rho_c @ e).real)
    assert np.ptp(excited) < 1e-10
    assert excited[0] == pytest.approx(np.trace(sigma(1, 2, 2).matrix @ rho_c).real, abs=1e-10)


def test_uniform_grid_costs_one_exponential_per_generator(params):
    """Both routes of g3 on a default grid march the grid's mean step h: the
    adjoint generator gets that one propagator, the forward one also the
    block jump of the regression route's suffix march, B h with B = isqrt(N)."""
    lv, lv_adj = build_liouvillian(params), build_adjoint_liouvillian(params)
    T = 10.0
    grid = default_grid(params, 0.0, T)
    g3(lv, 1, 2, 2, grid, T)
    g3_via_pqs(lv, lv_adj, 1, 2, 2, grid, T)
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    assert sorted(lv._propagators) == [h, math.isqrt(grid.size) * h]
    assert list(lv_adj._propagators) == [h]


def test_pqs_marches_its_own_forward_chain(params, monkeypatch):
    """After g3 on a grid, g3_via_pqs on that grid marches a forward chain and
    an adjoint chain of its own. Reading the regression route's kept chain
    would give both routes the same forward rounding, which the route
    comparison would then stop seeing."""
    lv, lv_adj = build_liouvillian(params), build_adjoint_liouvillian(params)
    T = 10.0
    grid = default_grid(params, 0.0, T)
    g3(lv, 1, 1, 2, grid, T)
    chains = []
    chain = liouville._coordinate_chain

    def counted(lv, x0, steps):
        chains.append("adjoint" if lv.adjoint else "forward")
        return chain(lv, x0, steps)

    monkeypatch.setattr(liouville, "_coordinate_chain", counted)
    g3_via_pqs(lv, lv_adj, 1, 1, 2, grid, T)
    assert chains == ["forward", "adjoint"]


def test_route_forward_chains_differ_only_in_division_order(lv):
    """The state chain divides the count by its rate before the march; the
    regression route marches the raw count and ``_count_chain`` divides after.
    So the two forward chains agree bit for bit at delay 0 and in no later
    row, while staying within rounding of each other: a state chain that
    divided after the march would give both routes one forward rounding."""
    grid = np.linspace(0.0, 10.0, 320)
    states = correlators._state_chain(lv, 1, grid)
    counts = correlators._count_chain(lv, 1, grid)
    assert np.array_equal(states[0], counts[0])
    assert np.all(np.any(states[1:] != counts[1:], axis=1))
    assert np.max(np.abs(states - counts)) <= 1e-13 * np.max(np.abs(states))


def test_pqs_pair_is_marched_once_per_generator_pair_and_grid(params, monkeypatch):
    """g25_via_pqs after g3_via_pqs on the same generators, atoms i and k, grid
    and T reads both chains back: it marches none, and its values are a
    fresh generator pair's bit for bit. The forward chain stays apart from
    the one regression keeps."""
    T = 10.0
    grid = default_grid(params, 0.0, T)
    lv, lv_adj = build_liouvillian(params), build_adjoint_liouvillian(params)
    g3(lv, 1, 2, 2, grid, T)
    regression_chain = lv._cache["chain"]
    g3_via_pqs(lv, lv_adj, 1, 2, 2, grid, T)
    assert lv._cache["chain"] is regression_chain
    assert lv._cache["state_chain"][2] is not regression_chain[2]
    chain = liouville._coordinate_chain
    marched = []

    def counted(lv, x0, steps):
        marched.append(lv.adjoint)
        return chain(lv, x0, steps)

    monkeypatch.setattr(liouville, "_coordinate_chain", counted)
    kept = g25_via_pqs(lv, lv_adj, 1, 1, 2, THETA, grid, T).values
    assert marched == []
    monkeypatch.undo()
    fresh_lv = build_liouvillian(ModelParams(**vars(params)))
    fresh = g25_via_pqs(fresh_lv, liouville.derive_adjoint(fresh_lv), 1, 1, 2, THETA, grid, T)
    assert np.array_equal(kept, fresh.values)


def test_nonuniform_grid_marches_raw_steps(lv, lv_adj, monkeypatch):
    """On a non-uniform grid both routes march np.diff(grid), bit for bit."""
    T = 10.0
    grid = np.array([0.0, T / 3, T / 2, T])
    runs = []
    for _ in range(2):
        runs.append([g3(lv, 1, 1, 2, grid, T).values,
                     g3_via_pqs(lv, lv_adj, 1, 1, 2, grid, T).values,
                     g25(lv, 1, 2, 2, THETA, grid, T).values,
                     g25_via_pqs(lv, lv_adj, 1, 2, 2, THETA, grid, T).values])
        monkeypatch.setattr("rydcorr.correlators.grid_steps", np.diff)
    for stepped, raw in zip(*runs):
        assert np.array_equal(stepped, raw)


def test_short_grids(lv, lv_adj):
    T = 10.0
    assert state_chain(lv, 1, []).shape == (0, 81)
    assert effect_chain(lv_adj, 2, [], T).shape == (0, 81)
    for three_time in (lambda g: g3(lv, 1, 2, 2, g, T),
                       lambda g: g3_via_pqs(lv, lv_adj, 1, 2, 2, g, T)):
        one = three_time([T / 2]).values
        assert one.shape == (1,)
        assert one[0] == pytest.approx(three_time([0.0, T / 2, T]).values[1], rel=1e-12)
