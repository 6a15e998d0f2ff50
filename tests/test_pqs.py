import math

import numpy as np
import pytest

from rydcorr import (
    ModelParams,
    POVMSet,
    backward_before_click,
    build_adjoint_liouvillian,
    build_liouvillian,
    conditional_pair,
    forward_after_click,
    g2,
    g3,
    g3_via_pqs,
    g15,
    g25,
    g25_via_pqs,
    pqs_conditional_amplitude,
    pqs_probability,
    propagate,
    steady_state,
)
from rydcorr.errors import NegativeDurationError, ZeroHistoryProbabilityError
from rydcorr.model import PairOperator, identity_pair, sigma
from rydcorr.pqs import ConditionalPair, effect_chain, state_chain

from conftest import THETA, default_grid, rel_close, series_rel_close

RNG = np.random.default_rng(99)


def partial_trace_atom2(m):
    """Reduced atom-1 operator of a 9x9 pair operator."""
    return m.reshape(3, 3, 3, 3).trace(axis1=1, axis2=3)


def partial_trace_atom1(m):
    return m.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)


def projective_povm(atom):
    s22 = sigma(atom, 2, 2)
    rest = PairOperator(np.eye(9) - s22.matrix, label=f"not-excited({atom})")
    return POVMSet(effects=(s22, rest), labels=("excited", "not-excited"))


def random_unitary_povm(outcomes=3):
    weights = RNG.dirichlet(np.ones(outcomes))
    effects = []
    for w in weights:
        m = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
        q, _ = np.linalg.qr(m)
        effects.append(PairOperator(np.sqrt(w) * q, label=f"u{w:.3f}"))
    return POVMSet(effects=tuple(effects), labels=tuple(str(k) for k in range(outcomes)))


def test_povm_completeness_enforced():
    s22 = sigma(1, 2, 2)
    with pytest.raises(ValueError):
        POVMSet(effects=(s22,), labels=("only",))


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
    with pytest.raises(NegativeDurationError):
        backward_before_click(lv_adj, 2, -1.0)


def test_forward_rejects_negative(lv):
    with pytest.raises(NegativeDurationError):
        forward_after_click(lv, 1, -1.0)


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


def test_pqs_probability_reduces_to_born(lv, lv_adj):
    pair = ConditionalPair(rho_c=forward_after_click(lv, 1, 1.3), effect=np.eye(9),
                           tau=1.3, T=1.3)
    povm = projective_povm(2)
    probs = pqs_probability(pair, povm)
    born = [np.trace(om.matrix @ pair.rho_c @ om.dagger).real for om in povm.effects]
    assert np.allclose(probs, born, atol=1e-12)


def test_pqs_probability_uniform_state():
    povm = random_unitary_povm()
    pair = ConditionalPair(rho_c=np.eye(9) / 9.0, effect=np.eye(9), tau=0.0, T=0.0)
    probs = pqs_probability(pair, povm)
    expected = [np.trace(om.matrix @ om.dagger).real / 9.0 for om in povm.effects]
    assert np.allclose(probs, expected, atol=1e-12)


def test_pqs_probability_normalized_nonnegative(lv, lv_adj):
    povm = random_unitary_povm(4)
    for tau in (0.5, 2.0, 4.5):
        pair = conditional_pair(lv, lv_adj, 1, 2, tau, 5.0)
        probs = pqs_probability(pair, povm)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_pqs_click_weight_matches_g3(lv, lv_adj, rho_ss):
    # posterior-conditioned click weight against the regression-route correlator
    T = 6.0
    p2 = np.trace(sigma(2, 2, 2).matrix @ rho_ss).real
    for tau in (0.0, 2.1, T):
        pair = conditional_pair(lv, lv_adj, 1, 2, tau, T)
        om = sigma(2, 1, 2)
        weight = np.trace(om.matrix @ pair.rho_c @ om.dagger @ pair.effect).real
        expected = g3(lv, 1, 2, 2, np.array([tau]), T).values[0] * p2 * p2
        assert weight == pytest.approx(expected, rel=1e-10, abs=1e-16)


def test_pqs_amplitude_theta_sign_flip(lv, lv_adj):
    pair = conditional_pair(lv, lv_adj, 1, 2, 3.0, 10.0)
    a = pqs_conditional_amplitude(pair, 2, 0.7)
    b = pqs_conditional_amplitude(pair, 2, 0.7 + np.pi)
    assert a == pytest.approx(-b, rel=1e-12)


def test_pqs_amplitude_with_trivial_effect_matches_g15(lv, lv_adj, rho_ss, params):
    q2 = (np.exp(1j * THETA) * np.trace(sigma(2, 2, 1).matrix @ rho_ss)).real
    for tau in (0.4, 1.7, 6.0):
        pair = ConditionalPair(rho_c=forward_after_click(lv, 1, tau), effect=np.eye(9),
                               tau=tau, T=tau)
        amp = pqs_conditional_amplitude(pair, 2, THETA)
        transient = g15(lv, 1, 2, THETA, np.array([tau])).values[0]
        assert amp == pytest.approx(transient * q2, rel=1e-10)


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
    p0 = ModelParams(v12=0.0)
    lv0 = build_liouvillian(p0)
    lv_adj0 = build_adjoint_liouvillian(p0)
    povm = projective_povm(1)
    tau = 1.2
    baseline = None
    for T in (tau, 3.0, 7.0, 15.0):
        pair = conditional_pair(lv0, lv_adj0, 1, 2, tau, T)
        probs = pqs_probability(pair, povm)
        if baseline is None:
            baseline = probs
        assert np.max(np.abs(probs - baseline)) < 1e-10


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
    assert list(lv._propagators) == [h, math.isqrt(grid.size) * h]
    assert list(lv_adj._propagators) == [h]


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
        monkeypatch.setattr("rydcorr.pqs.grid_steps", np.diff)
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


def test_same_atom_coincidence_raises_zero_history_probability(lv, lv_adj):
    """A count on atom 1 leaves it in the ground state, so a second count on
    atom 1 at the same instant has probability exactly 0."""
    with pytest.raises(ZeroHistoryProbabilityError):
        conditional_pair(lv, lv_adj, 1, 1, 0.0, 0.0)
