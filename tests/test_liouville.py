import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from rydcorr import (
    ModelParams,
    build_adjoint_liouvillian,
    build_liouvillian,
    liouville,
    propagate,
    spectrum,
    steady_state,
)
from rydcorr.algebra import devectorize, vectorize
from rydcorr.cli import InvariantLog
from rydcorr.errors import DegenerateSteadyStateError, NegativeDurationError, NotPositiveError
from rydcorr.liouville import (
    KEPT_CHAIN_ROWS,
    PROPAGATOR_CACHE_SIZE,
    STEADY_RESIDUAL_TOL,
    Liouvillian,
    _column_sums,
    _coordinates,
    _kept_chain,
    _two_product,
    derive_adjoint,
    grid_steps,
    state_residuals,
)
from rydcorr.model import jump_operators, pair_hamiltonian, sigma

from oracles import conjugation_defect, dark_state, hermitian_basis_unitary, single_atom_steady_state

RNG = np.random.default_rng(42)


def random_hermitian(scale=1.0):
    m = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
    return scale * (m + m.conj().T) / 2


def random_density():
    m = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def lindblad_direct(p, rho):
    """Element-wise evaluation of the master equation right side."""
    h = pair_hamiltonian(p).matrix
    out = -1j * (h @ rho - rho @ h)
    for c in jump_operators(p):
        m = c.matrix
        cd = m.conj().T
        out += m @ rho @ cd - 0.5 * (cd @ m @ rho + rho @ cd @ m)
    return out


def adjoint_direct(p, x):
    h = pair_hamiltonian(p).matrix
    out = 1j * (h @ x - x @ h)
    for c in jump_operators(p):
        m = c.matrix
        cd = m.conj().T
        out += cd @ x @ m - 0.5 * (cd @ m @ x + x @ cd @ m)
    return out


def apply_generator(lv, x):
    """The generator's action on a 9x9 matrix: lv.matrix @ vec(x), devectorized."""
    return devectorize(lv.matrix @ vectorize(x), 9, 9)


def assemble(h, cs):
    eye = np.eye(9)
    g = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in cs:
        cdc = c.conj().T @ c
        g += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return g


def test_action_matches_direct_commutator_form(lv, params):
    for _ in range(20):
        rho = random_hermitian()
        assert np.max(np.abs(apply_generator(lv, rho) - lindblad_direct(params, rho))) < 1e-12


def test_trace_preservation(lv):
    for _ in range(10):
        assert abs(np.trace(apply_generator(lv, random_hermitian()))) < 1e-13


def test_hermiticity_preservation(lv):
    for _ in range(10):
        out = apply_generator(lv, random_hermitian())
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_adjoint_annihilates_identity(lv_adj):
    out = apply_generator(lv_adj, np.eye(9))
    assert np.max(np.abs(out)) < 1e-14


def test_adjoint_duality(lv, lv_adj):
    for _ in range(20):
        rho = random_hermitian()
        e = random_hermitian()
        lhs = np.trace(e @ apply_generator(lv, rho))
        rhs = np.trace(apply_generator(lv_adj, e) @ rho)
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_action_matches_direct_form(lv_adj, params):
    for _ in range(10):
        x = random_hermitian()
        assert np.max(np.abs(apply_generator(lv_adj, x) - adjoint_direct(params, x))) < 1e-12


def test_adjoint_is_conjugate_transpose(lv, lv_adj):
    assert np.max(np.abs(lv_adj.matrix - lv.matrix.conj().T)) == 0.0


def test_adjoint_spectrum_is_conjugate(lv, lv_adj):
    w = np.linalg.eigvals(lv.matrix)
    wa = np.linalg.eigvals(lv_adj.matrix).conj()
    # eigenvalues agree as multisets up to numerical noise
    dist = np.abs(w[:, None] - wa[None, :])
    assert dist.min(axis=1).max() < 1e-10
    assert dist.min(axis=0).max() < 1e-10


def test_dephasing_form_equivalence(params):
    h = pair_hamiltonian(params).matrix
    literal = [c.matrix for c in jump_operators(params)]
    shifted = list(literal)
    for j, idx in ((1, 2), (2, 5)):
        shifted[idx] = 2 * np.sqrt(params.gamma_ph) * sigma(j, 3, 3).matrix
    a = assemble(h, literal)
    b = assemble(h, shifted)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - build_liouvillian(params).matrix)) < 1e-14


def test_steady_state_contract(lv, rho_ss):
    assert np.trace(rho_ss).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(lv.matrix @ rho_ss.flatten(order="F")) < 1e-10
    # from real coordinates, so exactly Hermitian
    assert np.array_equal(rho_ss, rho_ss.conj().T)
    r = state_residuals(rho_ss)
    assert r["trace_dev"] < 1e-12
    assert r["min_eig"] > -1e-9


def test_state_residuals_on_a_stack(lv_adj, rho_ss):
    """A stack gives, entry by entry, the residuals of each matrix alone: states
    (unit trace) and effects (no trace condition)."""
    effect = propagate(lv_adj, sigma(2, 2, 2).matrix, 3.0)
    stack = np.stack([rho_ss, random_density(), 1.5 * random_density(), effect,
                      sigma(1, 2, 2).matrix])
    batched = state_residuals(stack)
    for key in ("trace_dev", "min_eig"):
        assert batched[key].shape == (len(stack),)
        for n, m in enumerate(stack):
            assert batched[key][n] == state_residuals(m)[key]
    assert batched["trace_dev"][2] == pytest.approx(0.5)
    assert batched["trace_dev"][3] > 0.1
    assert batched["min_eig"][4] == 0.0


def test_steady_state_dark_limit():
    p = ModelParams(gamma2=0.0, gamma_ph=0.0, v12=0.0)
    rho = steady_state(build_liouvillian(p))
    _, dd = dark_state(p)
    assert np.max(np.abs(rho - np.outer(dd, dd.conj()))) < 1e-8
    for j in (1, 2):
        assert abs(np.trace(sigma(j, 2, 2).matrix @ rho)) < 1e-12


def test_blockade_suppresses_double_rydberg(params):
    rho_int = steady_state(build_liouvillian(params))
    rho_free = steady_state(build_liouvillian(ModelParams(v12=0.0)))
    assert rho_int[8, 8].real < rho_free[8, 8].real


def test_propagate_zero_duration(lv, rho_ss):
    assert np.array_equal(propagate(lv, rho_ss, 0.0), rho_ss)


def test_propagate_fixed_point(lv, rho_ss):
    for t in (0.5, 3.0, 12.0):
        assert np.max(np.abs(propagate(lv, rho_ss, t) - rho_ss)) < 1e-12


def test_propagate_semigroup(lv):
    rho = random_density()
    one = propagate(lv, rho, 1.7)
    two = propagate(lv, propagate(lv, rho, 0.9), 0.8)
    assert np.max(np.abs(one - two)) < 1e-10


def test_propagate_rejects_negative(lv, rho_ss):
    with pytest.raises(NegativeDurationError):
        propagate(lv, rho_ss, -0.1)


def test_linspace_grids_take_their_mean_step():
    """Any linspace grid is marched with its exact mean step h, and point n is
    reached at g[0] + n h within 4 ulp of the grid's extremes."""
    rng = np.random.default_rng(7)
    for _ in range(2000):
        lo = 0.0 if rng.random() < 0.3 else rng.uniform(-30, 30) * 10 ** rng.uniform(-3, 3)
        n = int(rng.integers(2, 3000))
        g = np.linspace(lo, lo + 10 ** rng.uniform(-2, 3), n)
        steps = grid_steps(g)
        h = (g[-1] - g[0]) / (n - 1)
        assert steps.shape == (n - 1,) and np.all(steps == h)
        ulp = np.spacing(max(abs(g[0]), abs(g[-1])))
        assert np.max(np.abs(g[0] + np.arange(n) * h - g)) <= 4 * ulp


def test_grid_steps_keeps_raw_steps_otherwise():
    T = 10.0
    for g in ([0.0, T / 3, T / 2, T], np.geomspace(0.1, T, 50)):
        assert np.array_equal(grid_steps(g), np.diff(g))
    # one point of a uniform grid moved by 8 ulp
    g = np.linspace(0.0, T, 101)
    g[50] += 8 * np.spacing(T)
    assert np.array_equal(grid_steps(g), np.diff(g))
    for g in ([], [2.5]):
        assert grid_steps(g).shape == (0,)


def test_propagation_preserves_state_invariants(lv):
    rho = sigma(1, 1, 2).matrix @ steady_state(lv) @ sigma(1, 2, 1).matrix
    rho = rho / np.trace(rho).real
    log = InvariantLog()
    log.add_states([propagate(lv, rho, t) for t in np.linspace(0.1, 8.0, 20)])
    assert log.checked == 20 and log.ok


def test_spectrum_structure(lv, rho_ss):
    spec = spectrum(lv)
    w = spec.eigenvalues
    assert spec.stationary_count == 1
    assert w.real.max() <= 1e-10
    # the real matrix closes the eigenvalues under conjugation by construction;
    # the complex generator's own eigenvalues show it, and match them
    complex_w = scipy.linalg.eigvals(lv.matrix)
    assert conjugation_defect(complex_w) < 1e-8
    assert np.abs(w[:, np.newaxis] - complex_w[np.newaxis, :]).min(axis=1).max() < 1e-8
    mode0 = spec.right_modes[:, 0].reshape(9, 9, order="F")
    assert np.max(np.abs(mode0 - rho_ss)) < 1e-8


def test_undriven_undamped_rydberg_level_raises_degenerate_steady_state():
    """With omega2 = 0 and neither decay nor dephasing of |3>, each atom keeps
    |3> apart from its driven |1>-|2> pair: four stationary states, no unique one."""
    lv0 = build_liouvillian(ModelParams(omega2=0.0, gamma2=0.0, gamma_ph=0.0))
    with pytest.raises(DegenerateSteadyStateError, match="dimension 4"):
        steady_state(lv0)


@pytest.mark.parametrize("v12", [1e7, 1e8, 1e10])
def test_stiff_interaction_has_a_steady_state(v12):
    """At v12 >= 1e7 the second-smallest singular value of L, 2.1e-4, is below
    1e-10 sigma_max but 1e5 or more above the smallest (the null vector) and
    above the rounding of L: the steady state is unique, and solved to the
    residual bound."""
    lv = build_liouvillian(ModelParams(v12=v12))
    rho = steady_state(lv)
    assert np.linalg.norm(lv.real @ _coordinates(vectorize(rho))) <= STEADY_RESIDUAL_TOL
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert rho[8, 8].real < 1e-18  # blockade


@pytest.mark.parametrize("spoiled", ["svd", "norm"])
def test_non_finite_singular_values_or_residual_are_refused(params, monkeypatch, spoiled):
    """A NaN residual, which `>` would let pass, and a non-finite norm of L are refused."""
    lv = build_liouvillian(params)
    if spoiled == "svd":
        monkeypatch.setattr(np.linalg, "svd", lambda m, compute_uv: np.full(81, np.inf))
    else:
        monkeypatch.setattr(np.linalg, "norm", lambda v: np.nan)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(lv)


def test_negative_eigenvalue_raises_not_positive(params, monkeypatch):
    """The run audit fails a unit-trace Hermitian matrix with eigenvalue -0.5;
    steady_state refuses a solution whose smallest eigenvalue (corrupted here)
    is below POSITIVITY_FLOOR."""
    log = InvariantLog()
    log.add_states(np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
    assert log.min_eig == -0.5 and not log.ok
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) - 1e-6)
    with pytest.raises(NotPositiveError):
        steady_state(build_liouvillian(params))


# --- the real generator in the Hermitian basis ---------------------------------

REFERENCE_RATES = {"omega1": 0.2, "omega2": 5.0, "v12": 1.0, "gamma2": 1e-4, "gamma_ph": 1e-4}


def scan_points(count, seed=20261018):
    """The reference point, then seeded points with each rate log-uniform
    within a decade of it either way."""
    rng = np.random.default_rng(seed)
    yield ModelParams(**REFERENCE_RATES)
    for _ in range(count):
        yield ModelParams(**{k: v * 10.0 ** rng.uniform(-1.0, 1.0)
                             for k, v in REFERENCE_RATES.items()})


def test_generator_is_real_in_the_hermitian_basis():
    """U^H L U, with U written out from the basis definition, has an imaginary
    residue of at most 1e-14 ||L||, and ``Liouvillian.real`` is its real part."""
    u = hermitian_basis_unitary(9)
    for p in scan_points(200):
        lv = build_liouvillian(p)
        scale = np.linalg.norm(lv.matrix)
        basis = u.conj().T @ lv.matrix @ u
        assert np.max(np.abs(basis.imag)) <= 1e-14 * scale
        assert np.max(np.abs(basis.real - lv.real)) <= 1e-14 * scale


def test_adjoint_real_matrix_is_the_exact_transpose(lv, lv_adj):
    assert np.array_equal(lv_adj.real, lv.real.T)
    assert lv.real.dtype == lv_adj.real.dtype == np.float64
    assert not lv.real.flags.writeable and not lv_adj.real.flags.writeable


def test_derived_adjoint_is_the_built_one_bit_for_bit(lv):
    """derive_adjoint gives the bits a build of the adjoint from lv.matrix^H
    gives, with caches of its own; it refuses an adjoint."""
    built = Liouvillian(lv.matrix.conj().T, params=lv.params, adjoint=True)
    adj = derive_adjoint(lv)
    assert adj.adjoint and adj.params is lv.params
    for a, b in ((adj.matrix, built.matrix), (adj.real, built.real)):
        assert np.array_equal(a, b) and a.flags.c_contiguous and not a.flags.writeable
    assert adj.hermitian_residue == built.hermitian_residue
    adj.propagator(0.5)
    assert 0.5 in adj._propagators and adj._propagators is not lv._propagators
    assert adj._cache is not lv._cache
    with pytest.raises(ValueError, match="forward"):
        derive_adjoint(adj)


def test_derive_adjoint_returns_the_one_the_generator_keeps(params):
    lv = build_liouvillian(params)
    adj = derive_adjoint(lv)
    assert derive_adjoint(lv) is adj and lv._cache["adjoint"] is adj
    assert adj._propagators is not lv._propagators and adj._cache is not lv._cache


def test_adjoint_build_derives_from_the_live_forward_generator(params, monkeypatch):
    """build_adjoint_liouvillian(p) after build_liouvillian(p) assembles no
    generator: it derives the adjoint of the live one, whose bits a fresh
    build gives."""
    lv = build_liouvillian(params)
    assembled = []
    monkeypatch.setattr(liouville, "pair_hamiltonian",
                        lambda p: assembled.append(p) or pair_hamiltonian(p))
    adj = build_adjoint_liouvillian(ModelParams(**vars(params)))
    assert assembled == [] and adj is derive_adjoint(lv)
    monkeypatch.undo()
    fresh = derive_adjoint(build_liouvillian(params))
    for name in ("matrix", "real", "hermitian_residue", "adjoint"):
        assert np.array_equal(getattr(adj, name), getattr(fresh, name))


def test_forward_generator_map_keeps_no_generator_alive(monkeypatch):
    """The map from parameter bits to forward generators is weak: once the
    generator is gone, so is its entry, and an adjoint build makes a new one."""
    monkeypatch.setattr(liouville, "_FORWARD", weakref.WeakValueDictionary())
    p = ModelParams(v12=0.75)
    lv = build_liouvillian(p)
    assert list(liouville._FORWARD.values()) == [lv]
    del lv
    gc.collect()
    assert len(liouville._FORWARD) == 0
    adj = build_adjoint_liouvillian(p)
    assert adj.adjoint and len(liouville._FORWARD) == 0


def test_signed_zero_parameters_never_share_a_generator(monkeypatch):
    """ModelParams(v12=0.0) == ModelParams(v12=-0.0), but the map keys on the
    bits, so neither's adjoint is derived from the other's generator."""
    plus, minus = ModelParams(v12=0.0), ModelParams(v12=-0.0)
    assert plus == minus
    lv_plus, lv_minus = build_liouvillian(plus), build_liouvillian(minus)
    for p, lv, other in ((plus, lv_plus, lv_minus), (minus, lv_minus, lv_plus)):
        adj = build_adjoint_liouvillian(p)
        assert adj is derive_adjoint(lv) and adj is not derive_adjoint(other)
        assert math.copysign(1.0, adj.params.v12) == math.copysign(1.0, p.v12)


def test_hermitian_residue_is_scale_safe(lv):
    """The residue is relative to ||L||, taken without overflow: a generator
    scaled by 2^600, whose norm squared overflows, keeps its residue, and one
    built at omega1 = 1e160 gives a finite residue without a warning."""
    leak = 1e-13 * np.linalg.norm(lv.matrix) * 1j * np.eye(81)  # X -> i eps X
    small = Liouvillian(lv.matrix + leak, params=lv.params)
    assert small.hermitian_residue > 0
    big = Liouvillian((lv.matrix + leak) * 2.0 ** 600, params=lv.params)
    assert big.hermitian_residue == small.hermitian_residue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = build_liouvillian(ModelParams(omega1=1e160))
    assert np.isfinite(huge.hermitian_residue) and huge.hermitian_residue <= 1e-12


def test_kept_chain_is_one_entry_keyed_by_start_and_steps(params, monkeypatch):
    """A second call with the same start row and steps reads the kept rows
    back; other steps march, and replace them. A chain over KEPT_CHAIN_ROWS
    is not kept: a second call marches it again, to the same bits."""
    lv = build_liouvillian(params)
    x0 = _coordinates(vectorize(steady_state(lv)))
    steps = np.full(5, 0.25)
    first = _kept_chain(lv, x0, steps)
    assert not first.flags.writeable
    monkeypatch.setattr("rydcorr.liouville._coordinate_chain",
                        lambda *a: pytest.fail("marched a kept chain"))
    assert _kept_chain(lv, x0.copy(), steps.copy()) is first
    monkeypatch.undo()
    other = _kept_chain(lv, x0, np.full(5, 0.5))
    assert other is not first and lv._cache["chain"][2] is other

    long_steps = np.full(KEPT_CHAIN_ROWS + 1, 0.01)
    marched = []
    chain = liouville._coordinate_chain
    monkeypatch.setattr("rydcorr.liouville._coordinate_chain",
                        lambda *a: marched.append(1) or chain(*a))
    runs = [_kept_chain(lv, x0, long_steps) for _ in range(2)]
    assert len(marched) == 2 and runs[0] is not runs[1]
    assert np.array_equal(runs[0], runs[1]) and not runs[1].flags.writeable
    assert lv._cache["chain"][2] is other


def test_generator_that_does_not_preserve_hermiticity_is_refused(lv):
    with pytest.raises(ValueError, match="Hermiticity"):
        Liouvillian(lv.matrix + 1e-6j * np.eye(81), params=lv.params)


def test_propagate_matches_scipy_expm_of_the_column_stacked_generator(lv, lv_adj):
    """The real propagator, with the conversions at either end, against
    scipy's exponential of L itself, for Hermitian and non-Hermitian input."""
    for gen in (lv, lv_adj):
        for t in (0.05, 1.3, 12.0):
            exact = scipy.linalg.expm(gen.matrix * t)
            for x in (random_density(), random_hermitian(), random_density() @ sigma(1, 2, 1).matrix):
                want = devectorize(exact @ vectorize(x), 9, 9)
                assert np.max(np.abs(propagate(gen, x, t) - want)) <= 1e-13 * np.abs(x).max()


def test_propagator_cache_is_bounded_lru(lv, monkeypatch):
    """10^4 distinct durations leave at most PROPAGATOR_CACHE_SIZE exponentials;
    the least recently used goes first, so a duration in steady use stays."""
    lv = build_liouvillian(lv.params)
    computed = []
    monkeypatch.setattr("rydcorr.liouville.algebra.expm",
                        lambda m: computed.append(m[0, 0]) or np.eye(81))
    lv.propagator(0.5)
    for n in range(10_000):
        lv.propagator(1.0 + n)
        lv.propagator(0.5)
        assert len(lv._propagators) <= PROPAGATOR_CACHE_SIZE
    assert len(computed) == 1 + 10_000  # 0.5 was never evicted
    assert 1.0 not in lv._propagators and 10_000.0 in lv._propagators


def test_uncoupled_steady_state_is_exact_in_its_excited_block():
    """Without the interaction the stationary state is the kron square of the
    single-atom one. Its block with atom 1 in |2>, of norm p = 8e-7 at the
    reference rates, is what a count on atom 1 keeps, so its error relative
    to p sets the error of every correlator after that count. The solve's
    refinement on a double-double residual measured 8e-18 of p; with the
    products or the sums of that residual rounded to double, 3e-15 and
    5e-15; a double-precision residual on the real matrix, 2.4e-14, which
    put g15 of the uncoupled atoms 5e-9 off 1."""
    p = ModelParams(v12=0.0)
    rho = steady_state(build_liouvillian(p))
    single = single_atom_steady_state(p)
    exact = np.kron(single, single)
    block = slice(3, 6)
    scale = np.trace(exact[block, block]).real
    assert np.max(np.abs(rho[block, block] - exact[block, block])) <= 1e-15 * scale


def test_residual_arithmetic_is_error_free():
    """The steady state's refinement residual rests on two float64 kernels:
    Dekker's product, exact as a pair of doubles, and a TwoSum tree that
    sums columns with heavy cancellation as accurately as math.fsum, to
    within 2 ulp of the sum."""
    rng = np.random.default_rng(20261018)
    a = rng.standard_normal(500) * 10.0 ** rng.uniform(-8, 8, 500)
    b = rng.standard_normal(500) * 10.0 ** rng.uniform(-8, 8, 500)
    p, e = _two_product(a, b)
    assert all(Fraction(x) * Fraction(y) == Fraction(hi) + Fraction(lo)
               for x, y, hi, lo in zip(a, b, p, e))
    terms = rng.standard_normal((64, 40)) * 10.0 ** rng.uniform(-3, 3, (64, 40))
    terms[-1] = [-math.fsum(col) + 1e-12 * rng.standard_normal() for col in terms[:-1].T]
    exact = np.array([math.fsum(col) for col in terms.T])
    assert np.all(np.abs(_column_sums(terms) - exact) <= 2 * np.spacing(np.abs(exact)))
