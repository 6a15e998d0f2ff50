import numpy as np
import pytest

from rydcorr import ModelParams, jump_operators, pair_hamiltonian, sigma
from rydcorr.errors import BadLevelError
from rydcorr.model import single_atom_hamiltonian

from oracles import atom_swap, dark_state

RNG = np.random.default_rng(11)


def test_params_unit_convention():
    with pytest.raises(ValueError):
        ModelParams(gamma1=2.0)
    with pytest.raises(ValueError):
        ModelParams(gamma2=-0.1)
    with pytest.raises(ValueError):
        ModelParams(omega1=0.0, omega2=0.0)


def test_params_rabi():
    p = ModelParams(omega1=0.2, omega2=5.0)
    assert p.rabi == pytest.approx(np.sqrt(25.04))


def test_params_rabi_without_overflow_or_underflow():
    """|omega|^2 overflows at 1e200 and underflows to 0 at 1e-200; the combined
    Rabi frequency does neither, and a drive that weak still counts as one."""
    assert ModelParams(omega1=1e200, omega2=0.0).rabi == 1e200
    assert ModelParams(omega1=0.0, omega2=1e200j).rabi == 1e200
    assert ModelParams(omega1=3e-200, omega2=4e-200j).rabi == pytest.approx(5e-200, rel=1e-15)
    with pytest.raises(ValueError, match="nonzero"):
        ModelParams(omega1=0.0, omega2=0j)


def test_sigma_trace_counts_partner_identity():
    assert np.trace(sigma(1, 2, 2).matrix) == pytest.approx(3.0)


def test_sigma_projector_product():
    lhs = sigma(1, 1, 2).matrix @ sigma(1, 2, 1).matrix
    assert np.array_equal(lhs, sigma(1, 1, 1).matrix)


def test_sigma_double_rydberg_projector():
    m = sigma(1, 3, 3).matrix @ sigma(2, 3, 3).matrix
    expected = np.zeros((9, 9))
    expected[8, 8] = 1.0
    assert np.array_equal(m, expected)


def test_sigma_algebra_on_random_tuples():
    for _ in range(30):
        j = int(RNG.integers(1, 3))
        k, l, m, n = (int(x) for x in RNG.integers(1, 4, size=4))
        lhs = sigma(j, k, l).matrix @ sigma(j, m, n).matrix
        rhs = (1.0 if l == m else 0.0) * sigma(j, k, n).matrix
        assert np.array_equal(lhs, rhs)


def test_sigma_rejects_bad_indices():
    with pytest.raises(BadLevelError):
        sigma(1, 0, 2)
    with pytest.raises(BadLevelError):
        sigma(3, 1, 2)


def test_sigma_is_memoised_and_read_only():
    """Equal arguments give the same frozen operator; its matrix cannot be
    written, so no caller can corrupt the one every other caller shares."""
    op = sigma(2, 2, 1)
    assert sigma(2, 2, 1) is op
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        op.matrix = np.eye(9)
    assert np.array_equal(op.matrix, np.kron(np.eye(3), np.eye(3)[:, [1]] @ np.eye(3)[[0], :]))


@pytest.mark.parametrize("args", [(1, 0, 2), (1, 2, 4), (1, 2, 2.5), (0, 1, 2), (3, 1, 2),
                                  (1, "2", 2)])
def test_sigma_still_checks_indices_once_cached(args):
    """The checks run before the cache: a bad level or atom raises every time,
    also after the valid operators have been cached."""
    for j in (1, 2):
        for k in (1, 2, 3):
            sigma(j, k, k)
    for _ in range(2):
        with pytest.raises(BadLevelError):
            sigma(*args)


def test_single_atom_hamiltonian_entries():
    p = ModelParams(omega1=0.2, omega2=5.0)
    h = single_atom_hamiltonian(p)
    assert h[1, 0] == pytest.approx(-0.1)
    assert h[2, 1] == pytest.approx(-2.5)
    assert np.allclose(np.diag(h), 0.0)
    assert np.array_equal(h, h.conj().T)


def test_single_atom_hamiltonian_eigenvalues():
    p = ModelParams(omega1=0.2, omega2=5.0)
    w = np.sort(np.linalg.eigvalsh(single_atom_hamiltonian(p)))
    half = p.rabi / 2
    assert np.allclose(w, [-half, 0.0, half], atol=1e-14)
    assert half == pytest.approx(2.502, abs=5e-4)


def test_pair_hamiltonian_hermitian_and_shift_entry():
    for v12 in (0.0, 0.5, 1.0, -2.0):
        h = pair_hamiltonian(ModelParams(v12=v12)).matrix
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert h[8, 8] == pytest.approx(v12)


def test_pair_hamiltonian_swap_symmetry():
    s = atom_swap()
    h = pair_hamiltonian(ModelParams(v12=0.0)).matrix
    assert np.max(np.abs(s @ h @ s - h)) < 1e-15


def test_pair_hamiltonian_dark_pair_expectation():
    p = ModelParams()
    h = pair_hamiltonian(p).matrix
    _, dd = dark_state(p)
    analytic = p.v12 * (abs(p.omega1) ** 2 / p.rabi**2) ** 2
    assert analytic == pytest.approx(2.552e-6, rel=1e-3)
    assert np.vdot(dd, h @ dd).real == pytest.approx(analytic, rel=1e-12)


def test_jump_operators_order_and_activity():
    ops = jump_operators(ModelParams(gamma2=0.0, gamma_ph=0.0))
    labels = [o.label for o in ops]
    assert labels == ["C1^(1)", "C2^(1)", "C3^(1)", "C1^(2)", "C2^(2)", "C3^(2)"]
    nonzero = [np.any(o.matrix != 0) for o in ops]
    assert nonzero == [True, False, False, True, False, False]


def test_jump_operator_rate_projector():
    ops = jump_operators(ModelParams())
    c1 = ops[0]
    assert np.allclose(c1.matrix.conj().T @ c1.matrix, sigma(1, 2, 2).matrix, atol=1e-15)


def test_dephasing_operator_spectrum():
    gph = 0.37
    ops = jump_operators(ModelParams(gamma_ph=gph))
    c3 = ops[2].matrix
    assert np.max(np.abs(c3 - c3.conj().T)) == 0.0
    w = np.linalg.eigvalsh(c3)
    assert np.allclose(np.abs(w), np.sqrt(gph), atol=1e-14)


def test_jump_operators_swap_covariance():
    s = atom_swap()
    ops = jump_operators(ModelParams(v12=0.0))
    for k in range(3):
        assert np.max(np.abs(s @ ops[k].matrix @ s - ops[k + 3].matrix)) == 0.0


def test_dark_state_annihilates_hamiltonian():
    p = ModelParams()
    d, dd = dark_state(p)
    h = single_atom_hamiltonian(p)
    assert np.max(np.abs(h @ d)) < 1e-14
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(dd) == pytest.approx(1.0, abs=1e-14)


def test_dark_state_overlaps():
    d, _ = dark_state(ModelParams(omega1=0.2, omega2=5.0))
    assert abs(d[0]) ** 2 == pytest.approx(25.0 / 25.04, rel=1e-12)
    assert abs(d[2]) ** 2 == pytest.approx(0.04 / 25.04, rel=1e-12)
    assert d[1] == 0.0


def test_dark_state_of_pair_is_product():
    p = ModelParams(omega1=1.0 + 0.5j, omega2=2.0 - 1.0j)
    d, dd = dark_state(p)
    assert np.allclose(dd, np.kron(d, d), atol=1e-15)
