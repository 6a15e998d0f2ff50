import warnings

import numpy as np
import pytest
import scipy.linalg

from rydcorr import ModelParams, algebra, build_liouvillian
from rydcorr.errors import (
    AccuracyNotMetError,
    DimensionMismatchError,
    NearDefectiveError,
    NonSquareError,
)

from oracles import hermitian_basis_unitary

RNG = np.random.default_rng(20260809)


def random_complex(shape, scale=1.0):
    return scale * (RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape))


def test_expm_zero_is_identity():
    assert np.allclose(algebra.expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    d = np.array([0.3, -1.2 + 2j, 4.0])
    assert np.allclose(algebra.expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13)


def test_expm_nilpotent():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(algebra.expm(m), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def test_expm_inverse_pairing():
    for _ in range(5):
        m = random_complex((9, 9))
        m *= 10.0 / np.linalg.norm(m)
        prod = algebra.expm(m) @ algebra.expm(-m)
        assert np.max(np.abs(prod - np.eye(9))) < 1e-8


def test_expm_matches_eigendecomposition():
    m = random_complex((9, 9))
    [(w, v)] = algebra.eig([m], m)
    rebuilt = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
    assert np.max(np.abs(algebra.expm(m) - rebuilt)) < 1e-7 * np.linalg.norm(algebra.expm(m))


def test_expm_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        algebra.expm(np.zeros((2, 3)))


def test_eig_simple_diagonal():
    m = np.diag([2.0, -1.0])
    [(w, _)] = algebra.eig([m], m)
    assert np.allclose(w, [2.0, -1.0])


def test_eig_identity():
    [(w, _)] = algebra.eig([np.eye(9)], np.eye(9))
    assert np.allclose(w, np.ones(9))


def test_eig_real_matrix_conjugate_closure():
    m = RNG.standard_normal((8, 8))
    [(w, _)] = algebra.eig([m], m)
    dist = np.abs(w.conj()[:, None] - w[None, :])
    assert dist.min(axis=1).max() < 1e-10


def test_eig_residual_contract():
    m = random_complex((9, 9))
    [(w, v)] = algebra.eig([m], m)
    resid = m @ v - v * w
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(m) * np.linalg.norm(v)


@pytest.mark.parametrize("omega1", [1e150, 1e160, 1e200])
def test_eig_residual_contract_is_scale_safe(omega1):
    """The residual and its bound are taken on the matrix over its largest
    entry: from entries of 1e154 the unscaled norms overflow to inf and the
    check passed anything. A generator this stiff misses the contract."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = build_liouvillian(ModelParams(omega1=omega1)).real
        with pytest.raises(AccuracyNotMetError):
            algebra.eig([real], real)


def test_eig_flags_defective():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NearDefectiveError):
        algebra.eig([m], m)


def test_condition_of_blocks_is_taken_together():
    """Eigenvector singular values of 1 and 2e-12 (cond 5e11) and of 3 and 1
    (cond 3) pass apart; their block diagonal has cond 1.5e12 and is refused."""
    svals = [np.array(s) for s in ([1.0, 2e-12], [3.0, 1.0])]
    for s in svals:
        algebra._check_condition(s)
    with pytest.raises(NearDefectiveError, match="1.500e"):
        algebra._check_condition(*svals)


def test_vectorize_round_trip_exact():
    m = random_complex((9, 9))
    back = algebra.devectorize(algebra.vectorize(m), 9, 9)
    assert np.array_equal(back, m)


def test_vectorize_column_stacking_convention():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(algebra.vectorize(m), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vectorize_kron_identity():
    a = random_complex((3, 3))
    x = random_complex((3, 3))
    b = random_complex((3, 3))
    lhs = algebra.vectorize(a @ x @ b)
    rhs = np.kron(b.T, a) @ algebra.vectorize(x)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-14)


def test_devectorize_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        algebra.devectorize(np.zeros(5), 2, 2)


def test_expm_self_check_raises_accuracy_not_met(monkeypatch):
    """An exponential off by 1e-6 relative fails the halving self-check: the
    square of the (equally corrupted) half step differs from it by about that."""
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: expm(a) * (1.0 + 1e-6))
    with pytest.raises(AccuracyNotMetError, match="self-check"):
        algebra.expm(random_complex((9, 9), scale=0.3))


# --- Hermitian basis ------------------------------------------------------------

def random_hermitian_wide(n):
    """A Hermitian matrix whose entries span ten decades."""
    m = random_complex((n, n)) * 10.0 ** RNG.uniform(-5, 5, (n, n))
    return m + m.conj().T


def test_hermitian_basis_matches_its_definition():
    u = hermitian_basis_unitary(9)
    assert np.max(np.abs(u.conj().T @ u - np.eye(81))) < 1e-15
    v = random_complex((5, 81))
    assert np.allclose(algebra.to_hermitian_basis(v), v @ u.conj(), rtol=0, atol=1e-15)
    assert np.allclose(algebra.from_hermitian_basis(v), v @ u.T, rtol=0, atol=1e-15)
    m = random_complex((81, 81))
    assert np.allclose(algebra.superoperator_in_hermitian_basis(m), u.conj().T @ m @ u,
                       rtol=0, atol=1e-14)


def test_hermitian_coordinates_are_real_and_round_trip_to_1_ulp():
    """Coordinates of a Hermitian matrix have no imaginary part at all, and
    converting back returns each entry within 1 ulp of the larger of it and
    its transposed partner (real and imaginary parts alike)."""
    for n in (2, 3, 9):
        up, lo = np.triu_indices(n, 1)
        partner = np.arange(n * n).reshape(n, n).T.ravel()  # vec position of the transpose
        for _ in range(300):
            v = algebra.vectorize(random_hermitian_wide(n))
            x = algebra.to_hermitian_basis(v)
            assert not x.imag.any()
            back = algebra.from_hermitian_basis(x.real)
            for part in (np.real, np.imag):
                scale = np.maximum(np.abs(part(v)), np.abs(part(v))[partner])
                assert np.all(np.abs(part(back) - part(v)) <= np.spacing(scale))


def test_expm_and_eig_keep_real_input_real():
    m = RNG.standard_normal((9, 9)) * 0.3
    assert algebra.expm(m).dtype == np.float64
    assert np.allclose(algebra.expm(m), scipy.linalg.expm(m.astype(complex)), rtol=0, atol=1e-14)
    [(w, _)] = algebra.eig([m], m)
    complex_w = np.linalg.eigvals(m.astype(complex))
    assert np.abs(w[:, None] - complex_w[None, :]).min(axis=1).max() < 1e-12
