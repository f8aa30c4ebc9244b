import numpy as np
import pytest

from jcmspl.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonUniqueError,
    NotPositiveDefiniteError,
    NotSquareError,
    NotSymmetricError,
    TooLargeError,
)
from jcmspl.linalg import (
    solve_spd,
    sylvester_oracle,
    sylvester_solve,
    sylvester_unique_check,
    symmetric_eigen,
)


def random_psd(rng, n, rank=None, shift=0.0):
    rank = n if rank is None else rank
    G = rng.standard_normal((n, rank))
    return G @ G.T + shift * np.eye(n)


def test_eigen_identity():
    eig = symmetric_eigen(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0])
    assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(3), atol=1e-12)


def test_eigen_diagonal_ascending():
    eig = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [1.0, 2.0, 3.0])


def test_eigen_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = random_psd(rng, 6) - 2.0 * np.eye(6)
        eig = symmetric_eigen(M)
        rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.linalg.norm(rebuilt - M) <= 1e-8 * np.linalg.norm(M)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(6)) <= 1e-8 * 6


def test_eigen_gram_products_nearly_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = random_psd(rng, 5, rank=3)
        eig = symmetric_eigen(M)
        assert eig.values.min() >= -1e-10 * np.linalg.norm(M)


def test_eigen_rejects_bad_inputs():
    with pytest.raises(NotSquareError):
        symmetric_eigen(np.ones((2, 3)))
    with pytest.raises(NotSymmetricError):
        symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        symmetric_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sylvester_identity_case():
    Z = sylvester_solve(np.eye(2), np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(Z, np.eye(2), atol=1e-12)


def test_sylvester_scalar_case():
    Z = sylvester_solve([[2.0]], [[3.0]], [[10.0]])
    assert np.allclose(Z, [[2.0]], atol=1e-12)


def test_sylvester_diagonal_elementwise():
    # z_ij = t_ij / (r_i + s_j)
    Z = sylvester_solve(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.ones((2, 2)))
    assert np.allclose(Z, [[1 / 4, 1 / 5], [1 / 5, 1 / 6]], atol=1e-12)
    Z = sylvester_solve(np.diag([1.0, 3.0]), np.diag([3.0, 4.0]), np.ones((2, 2)))
    assert np.allclose(Z, [[1 / 4, 1 / 5], [1 / 6, 1 / 7]], atol=1e-12)


def test_sylvester_matches_oracle():
    rng = np.random.default_rng(3)
    R = random_psd(rng, 5, shift=0.1)
    S = random_psd(rng, 7, shift=0.1)
    T = rng.standard_normal((5, 7))
    Z = sylvester_solve(R, S, T)
    Z_ref = sylvester_oracle(R, S, T)
    assert np.linalg.norm(Z - Z_ref) <= 1e-8 * np.linalg.norm(Z_ref)


def test_sylvester_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = int(rng.integers(1, 9))
        s = int(rng.integers(1, 9))
        R = random_psd(rng, r, shift=0.05)
        S = random_psd(rng, s, shift=0.05)
        T = rng.standard_normal((r, s))
        Z = sylvester_solve(R, S, T)
        resid = np.linalg.norm(R @ Z + Z @ S - T)
        scale = (
            np.linalg.norm(T)
            + np.linalg.norm(R) * np.linalg.norm(Z)
            + np.linalg.norm(Z) * np.linalg.norm(S)
        )
        assert resid <= 1e-8 * scale


def test_sylvester_linearity():
    rng = np.random.default_rng(9)
    R = random_psd(rng, 4, shift=0.2)
    S = random_psd(rng, 6, shift=0.2)
    T1 = rng.standard_normal((4, 6))
    T2 = rng.standard_normal((4, 6))
    combined = sylvester_solve(R, S, 2.5 * T1 - 0.75 * T2)
    separate = 2.5 * sylvester_solve(R, S, T1) - 0.75 * sylvester_solve(R, S, T2)
    assert np.linalg.norm(combined - separate) <= 1e-8 * np.linalg.norm(separate)


def test_sylvester_rejects_degenerate_pair():
    # both coefficients singular: operator has a zero eigenvalue
    R = np.zeros((2, 2))
    S = np.diag([0.0, 1.0])
    with pytest.raises(NonUniqueError):
        sylvester_solve(R, S, np.ones((2, 2)))
    with pytest.raises(NonUniqueError):
        sylvester_solve([[0.0]], [[0.0]], [[1.0]])


def test_sylvester_shape_checks():
    with pytest.raises(DimensionMismatchError):
        sylvester_solve(np.eye(2), np.eye(3), np.ones((3, 2)))
    with pytest.raises(NotSquareError):
        sylvester_solve(np.ones((2, 3)), np.eye(3), np.ones((2, 3)))


def test_unique_check_cases():
    assert sylvester_unique_check(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) is True
    assert sylvester_unique_check([[0.0]], [[0.0]]) is False
    assert sylvester_unique_check([[1.0]], [[-1.0]]) is False
    # one singular side is fine as long as the other stays positive
    assert sylvester_unique_check(np.diag([0.0, 1.0]), np.diag([2.0, 3.0])) is True


def test_unique_check_uses_the_solver_rule():
    # the pair sum 5e-12 is above 1e-12 * (max|eig R| + max|eig S|) = 2e-12,
    # the solver's threshold, though below 1e-12 * (||R||_F + ||S||_F)
    R, S = np.eye(100), np.array([[-1.0 + 5e-12]])
    assert sylvester_unique_check(R, S) is True
    Z = sylvester_solve(R, S, np.ones((100, 1)))
    assert np.allclose(R @ Z + Z @ S, 1.0, rtol=0, atol=1e-3)


def test_unique_check_matches_solver_acceptance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        r = int(rng.integers(1, 7))
        s = int(rng.integers(1, 7))
        singular_r = bool(rng.integers(0, 2))
        singular_s = bool(rng.integers(0, 2))
        R = random_psd(rng, r, rank=max(1, r - 1) if singular_r else r,
                       shift=0.0 if singular_r else 0.3)
        if singular_r and r == 1:
            R = np.zeros((1, 1))
        S = random_psd(rng, s, rank=max(1, s - 1) if singular_s else s,
                       shift=0.0 if singular_s else 0.3)
        if singular_s and s == 1:
            S = np.zeros((1, 1))
        expect_unique = not (singular_r and singular_s)
        # rank-deficient PSD matrices of size >1 keep nonzero eigenvalues,
        # so only the both-singular combination can fail
        if singular_r and singular_s:
            assert sylvester_unique_check(R, S) is False
        elif expect_unique:
            assert sylvester_unique_check(R, S) is True


def test_oracle_trivial_cases():
    assert np.allclose(sylvester_oracle([[2.0]], [[3.0]], [[10.0]]), [[2.0]])
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    Z = sylvester_oracle(np.eye(2), np.zeros((2, 2)), M)
    assert np.allclose(Z, M, atol=1e-12)


def test_oracle_agreement_sweep():
    rng = np.random.default_rng(17)
    for _ in range(20):
        r = int(rng.integers(1, 11))
        s = int(rng.integers(1, 11))
        R = random_psd(rng, r, shift=0.1)
        S = random_psd(rng, s, shift=0.1)
        T = rng.standard_normal((r, s))
        Z1 = sylvester_solve(R, S, T)
        Z2 = sylvester_oracle(R, S, T)
        assert np.linalg.norm(Z1 - Z2) <= 1e-8 * max(np.linalg.norm(Z2), 1e-30)


def test_precomputed_eigendecompositions_give_the_same_solution():
    rng = np.random.default_rng(18)
    R = random_psd(rng, 4, shift=0.1)
    S = random_psd(rng, 6, rank=3)
    T = rng.standard_normal((4, 6))
    Z = sylvester_solve(R, S, T)
    assert np.array_equal(sylvester_solve(R, symmetric_eigen(S), T), Z)
    assert np.array_equal(
        sylvester_solve(symmetric_eigen(R), symmetric_eigen(S), T), Z)
    with pytest.raises(DimensionMismatchError):
        sylvester_solve(R, symmetric_eigen(S), T[:, :5])
    with pytest.raises(NonUniqueError):
        sylvester_solve(symmetric_eigen(np.zeros((4, 4))), symmetric_eigen(S), T)


def test_oracle_size_limit():
    with pytest.raises(TooLargeError):
        sylvester_oracle(np.eye(25), np.eye(25), np.ones((25, 25)))


def test_solve_spd_cases():
    B = np.arange(6.0).reshape(3, 2)
    assert np.allclose(solve_spd(np.eye(3), B), B)
    X = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
    assert np.allclose(X, [[1.0], [1.0]])


def test_solve_spd_residual():
    rng = np.random.default_rng(2)
    M = random_psd(rng, 8, shift=0.5)
    rhs = rng.standard_normal((8, 5))
    X = solve_spd(M, rhs)
    assert np.linalg.norm(M @ X - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(np.diag([1.0, -1.0]), np.ones(2))
