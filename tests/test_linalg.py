import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcmspl import linalg, trainer
from jcmspl.dataset import SynthSpec, synth_generate
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
    SymmetricEigen,
    cholesky_factor,
    pivoted_cholesky,
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


def test_unique_check_takes_an_eigendecomposition_as_the_solver_does():
    eig = symmetric_eigen(np.eye(2))
    assert sylvester_unique_check(eig, np.eye(1)) is True
    assert sylvester_unique_check(np.eye(1), symmetric_eigen(-np.eye(1))) is False
    assert np.array_equal(sylvester_solve(eig, np.eye(1), np.ones((2, 1))), np.full((2, 1), 0.5))


def test_unique_check_uses_the_solver_rule():
    # the pair sum 5e-12 is above 1e-12 * (max|eig R| + max|eig S|) = 2e-12,
    # the solver's threshold, though below 1e-12 * (||R||_F + ||S||_F)
    R, S = np.eye(100), np.array([[-1.0 + 5e-12]])
    assert sylvester_unique_check(R, S) is True
    Z = sylvester_solve(R, S, np.ones((100, 1)))
    assert np.allclose(R @ Z + Z @ S, 1.0, rtol=0, atol=1e-3)


def test_unique_check_rejects_what_the_solver_rejects():
    # eigenvalues +-1 against S's 1: singular, though the symmetric part
    # of R has none of them
    R, S = np.array([[1.0, 5.0], [0.0, -1.0]]), np.array([[1.0]])
    with pytest.raises(NotSymmetricError):
        sylvester_solve(R, S, np.ones((2, 1)))
    with pytest.raises(NotSymmetricError):
        sylvester_unique_check(R, S)


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


def test_identity_basis_right_coefficient_is_the_diagonal_solve():
    # S = V diag(s) V^T: in V's basis the right coefficient is diag(s),
    # given as a decomposition without vectors, and the solve skips that
    # side's rotations
    from jcmspl.trainer import _solve_block

    rng = np.random.default_rng(19)
    R = random_psd(rng, 4, shift=0.1)
    S = random_psd(rng, 5, shift=0.1)
    T = rng.standard_normal((4, 5))
    s_eig = symmetric_eigen(S)
    diagonal = SymmetricEigen(s_eig.values, None)
    Z = sylvester_solve(R, diagonal, T @ s_eig.vectors)
    dense = sylvester_solve(R, S, T) @ s_eig.vectors
    assert np.linalg.norm(Z - dense) <= 1e-12 * np.linalg.norm(dense)
    Z_ref = sylvester_oracle(R, np.diag(s_eig.values), T @ s_eig.vectors)
    assert np.linalg.norm(Z - Z_ref) <= 1e-10 * np.linalg.norm(Z_ref)

    # the degeneracy rule of the dense solve: a pair sum of 5e-12 is
    # above 1e-12 * (max|eig R| + max|eig S|) = 2e-12, one of 1e-12 is not
    for pair_sum, unique in ((5e-12, True), (1e-12, False)):
        values = np.array([-1.0 + pair_sum])
        for S1 in (SymmetricEigen(values, None), np.diag(values)):
            if unique:
                sylvester_solve(np.eye(3), S1, np.ones((3, 1)))
            else:
                with pytest.raises(NonUniqueError):
                    sylvester_solve(np.eye(3), S1, np.ones((3, 1)))

    # both Grams singular: the ridge shifts both spectra by eps/2, eps
    # being ridge_eps times the mean eigenvalue, and must solve the
    # shifted equation
    R0 = random_psd(rng, 4, rank=2)
    values = np.array([0.0, 0.5, 2.0, 3.0, 7.0])
    with pytest.raises(NonUniqueError):
        sylvester_solve(R0, SymmetricEigen(values, None), T)
    r_eig = symmetric_eigen(R0)
    Z, _, message = _solve_block(r_eig, SymmetricEigen(values, None), T, 1e-8, "A")
    eps = 1e-8 * (np.sum(r_eig.values) + np.sum(values)) / 9
    assert message == f"A-update Gram pair is singular; applying ridge eps={eps:.3e}"
    R_r = R0 + 0.5 * eps * np.eye(4)
    S_r = np.diag(values + 0.5 * eps)
    residual = np.linalg.norm(R_r @ Z + Z @ S_r - T)
    scale = (np.linalg.norm(R_r, 2) + np.linalg.norm(S_r, 2)) * np.linalg.norm(Z) \
        + np.linalg.norm(T)
    assert residual <= 1e-10 * scale


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
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor(np.diag([1.0, -1.0]))


def test_solve_spd_with_one_factor_per_block_and_in_place():
    rng = np.random.default_rng(3)
    M = random_psd(rng, 6, shift=0.5)
    rhs = rng.standard_normal((6, 9))
    whole = solve_spd(M, rhs)
    chol = cholesky_factor(M)
    blocks = np.asfortranarray(rhs)
    for j in (slice(0, 4), slice(4, 9)):
        block = blocks[:, j]
        assert solve_spd(chol, block, overwrite_rhs=True) is block
    assert np.linalg.norm(blocks - whole) <= 1e-12 * np.linalg.norm(whole)
    # an in-place solve cannot write into a copy: a strided block of a
    # row-major array, or data that is not float64
    for rhs_in in (np.ascontiguousarray(rhs)[:, 2:5], rhs.astype(np.float32)):
        with pytest.raises(ValueError):
            solve_spd(chol, rhs_in, overwrite_rhs=True)
    with pytest.raises(NonFiniteError):
        solve_spd(chol, np.full((6, 1), np.nan))
    with pytest.raises(NonFiniteError):
        solve_spd(chol, np.full((6, 2), np.nan), overwrite_rhs=True)


@pytest.mark.parametrize("shape", [(6, 9), (64, 1024)])
def test_solve_spd_in_place_on_a_row_major_rhs(shape):
    # either layout is solved in place, a slice of columns at a time, by
    # the product with the one factor's inverse: the same X
    # (64 x 1024 is a C-step block of the large benchmark fit)
    rng = np.random.default_rng(4)
    M = random_psd(rng, shape[0], shift=shape[0])
    chol = cholesky_factor(M)
    rhs = rng.standard_normal(shape)
    by_columns = solve_spd(chol, np.asfortranarray(rhs), overwrite_rhs=True)
    rows = rhs.copy()
    assert solve_spd(chol, rows, overwrite_rhs=True) is rows
    assert rows.flags.c_contiguous
    assert np.linalg.norm(rows - by_columns) <= 1e-14 * np.linalg.norm(by_columns)
    assert np.linalg.norm(M @ rows - rhs) <= 1e-12 * np.linalg.norm(rhs)


def lapack_reference(G):
    """``(rank, ||Z Z^T - G||_F)`` of LAPACK's ``dpstrf`` on the lower
    triangle of G, at the trainer's tolerance ``p eps max(diag G)``, and
    that tolerance."""
    lapack = pytest.importorskip("scipy.linalg").lapack
    tol = len(G) * np.finfo(float).eps * np.max(np.diag(G))
    L, piv, rank, _ = lapack.dpstrf(np.asfortranarray(np.tril(G)), tol=tol, lower=1)
    Z = np.empty((len(G), rank))
    Z[piv - 1] = np.tril(L[:, :rank])
    return rank, np.linalg.norm(Z @ Z.T - G), tol


def check_against_lapack(G):
    """The factor has dpstrf's rank, and its residual is at most 10 times
    dpstrf's plus the stopping tolerance; only G's lower triangle is read."""
    rank, lapack_residual, tol = lapack_reference(G)
    lower = np.tril(G)
    lower[np.triu_indices(len(G), 1)] = np.nan
    Z = pivoted_cholesky(np.asfortranarray(lower), tol)
    assert Z.shape == (len(G), rank)
    assert np.linalg.norm(Z @ Z.T - G) <= 10 * lapack_residual + tol
    return Z


@pytest.mark.parametrize("p", [1, 64, 65, 200, 450])
def test_pivoted_cholesky_matches_lapack_on_a_full_rank_gram(p):
    # 200 and 450 take two and three panels
    rng = np.random.default_rng(p)
    check_against_lapack(random_psd(rng, p, rank=p + 5))


@pytest.mark.parametrize("p, rank", [(64, 20), (65, 64), (200, 150), (450, 200)])
def test_pivoted_cholesky_matches_lapack_on_a_rank_deficient_gram(p, rank):
    rng = np.random.default_rng(p + rank)
    check_against_lapack(random_psd(rng, p, rank=rank))


def test_pivoted_cholesky_matches_lapack_on_the_large_synth_gram(monkeypatch):
    # the Gram of [X; R E; C0] of a large-synth fit: X has rank 64 of
    # m = 256, so the 360 x 360 Gram has rank 168
    grams, stacked = [], trainer._stacked_gram

    def keep(*args):
        G = stacked(*args)
        grams.append(np.tril(G) + np.tril(G, -1).T)
        return G

    monkeypatch.setattr(trainer, "_stacked_gram", keep)
    dataset, _ = synth_generate(SynthSpec(m=256, d=64, k=64, num_seen_classes=40,
                                          num_unseen_classes=10, samples_per_class=200))
    trainer.fit(dataset, trainer.Hyperparams(k=64, t_max=1))
    G, = grams
    assert check_against_lapack(G).shape == (360, 168)


def test_pivoted_cholesky_leaves_a_zero_row_zero():
    rng = np.random.default_rng(7)
    G = random_psd(rng, 70, rank=30)
    G[11] = G[:, 11] = 0.0
    Z = check_against_lapack(G)
    assert not np.any(Z[11])


def test_pivoted_cholesky_stops_at_once_on_a_zero_gram():
    Z = pivoted_cholesky(np.zeros((5, 5), order="F"), 0.0)
    assert Z.shape == (5, 0)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 40), rank=st.integers(1, 40), panel=st.integers(1, 9),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_pivoted_cholesky_matches_lapack_on_random_low_rank_grams(p, rank, panel, scale, seed):
    # narrow panels, so that a small Gram takes many of them
    rng = np.random.default_rng(seed)
    G = scale * random_psd(rng, p, rank=min(rank, p))
    previous, linalg.PANEL = linalg.PANEL, panel
    try:
        check_against_lapack(G)
    finally:
        linalg.PANEL = previous

