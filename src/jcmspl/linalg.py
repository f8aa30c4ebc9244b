"""Dense symmetric linear algebra used by the trainer.

The central routine is a spectral solver for Sylvester equations
``R Z + Z S = T`` with symmetric ``R`` and ``S``.  Both coefficient
matrices are eigendecomposed once and the solution is assembled
elementwise in the joint eigenbasis, which keeps the per-solve cost at
two symmetric eigendecompositions regardless of the right-hand side.
A dense Kronecker-product solver is kept alongside as an independent
cross-check for small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonUniqueError,
    NotPositiveDefiniteError,
    NotSquareError,
    NotSymmetricError,
    SingularError,
    TooLargeError,
)

# relative tolerance for accepting a matrix as symmetric
SYMMETRY_RTOL = 1e-10
# relative threshold below which an eigenvalue-pair sum counts as zero
DEGENERATE_PAIR_RTOL = 1e-12
# largest r*s for which the dense Kronecker solve is allowed
ORACLE_MAX_ENTRIES = 400


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim > 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    arr = np.atleast_2d(arr)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def _require_square(M: np.ndarray, name: str) -> None:
    if M.shape[0] != M.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {M.shape}")


def _require_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Check symmetry up to roundoff and return the symmetrized matrix."""
    asym = np.linalg.norm(M - M.T)
    if asym > SYMMETRY_RTOL * np.linalg.norm(M):
        raise NotSymmetricError(
            f"{name} is not symmetric: ||M - M^T||_F = {asym:.3e}"
        )
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigendecomposition of a symmetric matrix.

    ``values`` are ascending; column ``vectors[:, i]`` pairs with
    ``values[i]`` and the columns are orthonormal.  ``vectors`` None
    stands for the identity basis: the matrix is ``diag(values)``, as a
    fixed Gram is once the data is rotated into its eigenbasis.
    """

    values: np.ndarray
    vectors: np.ndarray | None


def symmetric_eigen(M, name: str = "M") -> SymmetricEigen:
    """Eigendecompose a symmetric matrix.

    Parameters
    ----------
    M : array_like, shape (n, n)
        Symmetric matrix.  Symmetry is checked up to relative roundoff
        and the input is symmetrized before factorization.

    Returns
    -------
    SymmetricEigen
        Ascending eigenvalues and orthonormal eigenvectors.
    """
    M = as_matrix(M, name)
    _require_square(M, name)
    Ms = _require_symmetric(M, name)
    values, vectors = np.linalg.eigh(Ms)
    return SymmetricEigen(values=values, vectors=vectors)


def _eigen(M, name: str) -> SymmetricEigen:
    """A Sylvester operand as its eigendecomposition: one passed in as a
    ``SymmetricEigen`` is used as it is, a matrix is decomposed."""
    return M if isinstance(M, SymmetricEigen) else symmetric_eigen(M, name)


def _pair_sums(ev_r, ev_s):
    """The eigenvalue-pair sums ``ev_r[i] + ev_s[j]``, or None when one is
    at most ``1e-12 * (max|ev_r| + max|ev_s|)`` (or that scale is 0): then
    the Sylvester equation has no unique solution at working precision."""
    denom = np.add.outer(ev_r, ev_s)
    scale = np.max(np.abs(ev_r)) + np.max(np.abs(ev_s))
    if scale == 0.0 or np.min(np.abs(denom)) <= DEGENERATE_PAIR_RTOL * scale:
        return None
    return denom


def sylvester_unique_check(R, S) -> bool:
    """Return True when ``R Z + Z S = T`` has a unique solution for every T.

    Uniqueness holds exactly when no eigenvalue of ``R`` is the negative
    of an eigenvalue of ``S``.  Eigenvalue-pair sums are judged by the
    rule ``sylvester_solve`` applies, on the operands it accepts (a
    matrix or a ``SymmetricEigen``): a non-symmetric ``R`` or ``S``
    raises NotSymmetricError as there.
    """
    return _pair_sums(_eigen(R, "R").values, _eigen(S, "S").values) is not None


def sylvester_solve(R, S, T) -> np.ndarray:
    """Solve ``R Z + Z S = T`` for symmetric ``R`` (r x r) and ``S`` (s x s).

    Both coefficients are eigendecomposed, the right-hand side is rotated
    into the joint eigenbasis, divided elementwise by the eigenvalue-pair
    sums, and rotated back.

    Parameters
    ----------
    R, S : array_like or SymmetricEigen
        Symmetric coefficient matrices, or their eigendecompositions when
        the caller already has them (a coefficient that stays fixed over
        many solves is then factorized only once).  A decomposition with
        ``vectors`` None is diagonal, and its side is not rotated.
    T : array_like, shape (r, s)
        Right-hand side.

    Returns
    -------
    numpy.ndarray, shape (r, s)

    Raises
    ------
    NonUniqueError
        If some eigenvalue-pair sum is below
        ``1e-12 * (sigma_max(R) + sigma_max(S))``, i.e. the equation has
        no unique solution at working precision.  Callers decide whether
        to regularize; nothing is damped silently here.
    """
    T = as_matrix(T, "T")
    eig_r, eig_s = _eigen(R, "R"), _eigen(S, "S")
    r, s = eig_r.values.shape[0], eig_s.values.shape[0]
    if T.shape != (r, s):
        raise DimensionMismatchError(
            f"T must have shape ({r}, {s}), got {T.shape}"
        )
    denom = _pair_sums(eig_r.values, eig_s.values)
    if denom is None:
        raise NonUniqueError(
            "eigenvalue-pair sum vanishes; Sylvester equation has no "
            "unique solution"
        )
    U, V = eig_r.vectors, eig_s.vectors
    if U is not None:
        T = U.T @ T
    if V is not None:
        T = T @ V
    Z = T / denom
    if U is not None:
        Z = U @ Z
    if V is not None:
        Z = Z @ V.T
    return Z


def sylvester_oracle(R, S, T) -> np.ndarray:
    """Solve ``R Z + Z S = T`` by dense Kronecker expansion.

    Builds ``(I_s kron R + S^T kron I_r) vec(Z) = vec(T)`` explicitly
    with column-major vec, so the cost is cubic in ``r*s``.  Intended as
    an independent reference for small instances; refuses inputs with
    ``r*s > 400``.
    """
    R = as_matrix(R, "R")
    S = as_matrix(S, "S")
    T = as_matrix(T, "T")
    _require_square(R, "R")
    _require_square(S, "S")
    r, s = R.shape[0], S.shape[0]
    if T.shape != (r, s):
        raise DimensionMismatchError(
            f"T must have shape ({r}, {s}), got {T.shape}"
        )
    if r * s > ORACLE_MAX_ENTRIES:
        raise TooLargeError(
            f"dense Kronecker solve limited to r*s <= {ORACLE_MAX_ENTRIES}, "
            f"got {r * s}"
        )
    K = np.kron(np.eye(s), R) + np.kron(S.T, np.eye(r))
    try:
        z = np.linalg.solve(K, T.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"Kronecker system is singular: {exc}") from exc
    return z.reshape((r, s), order="F")


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor of a symmetric positive definite matrix, in
    the ``(c, lower)`` form of ``scipy.linalg.cho_factor``."""

    factor: tuple


def cholesky_factor(M, name: str = "M") -> CholeskyFactor:
    """Factor a symmetric positive definite matrix.

    Symmetry is checked up to relative roundoff and the input is
    symmetrized first; a failed factorization is reported as
    ``NotPositiveDefiniteError``.
    """
    M = as_matrix(M, name)
    _require_square(M, name)
    Ms = _require_symmetric(M, name)
    try:
        return CholeskyFactor(scipy.linalg.cho_factor(Ms, lower=True))
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def solve_spd(M, rhs, overwrite_rhs: bool = False) -> np.ndarray:
    """Solve ``M X = rhs`` for symmetric positive definite ``M``.

    ``M`` is a matrix, factored by ``cholesky_factor``, or the
    ``CholeskyFactor`` of one when the caller solves many right-hand
    sides against it.  ``rhs`` may be a vector or a matrix of stacked
    right-hand-side columns; it must be finite.  With ``overwrite_rhs``
    the solve is done in place: ``rhs`` must then be an F- or
    C-contiguous float64 array, and it holds the solution on return.
    Its layout picks the solve: F order takes LAPACK's Cholesky solve,
    and a C-contiguous matrix, whose transpose is F-contiguous, is solved
    as ``X^T L L^T = rhs^T`` by two right-side BLAS triangular solves with
    the same lower factor L (no inverse is formed).
    """
    chol = M if isinstance(M, CholeskyFactor) else cholesky_factor(M, "M")
    b = np.asarray(rhs, dtype=np.float64)
    if overwrite_rhs and not (b is rhs and (b.flags.f_contiguous or b.flags.c_contiguous)):
        raise ValueError("an in-place solve needs an F- or C-contiguous float64 rhs")
    if not np.all(np.isfinite(b)):
        raise NonFiniteError("rhs contains non-finite entries")
    L = chol.factor[0]
    if b.shape[0] != L.shape[0]:
        raise DimensionMismatchError(f"rhs must have {L.shape[0]} rows, got {b.shape[0]}")
    if overwrite_rhs and not b.flags.f_contiguous:
        # W L^T = rhs^T, then X^T L = W, both in place in rhs^T
        for trans in (1, 0):
            dtrsm(1.0, L, b.T, side=1, lower=1, trans_a=trans, overwrite_b=1)
        return b
    return scipy.linalg.cho_solve(chol.factor, b, overwrite_b=overwrite_rhs)
