"""Dense symmetric linear algebra used by the trainer.

The central routine is a spectral solver for Sylvester equations
``R Z + Z S = T`` with symmetric ``R`` and ``S``.  Both coefficient
matrices are eigendecomposed once and the solution is assembled
elementwise in the joint eigenbasis, which keeps the per-solve cost at
two symmetric eigendecompositions regardless of the right-hand side.
A dense Kronecker-product solver is kept alongside as an independent
cross-check for small problems.

The positive definite routines are numpy only: ``solve_spd`` multiplies
by an inverse formed from a Cholesky factor, and ``pivoted_cholesky``
is a blocked, LAPACK-style pivoted Cholesky of a positive semidefinite
Gram (Hammarling, Higham and Lucas, "LAPACK-style codes for pivoted
Cholesky and QR updating", 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# columns per product of an in-place ``solve_spd``: its one temporary
SOLVE_COLUMNS = 64
# columns per panel of ``pivoted_cholesky``, and per strip of its update.
# numpy has no in-place GEMM, so a pass over the trailing matrix costs
# about twice LAPACK's; 192 is about 4 sqrt(p) at the paper's p ~ 2150,
# where a panel's wider column products and one such pass cost the same.
PANEL = 192


@dataclass(frozen=True)
class CholeskyFactor:
    """A symmetric positive definite matrix ``L L^T`` held as its inverse
    ``L^-T L^-1``, from the lower Cholesky factor L."""

    inverse: np.ndarray


def cholesky_factor(M, name: str = "M") -> CholeskyFactor:
    """Factor a symmetric positive definite matrix for ``solve_spd``.

    Symmetry is checked up to relative roundoff and the input is
    symmetrized first; a failed factorization is reported as
    ``NotPositiveDefiniteError``.  The inverse's error grows with M's
    condition number, as a Cholesky solve's does.  The trainer's C-step
    matrix is at least ``(1 + lambda1 + lambda2) I``, so that number is
    at most ``1 + (lambda3 |A|^2 + lambda4 |B|^2) / (1 + lambda1 + lambda2)``
    in spectral norms.
    """
    M = as_matrix(M, name)
    _require_square(M, name)
    Ms = _require_symmetric(M, name)
    try:
        L = np.linalg.cholesky(Ms)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
    L_inv = np.linalg.inv(L)
    return CholeskyFactor(L_inv.T @ L_inv)


def solve_spd(M, rhs, overwrite_rhs: bool = False) -> np.ndarray:
    """Solve ``M X = rhs`` for symmetric positive definite ``M``.

    ``M`` is a matrix, factored by ``cholesky_factor``, or the
    ``CholeskyFactor`` of one when the caller solves many right-hand
    sides against it.  ``rhs`` may be a vector or a matrix of stacked
    right-hand-side columns; it must be finite.  The solution is the
    product with ``M^-1``, in either layout.  With ``overwrite_rhs`` the
    solve is done in place: ``rhs`` must then be an F- or C-contiguous
    float64 array, and it holds the solution on return, each slice of
    ``SOLVE_COLUMNS`` columns multiplied into one reused buffer and
    copied back.
    """
    chol = M if isinstance(M, CholeskyFactor) else cholesky_factor(M, "M")
    b = np.asarray(rhs, dtype=np.float64)
    if overwrite_rhs and not (b is rhs and (b.flags.f_contiguous or b.flags.c_contiguous)):
        raise ValueError("an in-place solve needs an F- or C-contiguous float64 rhs")
    if not np.all(np.isfinite(b)):
        raise NonFiniteError("rhs contains non-finite entries")
    inverse = chol.inverse
    k = len(inverse)
    if b.shape[0] != k:
        raise DimensionMismatchError(f"rhs must have {k} rows, got {b.shape[0]}")
    if not overwrite_rhs:
        return inverse @ b
    columns = b.reshape(k, -1)
    buffer = np.empty(k * min(SOLVE_COLUMNS, columns.shape[1]))
    for start in range(0, columns.shape[1], SOLVE_COLUMNS):
        part = columns[:, start:start + SOLVE_COLUMNS]
        part[...] = np.matmul(inverse, part, out=buffer[:part.size].reshape(part.shape))
    return b


def _swap(a, b) -> None:
    """Exchange the entries of two equally shaped views."""
    held = a.copy()
    a[...] = b
    b[...] = held


def pivoted_cholesky(G, tol: float) -> np.ndarray:
    """A factor Z with ``Z Z^T = G`` of a positive semidefinite G, with
    as many columns as G's rank, by the pivoted Cholesky of LAPACK's
    ``dpstrf``; G is overwritten.

    ``G`` is a float64 array in Fortran order whose lower triangle is
    read.  Step j pivots on the largest diagonal entry of the updated
    trailing matrix, kept in a vector from which each new column's
    squares are subtracted, and the factor stops before the first pivot
    at most ``tol``: the rank is the number of steps taken.  Z's rows are
    G's; taken in pivot order P they are the lower trapezoidal L of
    ``P^T G P = L L^T``.

    The columns go in panels of ``PANEL``.  Within a panel, a column is
    updated by the panel's earlier columns only, and after the panel the
    lower trapezoid of the trailing matrix by one product per
    ``PANEL``-column strip.  A pivot's rows are exchanged in the trailing
    matrix and in its panel's columns; the columns of earlier panels keep
    the row order they ended with, and each panel's rows are put back in
    G's order as Z is filled.  Besides Z, no temporary is wider than a
    panel.
    """
    p = len(G)
    piv = list(range(p))
    schur = G.diagonal().copy()
    panels = []
    rank = p
    for start in range(0, p, PANEL):
        stop = min(start + PANEL, p)
        for j in range(start, stop):
            pivot = j + int(schur[j:].argmax())
            ajj = float(schur[pivot])
            if not ajj > tol:
                rank = stop = j
                break
            if pivot != j:
                _swap(G[j, start:j], G[pivot, start:j])
                _swap(G[pivot + 1:, j], G[pivot + 1:, pivot])
                _swap(G[j + 1:pivot, j], G[pivot, j + 1:pivot])
                schur[pivot] = schur[j]  # schur[j] is not read again
                piv[j], piv[pivot] = piv[pivot], piv[j]
            ajj = math.sqrt(ajj)
            G[:j, j] = 0.0
            G[j, j] = ajj
            column = G[j + 1:, j]
            if j > start:
                column -= G[j + 1:, start:j] @ G[j, start:j]
            column /= ajj
            schur[j + 1:] -= column * column
        panels.append((slice(start, stop), np.array(piv)))
        if rank < p:
            break
        panel = G[stop:, start:stop]
        for s in range(0, p - stop, PANEL):
            # the transposed product is laid out as G is
            G[stop + s:, stop + s:stop + s + PANEL] -= (panel[s:s + PANEL] @ panel[s:].T).T
    Z = np.empty((p, rank))
    for columns, order in panels:
        Z[order, columns] = G[:, columns]
    return Z
