"""Joint projection training by block-coordinate minimization.

The model couples three blocks: a visual projection ``A`` (k x m), a
semantic projection ``B`` (k x d) and a per-sample concept matrix ``C``
(k x n).  With ``X`` the seen visual features, ``Y`` the per-sample
prototype columns and ``H`` a block class-indicator target, the
objective is

    f(A, B, C) = 1/2 ||A X - C||^2
               + lambda1/2 ||B Y - C||^2
               + lambda2/2 ||C - H||^2
               + lambda3/2 ||X - A^T C||^2
               + lambda4/2 ||Y - B^T C||^2

(squared Frobenius norms throughout).  Each block subproblem is solved
exactly: ``A`` and ``B`` via symmetric Sylvester equations whose
operands are Gram matrices of fixed size (independent of the sample
count), ``C`` via one positive definite solve.  Iterating the three
exact updates drives the objective monotonically downward.

Every C the loop meets is ``C = W Z`` for the stacked rows
``Z = [X; Y; H; C0]`` (H only when lambda2 > 0; C0 the random initial
C; p rows in all) and some k x p matrix W: C0 trivially, every later C
because the C step maps the fixed data linearly.  So the objective and
every update depend on the data only through the Gram ``Z Z^T``.
``fit`` therefore trains on a factor ``Zc`` with ``Zc Zc^T = Z Z^T``
and as many columns as that Gram's rank: then ``Z = Zc P^T`` for
some P with orthonormal columns, which preserves every norm and Gram in
the objective, and an iteration costs the same whatever the sample
count.  ``[Y; H] = V E`` for the per-class rows V and the one-hot E of
the labels, and with the reduced QR ``V = Q R`` it is ``Q (R E)``: the
Gram factored is that of ``[X; R E; C0]``, with at most c rows for Y
and H, its blocks from per-class sums, and the factor's Y and H rows are Q
times its ``R E`` rows.  A pivoted Cholesky of that Gram gives the
factor.  The n-wide data is read once for the Grams and
class sums, and once after the loop, in one sweep over blocks of
``CHUNK`` columns, for the final loss; no n-wide Y, H or C is formed.
Both passes run partly on a second core (``jcmspl.workers.beside``).

An iteration decomposes one matrix, ``C C^T``: the left Grams of the A
and B steps are its multiples ``lambda3 C C^T`` and ``lambda4 C C^T``.
The right Grams ``X X^T`` and ``lambda1 Y Y^T`` are fixed, and the loop
runs in their eigenbases (A and B times those bases, the factor's X and
Y rows rotated to match), where they are diagonal and each Sylvester
solve rotates one side only.  One routine sweeps
the column blocks for every C step and every objective: ``loss``,
``update_C``, the loop and the pass after it, the first half of the
blocks on the caller and the second beside it.  A C step is fused with
the loss that follows it: each block's ``A X`` serves both the C step
and the residuals.  The two reconstruction norms come from k x k Grams,
``||X - A^T C||^2 = ||X||^2 - 2 <A X, C> + <A A^T, C C^T>`` and so for Y
and B, unless that form cancels too far, as X's does at the larger
presets; then that norm is formed in panels.  So no temporary is wider
than k x b for a block of b columns.  C is row-major, as every product
of a block is: each block's right-hand side is built in one contiguous
buffer and solved there, as a product with the inverse from the step's
one Cholesky factor.  So ``update_C`` and ``loss`` agree with ``fit`` bit
for bit by construction.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .dataset import (CHUNK, ZslDataset, block_partition, check_float, check_int,
                      expand_prototypes, write_table)
from .errors import (
    InvalidHyperparamsError,
    NonFiniteError,
    NonUniqueError,
    ShapeMismatchError,
    SingularError,
    TooFewRowsError,
    UnknownClassIdError,
)
from .linalg import (
    SymmetricEigen,
    cholesky_factor,
    pivoted_cholesky,
    solve_spd,
    sylvester_solve,
    symmetric_eigen,
)

VARIANTS = ("full", "jcmspl1", "jcmspl0", "ipl", "fpl")


class RidgeWarning(RuntimeWarning):
    """A singular Gram pair was regularized during a block update."""


@dataclass(frozen=True)
class Hyperparams:
    """Training configuration.

    ``k`` (the concept-space dimension) has no sensible default and must
    be chosen per dataset.  Variants zero out parts of the objective:
    ``jcmspl1`` drops the class-indicator term (lambda2), ``jcmspl0``
    drops both reconstruction terms (lambda3, lambda4), ``ipl`` drops
    all three, and ``fpl`` skips the joint model entirely in favor of a
    direct visual-to-semantic ridge regression.
    """

    k: int
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 1.0
    t_max: int = 100
    tol: float = 1e-5
    seed: int = 0
    variant: str = "full"
    ridge_eps: float = 1e-8

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidHyperparamsError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        for name, low in (("k", 1), ("t_max", 1), ("seed", 0)):
            check_int(getattr(self, name), name, low, InvalidHyperparamsError)
        check_float(self.tol, "tol", InvalidHyperparamsError, positive=True)
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "ridge_eps"):
            check_float(getattr(self, name), name, InvalidHyperparamsError)

    def effective(self) -> "Hyperparams":
        """Hyperparameters with variant-implied couplings zeroed out."""
        if self.variant == "jcmspl1":
            return dataclasses.replace(self, lambda2=0.0)
        if self.variant == "jcmspl0":
            return dataclasses.replace(self, lambda3=0.0, lambda4=0.0)
        if self.variant == "ipl":
            return dataclasses.replace(self, lambda2=0.0, lambda3=0.0, lambda4=0.0)
        return self


@dataclass(frozen=True)
class ClassSpecificMatrix:
    """Block class-indicator target for the concept matrix.

    ``H`` is k x n with 0/1 entries; column i carries the indicator of
    the row block owned by the class of sample i.  ``block_rows`` maps
    each seen class id to its half-open row range.
    """

    H: np.ndarray
    block_rows: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class JcmsplModel:
    """Trained projections.  ``B`` is None for the fpl variant, whose
    ``A`` maps visual features straight to the semantic space.  ``C`` is
    keyword-only and None unless given, and the library never gives it:
    recognition reads only A and B (``update_C`` at them gives the training
    concepts); the field stays for ``perfbench/``, which constructs models
    with it and reads it."""

    A: np.ndarray
    B: np.ndarray | None
    variant: str
    hyper: Hyperparams
    C: np.ndarray | None = field(default=None, kw_only=True)


@dataclass
class TrainingTrace:
    """Per-iteration training record.

    ``losses[0]`` is the objective at initialization; entry t is the
    objective after full iteration t.  ``delta_norms`` and
    ``descent_constants`` hold one (A, B, C) triple per iteration.
    ``converged_at`` is the first iteration where the relative loss
    change dropped below tol, or None if the iteration cap was hit.
    """

    losses: list[float]
    delta_norms: list[tuple[float, float, float]]
    descent_constants: list[tuple[float, float, float]]
    converged_at: int | None
    warnings: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.delta_norms)


def _block_indicators(k: int, num_classes: int) -> np.ndarray:
    """The k x c matrix whose column j is the 0/1 indicator of the row
    block of class j (see ``build_class_matrix``)."""
    if k < num_classes:
        raise TooFewRowsError(
            f"k ({k}) must be >= number of seen classes ({num_classes})"
        )
    indicators = np.zeros((k, num_classes))
    for j, (start, stop) in enumerate(block_partition(k, num_classes)):
        indicators[start:stop, j] = 1.0
    return indicators


def _class_positions(labels, classes) -> np.ndarray:
    """Index into ``classes`` of each label (the last one, should a class
    id repeat); UnknownClassIdError names the first label not there."""
    order = np.argsort(classes, kind="stable")
    ranked = classes[order]
    at = np.searchsorted(ranked, labels, side="right") - 1
    found = ranked[np.maximum(at, 0)] == labels
    if not np.all(found):
        raise UnknownClassIdError(f"label {labels[np.argmin(found)]} is not a seen class")
    return order[at]


def build_class_matrix(labels_seen, k: int, seen_classes) -> ClassSpecificMatrix:
    """Build the k x n block class-indicator matrix.

    The k rows are split into ``len(seen_classes)`` contiguous blocks in
    seen-class order (base size k // c, remainder rows one each to the
    earliest classes).  Column i is the 0/1 indicator of the block of
    ``labels_seen[i]``, gathered from the k x c per-class indicators.
    """
    labels = np.asarray(labels_seen, dtype=np.int64)
    classes = np.asarray(seen_classes, dtype=np.int64)
    indicators = _block_indicators(k, len(classes))
    block_rows = dict(zip(classes.tolist(), block_partition(k, len(classes))))
    H = indicators.take(_class_positions(labels, classes), axis=1)
    return ClassSpecificMatrix(H=H, block_rows=block_rows)


def _fro2(E) -> float:
    return float(np.vdot(E, E))


def _fro2_rows(M) -> float:
    """``||M||^2`` as the sum of its row sums: for rows contiguous in
    memory, a view and its copy give the same bits, and unlike ``np.vdot``
    a strided view is not copied."""
    return float(np.einsum("ij,ij->i", M, M).sum())


def _fro2_minus(P, Q) -> float:
    """``||P - Q||^2`` for a freshly computed product ``P``, which is
    overwritten: one temporary per residual."""
    P -= Q
    return _fro2(P)


def _check_joint_shapes(A, B, C, X, Y, H, hyper):
    """Raise ShapeMismatchError unless the operands fit together; with C
    None (as ``update_C`` has it) the sample count is that of X."""
    k, m = A.shape
    if B.shape[0] != k:
        raise ShapeMismatchError(f"A and B disagree on k: {k} vs {B.shape[0]}")
    if C is not None and C.shape[0] != k:
        raise ShapeMismatchError(f"A and C disagree on k: {k} vs {C.shape[0]}")
    n = X.shape[1] if C is None else C.shape[1]
    if X.shape != (m, n):
        raise ShapeMismatchError(f"X must be ({m}, {n}), got {X.shape}")
    if Y.shape != (B.shape[1], n):
        raise ShapeMismatchError(f"Y must be ({B.shape[1]}, {n}), got {Y.shape}")
    if hyper.lambda2 > 0:
        if H is None:
            raise ShapeMismatchError("H is required when lambda2 > 0")
        if H.shape != (k, n):
            raise ShapeMismatchError(f"H must be ({k}, {n}), got {H.shape}")


def _column_blocks(n: int) -> list[slice]:
    return [slice(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]


def _columns(X, Y, H):
    """The ``gather`` of ``_sweep`` for n-wide X, Y and H (H_j None when H
    is)."""
    return lambda j: (X[:, j], Y[:, j], H[:, j] if H is not None else None)


def _block_squares(X, Y) -> list:
    """``(||X_j||^2, ||Y_j||^2)`` of each column block j, as ``_block_norms``
    takes them from the blocks of ``_columns(X, Y, H)``."""
    return [(_fro2_rows(X[:, j]), _fro2_rows(Y[:, j])) for j in _column_blocks(X.shape[1])]


def _objective(block_norms, hyper: Hyperparams) -> float:
    """The objective from the five squared residual norms of each column
    block, each norm summed over the blocks in block order."""
    norms = [0.0] * 5
    for block in block_norms:
        for i, value in enumerate(block):
            norms[i] += value
    value = 0.5 * norms[0]
    value += 0.5 * hyper.lambda1 * norms[1]
    if hyper.lambda2 > 0:
        value += 0.5 * hyper.lambda2 * norms[2]
    value += 0.5 * hyper.lambda3 * norms[3]
    value += 0.5 * hyper.lambda4 * norms[4]
    return value


def loss(A, B, C, X, Y, H, hyper: Hyperparams) -> float:
    """Evaluate the five-term joint objective at (A, B, C).

    Uses the lambda values exactly as given in ``hyper``; variant
    zeroing is the caller's concern.  ``H`` may be None when lambda2 is
    zero.  A ``C`` of None evaluates the objective at the C step of
    (A, B), ``update_C(A, B, X, Y, H, hyper)``, bit for bit, as ``fit``'s
    ``losses[-1]`` does.  Each residual is summed over blocks of ``CHUNK``
    columns, the blocks of ``fit``'s final pass, so no temporary is n wide,
    and a C of None is held one block at a time.
    """
    _check_joint_shapes(A, B, C, X, Y, H, hyper)
    gather = _columns(X, Y, H if hyper.lambda2 > 0 else None)
    return _sweep(A, B, gather, X.shape[1], hyper, C=C, keep=False)[1]


def loss_gradients(A, B, C, X, Y, H, hyper: Hyperparams):
    """Analytic gradients of the joint objective for each block."""
    _check_joint_shapes(A, B, C, X, Y, H, hyper)
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    gA = (A @ X - C) @ X.T + l3 * (C @ (C.T @ A) - C @ X.T)
    gB = l1 * (B @ Y - C) @ Y.T + l4 * (C @ (C.T @ B) - C @ Y.T)
    gC = (C - A @ X) + l1 * (C - B @ Y) + l3 * (A @ (A.T @ C) - A @ X) \
        + l4 * (B @ (B.T @ C) - B @ Y)
    if l2 > 0:
        gC = gC + l2 * (C - H)
    return gA, gB, gC


def a_update_operands(C, X, lambda3):
    """Gram-matrix operands of the A-step Sylvester equation
    ``M Z + Z N = T``.  Shapes are (k,k), (m,m), (k,m): independent of
    the sample count."""
    return lambda3 * (C @ C.T), X @ X.T, (1.0 + lambda3) * (C @ X.T)


def b_update_operands(C, Y, lambda1, lambda4):
    """Gram-matrix operands of the B-step Sylvester equation."""
    return lambda4 * (C @ C.T), lambda1 * (Y @ Y.T), (lambda1 + lambda4) * (C @ Y.T)


def _scaled(eig: SymmetricEigen, factor) -> SymmetricEigen:
    """The eigendecomposition of ``factor`` times the matrix of ``eig``."""
    return SymmetricEigen(factor * eig.values, eig.vectors)


def _solve_block(M_eig: SymmetricEigen, N_eig: SymmetricEigen, T, ridge_eps, block):
    """Solve ``M Z + Z N = T`` given the eigendecompositions of both Grams.

    Returns Z, the strong-convexity modulus of the block subproblem,
    ``lambda_min(M) + lambda_min(N)`` clipped at 0, and the ridge message,
    or None when the pair is nonsingular.  A singular pair is solved as
    ``(M + eps/2 I) Z + Z (N + eps/2 I) = T``, whose Grams have the same
    eigenvectors and eigenvalues shifted by ``eps/2``: nothing is
    decomposed again.
    """
    modulus = max(float(M_eig.values[0] + N_eig.values[0]), 0.0)
    try:
        return sylvester_solve(M_eig, N_eig, T), modulus, None
    except NonUniqueError:
        if ridge_eps <= 0:
            raise
        # Tikhonov damping scaled by the mean Gram diagonal (the mean
        # eigenvalue: a trace is the sum of the eigenvalues)
        sizes = len(M_eig.values) + len(N_eig.values)
        scale = (np.sum(M_eig.values) + np.sum(N_eig.values)) / sizes
        if scale <= 0:
            scale = 1.0
        eps = ridge_eps * scale
        M_r = SymmetricEigen(M_eig.values + 0.5 * eps, M_eig.vectors)
        N_r = SymmetricEigen(N_eig.values + 0.5 * eps, N_eig.vectors)
        message = f"{block}-update Gram pair is singular; applying ridge eps={eps:.3e}"
        return sylvester_solve(M_r, N_r, T), modulus, message


def _solve_update(M_eig, N, T, ridge_eps, block) -> np.ndarray:
    """Z of ``_solve_block``, whose ridge message becomes a RidgeWarning
    at the caller of ``update_A`` or ``update_B``."""
    Z, _, message = _solve_block(M_eig, symmetric_eigen(N, "N"), T, ridge_eps, block)
    if message is not None:
        warnings.warn(message, RidgeWarning, stacklevel=3)
    return Z


def update_A(C, X, lambda3, ridge_eps: float = 0.0) -> np.ndarray:
    """Exact minimizer of the objective over A with B, C held fixed.

    Solves ``lambda3 C C^T A + A X X^T = (1 + lambda3) C X^T``, with the
    eigendecomposition of ``C C^T`` scaled by lambda3, as ``fit`` does.
    When both Grams are singular the equation has no unique solution; a
    positive ``ridge_eps`` falls back to a damped solve (with a
    RidgeWarning), otherwise NonUniqueError propagates.
    """
    cc_eig = symmetric_eigen(C @ C.T, "C C^T")
    return _solve_update(_scaled(cc_eig, lambda3), X @ X.T,
                         (1.0 + lambda3) * (C @ X.T), ridge_eps, "A")


def update_B(C, Y, lambda1, lambda4, ridge_eps: float = 0.0) -> np.ndarray:
    """Exact minimizer over B: solves
    ``lambda4 C C^T B + B (lambda1 Y Y^T) = (lambda1 + lambda4) C Y^T``,
    with the eigendecomposition of ``C C^T`` scaled by lambda4."""
    cc_eig = symmetric_eigen(C @ C.T, "C C^T")
    return _solve_update(_scaled(cc_eig, lambda4), lambda1 * (Y @ Y.T),
                         (lambda1 + lambda4) * (C @ Y.T), ridge_eps, "B")


def update_C(A, B, X, Y, H, hyper: Hyperparams) -> np.ndarray:
    """Exact minimizer over C, a single positive definite solve:

    ``((1 + l1 + l2) I + l3 A A^T + l4 B B^T) C
        = l2 H + (1 + l3) A X + (l1 + l4) B Y``.

    The right-hand side is formed and solved one column block of
    ``loss`` at a time, with one Cholesky factor for all blocks, by the
    sweep of ``fit``'s final pass: a product's rounding can depend on its
    width, and on the same blocks that pass solves exactly this C
    (C-contiguous, like every C of ``fit``) and sums the objective of
    ``losses[-1]`` at it.
    """
    _check_joint_shapes(A, B, None, X, Y, H, hyper)
    gather = _columns(X, Y, H if hyper.lambda2 > 0 else None)
    return _sweep(A, B, gather, X.shape[1], hyper)[0]


def _solve_c_block(chol, AX, B, Y, H, hyper: Hyperparams) -> np.ndarray:
    """The C step for one column block, from ``AX = A X`` of the block,
    which is left as it is.

    The right-hand side ``l2 H + (1 + l3) A X + (l1 + l4) B Y`` is
    accumulated in the C-contiguous k x b product ``B Y``, in the layout
    of every product it adds, and solved there by ``solve_spd``; that
    buffer is the block of C returned.  The other two terms are added over
    eighths of its rows (contiguous, unlike column slices, which took twice
    as long at k = 64), so no other temporary is k x b; a + b == b + a, so
    each entry is the sum ``(1 + l3) A X + (l1 + l4) B Y`` rounds to.
    """
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    rhs = B @ Y
    rhs *= l1 + l4
    step = -(-len(rhs) // 8)
    part = np.empty((step, rhs.shape[1]))
    for start in range(0, len(rhs), step):
        rows = rhs[start:start + step]
        term = part[:len(rows)]
        rows += np.multiply(AX[start:start + step], 1.0 + l3, out=term)
        if l2 > 0:
            rows += np.multiply(H[start:start + step], l2, out=term)
    return solve_spd(chol, rhs, overwrite_rhs=True)


# Each reconstruction norm of a block is taken from k x k Grams unless the
# scale of that form's rounding, weighted by its lambda (lambda3 for X,
# lambda4 for Y), is more than this multiple of twice the block's
# objective; then that norm alone is formed explicitly.  For X the scale
# is ||X_j||^2 + 2 |<A X_j, C_j>| + <A A^T, C_j C_j^T> plus
# sum_i (A A^T)_ii (C_j C_j^T)_ii, the last for the rounding of the two
# Grams' entries, which dominates where A or C_j is large against A^T C_j
# (at awa, a jcmspl1 fit's B); and so for Y and B.  On fits of five synth
# shapes (m = 50 to 2048, k = 8 to 64, noisy and noiseless; seeds 1 and 2;
# full and jcmspl1; unit lambda and the four presets), every block's
# objective stayed within 1.1e-13 of the explicit one's.  At unit lambda
# the ratio was 0.1 to 40, but up to 140 on an m = 2048, k = 8 shape,
# whose blocks then take the explicit form.  At the awa, cub and imnet
# presets a fit drives the X residual so far below ||X_j||^2 that X's
# ratio reaches 250 to 2e10, while Y's stayed below 50 in full fits.
GRAM_CANCELLATION = 64.0


# The explicit reconstruction norms of a block of b columns are summed
# over panels of max(k, PANEL // b) rows: none of their products is larger
# than C_j or PANEL elements (512 kB), and a block of the loop's narrow
# factor is not cut into m / k panels of a few columns each.
PANEL = 1 << 16


def _reconstruction_fro2(P, C, M) -> float:
    """``||M - P^T C||^2``, summed over panels of rows of M (``PANEL``)."""
    rows = max(len(P), PANEL // max(C.shape[1], 1))
    return sum(_fro2_minus(P[:, start:start + rows].T @ C, M[start:start + rows])
               for start in range(0, len(M), rows))


def _block_norms(A, B, gather, slices, hyper: Hyperparams, chol, C, grams, squares):
    """``(norms, CC)``: the five squared residual norms of each column block
    j of ``slices``, whose ``(X_j, Y_j, H_j)`` is ``gather(j)``, in block
    order, at C, or, given the Cholesky factor ``chol`` of the C-step
    matrix, at the C step of (A, B), solved into C (held one block at a time
    when None); and ``C_j C_j^T`` of the last block.

    The reconstruction norms come from k x k Grams,
    ``||X_j - A^T C_j||^2 = ||X_j||^2 - 2 <A X_j, C_j> + <A A^T, C_j C_j^T>``
    and so for Y and B, so no m x b or d x b product is formed, unless that
    cancels too far (``GRAM_CANCELLATION``): then that norm is formed in
    panels (``_reconstruction_fro2``), Y's with Y_j gathered again.  Each
    block's ``A X`` serves the C step and three residuals; ``grams`` is
    ``_grams(A, B)``.  A given C's block is made contiguous, as a solved
    one is, and the squares of X_j and Y_j are summed row by row
    (``_fro2_rows``), so the sums see the same layout, and each sweep takes
    the same form for a block.  ``squares`` holds those two sums for each
    block of ``slices``, or is None to take them from each block."""
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    norms, CC = [], None
    for i, j in enumerate(slices):
        X, Y, H = gather(j)
        xx, yy = squares[i] if squares else (_fro2_rows(X), _fro2_rows(Y))
        AX = A @ X
        if chol is None:
            Cj = np.ascontiguousarray(C[:, j])
        else:
            Cj = _solve_c_block(chol, AX, B, Y, H, hyper)
            if C is not None:
                C[:, j] = Cj
        xc = float(np.vdot(AX, Cj))
        r0 = _fro2_minus(AX, Cj)
        del AX
        BY = B @ Y
        yc = float(np.vdot(BY, Cj))
        del Y
        r1 = _fro2_minus(BY, Cj)
        del BY
        r2 = _fro2(Cj - H) if l2 > 0 else 0.0
        del H
        CC = Cj @ Cj.T
        acc, bcc = float(np.vdot(grams[0], CC)), float(np.vdot(grams[1], CC))
        r3, r4 = xx - 2.0 * xc + acc, yy - 2.0 * yc + bcc
        bound = GRAM_CANCELLATION * (r0 + l1 * r1 + l2 * r2 + l3 * r3 + l4 * r4)
        if l3 * (xx + 2.0 * abs(xc) + acc + np.einsum("ii,ii", grams[0], CC)) > bound:
            r3 = _reconstruction_fro2(A, Cj, X)
        if l4 * (yy + 2.0 * abs(yc) + bcc + np.einsum("ii,ii", grams[1], CC)) > bound:
            r4 = _reconstruction_fro2(B, Cj, gather(j)[1])
        del Cj
        norms.append((r0, r1, r2, r3, r4))
    return norms, CC


def _sweep(A, B, gather, n: int, hyper: Hyperparams, C=None, squares=None, keep=True):
    """``(C, f, CC, K)`` in one sweep over the ``CHUNK``-column blocks j of
    n columns, ``gather(j)`` giving ``(X_j, Y_j, H_j)``: f is the objective
    at C, and a C of None is first solved as the C step at (A, B), block by
    block on one Cholesky factor of ``K = _c_hessian(_grams(A, B))``, and
    unless ``keep`` held one block at a time and, with K, not returned.  K
    is None when C was given.  ``squares`` is ``_block_squares`` of the
    columns, or None.  CC is ``C C^T`` when there is one block, else None: the same
    product of the same C-contiguous array as ``C @ C.T`` of the C
    returned, so the same bits.

    The caller sweeps the first half of the blocks while ``workers.beside``
    sweeps the second, and the norms are summed in block order, as the
    serial sweep sums them.  Every C step and every objective, in ``loss``,
    ``update_C`` and ``fit``, is this sweep, so they agree bit for bit.
    """
    grams = _grams(A, B)
    chol = K = None
    if C is None:
        K = _c_hessian(grams, hyper)
        chol = cholesky_factor(K, "M")
        # unless kept, neither C nor K is held through the sweep
        C, K = (np.empty((A.shape[0], n)), K) if keep else (None, None)
    slices = _column_blocks(n)
    half = (len(slices) + 1) // 2
    first_sq, second_sq = (squares[:half], squares[half:]) if squares else (None, None)
    (first, CC), (second, _) = workers.beside(
        len(slices),
        lambda: _block_norms(A, B, gather, slices[:half], hyper, chol, C, grams, first_sq),
        lambda: _block_norms(A, B, gather, slices[half:], hyper, chol, C, grams, second_sq))
    return C, _objective(first + second, hyper), CC if len(slices) == 1 else None, K


def _final_pass(A, B, dataset: ZslDataset, positions, indicators, hyper: Hyperparams) -> float:
    """The objective at the C step of (A, B) on the n-wide data, by
    ``_sweep`` with one block of C held at a time, and the Y and H of
    ``expand_prototypes`` and ``build_class_matrix`` gathered one column
    block at a time.

    Y columns are gathered as ``expand_prototypes`` gathers them, since a
    product with a differently laid out Y rounds differently; H columns
    as booleans, which hold the 0/1 entries exactly in an eighth of the
    memory.
    """
    X = dataset.visual_seen
    flags = indicators.astype(bool) if hyper.lambda2 > 0 else None

    def gather(j):
        return (X[:, j], expand_prototypes(dataset.prototypes, dataset.labels_seen[j]),
                flags[:, positions[j]] if flags is not None else None)

    return _sweep(A, B, gather, X.shape[1], hyper, keep=False)[1]


def fpl_fit(X, Y, ridge_eps: float = 0.0) -> np.ndarray:
    """Closed-form visual-to-semantic regression ``A = Y X^T (X X^T + eps I)^-1``.

    With ``ridge_eps = 0`` a rank-deficient visual Gram raises
    SingularError instead of producing a garbage inverse.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"X and Y disagree on sample count: {X.shape[1]} vs {Y.shape[1]}"
        )
    G = X @ X.T
    if ridge_eps > 0:
        G = G + ridge_eps * np.eye(G.shape[0])
    else:
        ev = np.linalg.eigvalsh(0.5 * (G + G.T))
        if ev[-1] <= 0 or ev[0] <= 1e-12 * ev[-1]:
            raise SingularError(
                "visual Gram is singular; set ridge_eps > 0 to regularize"
            )
    return solve_spd(G, X @ Y.T).T


def _grams(A, B):
    """``(A A^T, B B^T)``."""
    return A @ A.T, B @ B.T


def _c_hessian(grams, hyper: Hyperparams) -> np.ndarray:
    """``(1 + lambda1 + lambda2) I + lambda3 A A^T + lambda4 B B^T``, the
    k x k matrix of the C-step solve, from ``grams = _grams(A, B)``."""
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    AA, BB = grams
    return (1.0 + l1 + l2) * np.eye(len(AA)) + l3 * AA + l4 * BB


def descent_constants(A_next, B_next, C, X, Y, hyper: Hyperparams):
    """Strong-convexity moduli of the three block subproblems.

    Returns (m_A, m_B, m_C):

    - m_A = ``lambda_min(lambda3 C C^T) + lambda_min(X X^T)``, the
      smallest eigenvalue of the A-step Hessian ``Z -> lambda3 C C^T Z + Z X X^T``
    - m_B = ``lambda_min(lambda4 C C^T) + lambda_min(lambda1 Y Y^T)``
    - m_C = smallest eigenvalue of
      ``(1 + lambda1 + lambda2) I + lambda3 A A^T + lambda4 B B^T``
      evaluated at the freshly updated A and B.

    m_A and m_B are clipped at 0 against roundoff.  Each full iteration
    then obeys
    ``f_next - f <= -(m_A/2)||dA||^2 - (m_B/2)||dB||^2 - (m_C/2)||dC||^2``
    up to roundoff, since every block update is an exact minimizer of a
    quadratic with at least that curvature.
    """
    l1, l3, l4 = hyper.lambda1, hyper.lambda3, hyper.lambda4
    if C.shape[1] != X.shape[1] or C.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"C, X and Y disagree on sample count: "
            f"{C.shape[1]}, {X.shape[1]}, {Y.shape[1]}"
        )
    CC = C @ C.T
    m_a = np.linalg.eigvalsh(l3 * CC)[0] + np.linalg.eigvalsh(X @ X.T)[0]
    m_b = np.linalg.eigvalsh(l4 * CC)[0] + np.linalg.eigvalsh(l1 * (Y @ Y.T))[0]
    m_c = float(np.linalg.eigvalsh(_c_hessian(_grams(A_next, B_next), hyper))[0])
    return max(float(m_a), 0.0), max(float(m_b), 0.0), m_c


def _class_sums(M, positions, num_classes: int) -> np.ndarray:
    """Per-class column sums of the n-wide ``M``: column j adds up the
    columns i with ``positions[i] == j``, so it is ``M E^T`` for the c x n
    one-hot E, formed one ``CHUNK``-column block at a time in one buffer,
    whose ones are set for a block and cleared after it."""
    total = np.zeros((M.shape[0], num_classes))
    onehot = np.zeros((min(CHUNK, len(positions)), num_classes))
    for j in _column_blocks(len(positions)):
        block = onehot[:j.stop - j.start]
        ones = np.arange(len(block)), positions[j]
        block[ones] = 1.0
        total += M[:, j] @ block
        block[ones] = 0.0
    return total


def _x_statistics(X, positions, num_classes: int):
    """``(X X^T, per-class sums of X)``; the sums go first, so that their
    one-hot buffer is freed before ``X X^T`` is allocated."""
    x_sums = _class_sums(X, positions, num_classes)
    return X @ X.T, x_sums


def _stacked_gram(x_stats, c0_stats, R, positions) -> np.ndarray:
    """Lower triangle of the Gram of ``[X; R E; C0]``, in Fortran order,
    from ``_x_statistics`` and ``(C0 X^T, C0 C0^T, class sums of C0)``.

    ``[Y; H] = V E`` for the per-class rows V (prototypes, then the block
    indicators when there are H rows) and the one-hot E of
    ``positions``; with the reduced QR ``V = Q R`` the rows ``R E`` carry
    the same Gram as ``[Y; H]`` up to Q, in at most c rows.  Their blocks
    come from R, the class counts and the per-class sums of X and C0;
    only those sums, ``X X^T`` (filled in whole, both triangles, so that
    the caller can decompose it), ``C0 X^T`` and ``C0 C0^T`` read n-wide
    data.
    """
    (xx, x_sums), (cx, cc, c_sums) = x_stats, c0_stats
    m, k = len(xx), len(cc)
    r, num_classes = R.shape
    counts = np.bincount(positions, minlength=num_classes)
    # pivoted_cholesky reads the lower triangle only, so only that is filled
    G = np.zeros((m + r + k, m + r + k), order="F")
    G[:m, :m] = xx
    G[m:m + r, :m] = R @ x_sums.T
    G[m:m + r, m:m + r] = (R * counts) @ R.T
    G[m + r:, :m] = cx
    G[m + r:, m:m + r] = c_sums @ R.T
    G[m + r:, m + r:] = cc
    return G


def _gram_factor(G, m: int, Q, d: int):
    """Rows ``(Xc, Yc, Hc, Cc)`` of a factor ``Zc`` with ``Zc Zc^T`` the
    Gram of ``[X; Y; H; C0]`` (m, d, q - d and k rows for the q x r
    ``Q``; ``Hc`` is None when q == d), from the Gram G of
    ``[X; R E; C0]`` of ``_stacked_gram``, which is overwritten.

    ``pivoted_cholesky`` stops, as LAPACK's ``dpstrf`` does, at the first
    pivot at most ``p * eps * max(diag G)``, so ``Zc`` has only ``rank``
    columns: the rest would be 0 or roundoff in a singular Gram, and
    kept they would add directions the data does not have,
    which shifts a near-zero loss by far more than roundoff.  The class
    rows map back as ``[Yc; Hc] = Q Fc``, which leaves ``Zc Zc^T`` equal
    to the Gram of ``[X; Y; H; C0]``.  ``Zc`` needs no orthogonal columns,
    only that product.  A G with a non-finite entry (overflowed products
    of finite data) raises NonFiniteError.
    """
    if not np.all(np.isfinite(G)):
        # a NaN pivot or an infinite tolerance would only cut the rank short
        raise NonFiniteError("the Gram of [X; Y; H; C0] contains non-finite entries")
    tol = len(G) * np.finfo(float).eps * np.max(np.diag(G))
    Zc = pivoted_cholesky(G, tol)
    r = Q.shape[1]
    classes = Q @ Zc[m:m + r]
    Hc = classes[d:] if len(Q) > d else None
    return Zc[:m], classes[:d], Hc, Zc[m + r:]


def _initial_blocks(dataset: ZslDataset, hyper: Hyperparams):
    """A, B and C0, drawn in that order with standard deviation 0.01."""
    rng = np.random.default_rng(hyper.seed)
    return tuple(0.01 * rng.standard_normal((hyper.k, size))
                 for size in (dataset.m, dataset.d, dataset.n_seen))


def _into_eigenbasis(Z, W, eig: SymmetricEigen):
    """Move one Sylvester step into the eigenbasis U of its fixed Gram,
    whose eigendecomposition is ``eig``: the rows of W become ``U^T W``,
    in place, and the result is ``(Z U, diag(values))``, the block and
    the Gram in that basis."""
    W[...] = eig.vectors.T @ W
    return Z @ eig.vectors, SymmetricEigen(eig.values, None)


def fit(dataset: ZslDataset, hyper: Hyperparams) -> tuple[JcmsplModel, TrainingTrace]:
    """Train a model by exact block-coordinate descent.

    Per iteration the blocks are updated in the order A, B, C, each to
    the exact minimizer of its subproblem, with one eigendecomposition
    (of ``C C^T``; see the module docstring).  The loop stops when the
    relative objective change ``|f_t - f_prev| / (1 + f_prev)`` drops
    below ``hyper.tol``, or after ``hyper.t_max`` iterations.

    Initialization draws A, B, C (in that order) from a seeded Gaussian
    with standard deviation 0.01, so identical inputs reproduce the run
    bitwise.  The ``fpl`` variant bypasses the loop entirely.

    The whole loop, ``losses[0]`` included, runs on a rank-wide factor of
    the p rows ``[X; Y; H; C0]`` (see the module docstring), at most
    ``min(n, p)`` columns wide, so no iteration costs more than one on the
    n-wide data, and none grows with the sample count n past p.  It runs
    in the eigenbases of ``X X^T`` and ``lambda1 Y Y^T`` (the factor's
    rows are rotated in place; A and B are rotated back once after the
    loop).  ``X X^T`` is the exact block of the factored Gram, ``Y Y^T``
    the Gram of the factor's Y rows.  Read from the n-wide data:
    ``X X^T``, ``C0 X^T``, ``C0 C0^T`` and the per-class sums of X and C0,
    once, before the loop; then, after it, the last entry ``losses[-1]``,
    which is exactly what ``loss()`` gives at ``update_C(A, B, ...)``.
    That final pass runs over blocks of ``CHUNK`` columns, solves the C
    step of each block and gathers its Y and H columns as it goes, so no
    n-wide matrix is allocated after the Grams, and no n-wide Y, H or C at
    all.  Where ``workers.beside`` allows, each of the two passes runs in
    part on a pinned helper thread (``X X^T`` and the class sums of X; the
    second half of the blocks of ``_sweep``), with the bits of the
    one-thread run.

    Returns the model, whose C is None (``update_C`` at its A and B
    gives the final C), together with a TrainingTrace of losses, block
    step norms, descent constants and any ridge-regularization warnings.
    """
    X = dataset.visual_seen
    if hyper.variant == "fpl":
        Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
        A = fpl_fit(X, Y, hyper.ridge_eps)
        trace = TrainingTrace(
            losses=[0.5 * _fro2(A @ X - Y)],
            delta_norms=[],
            descent_constants=[],
            converged_at=0,
        )
        return JcmsplModel(A=A, B=None, variant="fpl", hyper=hyper), trace

    eff = hyper.effective()
    positions = _class_positions(dataset.labels_seen, dataset.seen_classes)
    # per-class rows V with [Y; H] = V E for the one-hot E of the labels
    V = dataset.prototypes[:, dataset.seen_classes]
    indicators = None
    if eff.lambda2 > 0:
        indicators = _block_indicators(hyper.k, dataset.c_seen)
        V = np.vstack([V, indicators])

    # the right Grams of the two Sylvester steps are fixed: eigendecompose
    # them once.  C0 and every later C lie in the row space of
    # [X; Y; H; C0] = [X; Q R E; C0], so the factor carries every Gram and
    # norm the loop needs.  The X-only statistics are formed beside the
    # draw and those of C0, and the n-wide C0 goes before G is allocated,
    # to keep the allocation peak down.
    Q, R = np.linalg.qr(V)

    def draw():
        A, B, C = _initial_blocks(dataset, hyper)
        return A, B, (C @ X.T, C @ C.T, _class_sums(C, positions, dataset.c_seen))

    (A, B, c0_stats), x_stats = workers.beside(
        len(_column_blocks(dataset.n_seen)), draw,
        lambda: _x_statistics(X, positions, dataset.c_seen))
    G = _stacked_gram(x_stats, c0_stats, R, positions)
    del x_stats, c0_stats
    # before the factorization overwrites G
    x_eig = symmetric_eigen(G[:dataset.m, :dataset.m], "X X^T")
    Xw, Yw, Hw, C = _gram_factor(G, dataset.m, Q, dataset.d)
    del G, Q, R, V
    y_eig = symmetric_eigen(eff.lambda1 * (Yw @ Yw.T), "Y Y^T")
    # the loop runs in the fixed Grams' eigenbases: A U_x and B U_y
    # against the rows U_x^T X and U_y^T Y, which leaves every norm
    # and A A^T, B B^T as they are and makes X X^T and Y Y^T diagonal
    x_basis, y_basis = x_eig.vectors, y_eig.vectors
    A, x_eig = _into_eigenbasis(A, Xw, x_eig)
    B, y_eig = _into_eigenbasis(B, Yw, y_eig)

    f_prev = loss(A, B, C, Xw, Yw, Hw, eff)
    trace = TrainingTrace(
        losses=[f_prev], delta_norms=[], descent_constants=[], converged_at=None
    )
    CC = None  # C C^T of the last sweep, when it had one block
    squares = _block_squares(Xw, Yw)  # the factor's rows are fixed
    for t in range(1, hyper.t_max + 1):
        # lambda3 C C^T and lambda4 C C^T share one eigendecomposition
        cc_eig = symmetric_eigen(C @ C.T if CC is None else CC, "C C^T")
        A_next, m_a, ridge_a = _solve_block(
            _scaled(cc_eig, eff.lambda3), x_eig,
            (1.0 + eff.lambda3) * (C @ Xw.T), eff.ridge_eps, "A",
        )
        B_next, m_b, ridge_b = _solve_block(
            _scaled(cc_eig, eff.lambda4), y_eig,
            (eff.lambda1 + eff.lambda4) * (C @ Yw.T), eff.ridge_eps, "B",
        )
        trace.warnings += [f"iteration {t}: {r}" for r in (ridge_a, ridge_b) if r]
        C_next, f_t, CC, K = _sweep(A_next, B_next, _columns(Xw, Yw, Hw), Xw.shape[1],
                                    eff, squares=squares)
        m_c = float(np.linalg.eigvalsh(K)[0])
        deltas = (
            float(np.linalg.norm(A_next - A)),
            float(np.linalg.norm(B_next - B)),
            float(np.linalg.norm(C_next - C)),
        )
        A, B, C = A_next, B_next, C_next
        trace.losses.append(f_t)
        trace.delta_norms.append(deltas)
        trace.descent_constants.append((m_a, m_b, m_c))
        if abs(f_t - f_prev) / (1.0 + f_prev) < hyper.tol:
            trace.converged_at = t
            break
        f_prev = f_t

    # back to the standard basis and on the n-wide data, so that
    # losses[-1] is exactly what loss() gives at update_C(A, B, ...); what
    # only the loop used goes first, to keep the allocation peak down
    A, B = A @ x_basis.T, B @ y_basis.T
    del Xw, Yw, Hw, C, CC, C_next, A_next, B_next, cc_eig, K, x_eig, y_eig, x_basis, y_basis
    trace.losses[-1] = _final_pass(A, B, dataset, positions, indicators, eff)
    model = JcmsplModel(A=A, B=B, variant=hyper.variant, hyper=hyper)
    return model, trace


TRACE_COLUMNS = ("iteration", "loss", "dA", "dB", "dC", "mA", "mB", "mC")


def write_trace_csv(trace: TrainingTrace, path) -> None:
    """Write the trace by ``write_table``.  Row 0 carries the initialization
    loss with zero step norms and constants; row t the values of iteration t."""
    steps = zip(trace.losses[1:], trace.delta_norms, trace.descent_constants)
    rows = [[t, f, *deltas, *constants] for t, (f, deltas, constants) in enumerate(steps, 1)]
    write_table(path, TRACE_COLUMNS, [[0, trace.losses[0], *[0.0] * 6], *rows])
