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
``fit`` therefore trains on a factor ``Zc`` with ``Zc Zc^T = Z Z^T``,
one column per nonzero eigenvalue of that Gram: then ``Z = Zc Q^T`` for
some Q with orthonormal columns, which preserves every norm and Gram in
the objective, and an iteration costs the same whatever the sample
count.  Since ``[Y; H]`` is a per-class matrix times the one-hot of the
labels, its Gram blocks come from per-class sums.  The n-wide data is
read once for the Grams and class sums, and once after the loop for the
returned C and the final loss.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import ZslDataset, block_partition, expand_prototypes
from .errors import (
    InvalidHyperparamsError,
    NonUniqueError,
    ShapeMismatchError,
    SingularError,
    TooFewRowsError,
    UnknownClassIdError,
)
from .linalg import SymmetricEigen, solve_spd, sylvester_solve, symmetric_eigen

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
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise InvalidHyperparamsError(f"k must be a positive integer, got {self.k!r}")
        if self.t_max < 1:
            raise InvalidHyperparamsError(f"t_max must be >= 1, got {self.t_max}")
        for name in ("k", "t_max", "seed"):  # signed 64-bit fields of the archive
            value = getattr(self, name)
            if not 0 <= value < 2**63:
                raise InvalidHyperparamsError(f"{name} must be in [0, 2**63), got {value}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidHyperparamsError(f"tol must be positive, got {self.tol}")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "ridge_eps"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise InvalidHyperparamsError(f"{name} must be >= 0, got {value}")

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
    """Trained projections.  ``B`` and ``C`` are None for the fpl variant,
    whose ``A`` maps visual features straight to the semantic space."""

    A: np.ndarray
    B: np.ndarray | None
    C: np.ndarray | None
    variant: str
    hyper: Hyperparams


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


def _fro2_minus(P, Q) -> float:
    """``||P - Q||^2`` for a freshly computed product ``P``, which is
    overwritten: one n-wide temporary per residual, freed on return."""
    P -= Q
    return _fro2(P)


def _check_joint_shapes(A, B, C, X, Y, H, hyper):
    k, m = A.shape
    if B.shape[0] != k:
        raise ShapeMismatchError(f"A and B disagree on k: {k} vs {B.shape[0]}")
    if C.shape[0] != k:
        raise ShapeMismatchError(f"A and C disagree on k: {k} vs {C.shape[0]}")
    n = C.shape[1]
    if X.shape != (m, n):
        raise ShapeMismatchError(f"X must be ({m}, {n}), got {X.shape}")
    if Y.shape != (B.shape[1], n):
        raise ShapeMismatchError(f"Y must be ({B.shape[1]}, {n}), got {Y.shape}")
    if hyper.lambda2 > 0:
        if H is None:
            raise ShapeMismatchError("H is required when lambda2 > 0")
        if H.shape != (k, n):
            raise ShapeMismatchError(f"H must be ({k}, {n}), got {H.shape}")


def loss(A, B, C, X, Y, H, hyper: Hyperparams) -> float:
    """Evaluate the five-term joint objective at (A, B, C).

    Uses the lambda values exactly as given in ``hyper``; variant
    zeroing is the caller's concern.  ``H`` may be None when lambda2 is
    zero.
    """
    _check_joint_shapes(A, B, C, X, Y, H, hyper)
    value = 0.5 * _fro2_minus(A @ X, C)
    value += 0.5 * hyper.lambda1 * _fro2_minus(B @ Y, C)
    if hyper.lambda2 > 0:
        value += 0.5 * hyper.lambda2 * _fro2(C - H)
    value += 0.5 * hyper.lambda3 * _fro2_minus(A.T @ C, X)
    value += 0.5 * hyper.lambda4 * _fro2_minus(B.T @ C, Y)
    return value


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


def _solve_block(M, N, N_eig: SymmetricEigen, T, ridge_eps, block):
    """Solve ``M Z + Z N = T`` given the eigendecomposition of the fixed
    Gram ``N``.

    Returns Z, the strong-convexity modulus of the block subproblem,
    ``lambda_min(M) + lambda_min(N)`` clipped at 0, and the ridge message,
    or None when the pair is nonsingular.  A singular pair is solved as
    ``(M + eps/2 I) Z + Z (N + eps/2 I) = T``, whose Grams have the same
    eigenvectors and eigenvalues shifted by ``eps/2``: nothing is
    decomposed again.
    """
    M_eig = symmetric_eigen(M, "M")
    modulus = max(float(M_eig.values[0] + N_eig.values[0]), 0.0)
    try:
        return sylvester_solve(M_eig, N_eig, T), modulus, None
    except NonUniqueError:
        if ridge_eps <= 0:
            raise
        # Tikhonov damping scaled by the mean Gram diagonal
        scale = (np.trace(M) + np.trace(N)) / (M.shape[0] + N.shape[0])
        if scale <= 0:
            scale = 1.0
        eps = ridge_eps * scale
        M_r = SymmetricEigen(M_eig.values + 0.5 * eps, M_eig.vectors)
        N_r = SymmetricEigen(N_eig.values + 0.5 * eps, N_eig.vectors)
        message = f"{block}-update Gram pair is singular; applying ridge eps={eps:.3e}"
        return sylvester_solve(M_r, N_r, T), modulus, message


def _solve_update(M, N, T, ridge_eps, block) -> np.ndarray:
    """Z of ``_solve_block``, whose ridge message becomes a RidgeWarning
    at the caller of ``update_A`` or ``update_B``."""
    Z, _, message = _solve_block(M, N, symmetric_eigen(N, "N"), T, ridge_eps, block)
    if message is not None:
        warnings.warn(message, RidgeWarning, stacklevel=3)
    return Z


def update_A(C, X, lambda3, ridge_eps: float = 0.0) -> np.ndarray:
    """Exact minimizer of the objective over A with B, C held fixed.

    Solves ``lambda3 C C^T A + A X X^T = (1 + lambda3) C X^T``.  When
    both Grams are singular the equation has no unique solution; a
    positive ``ridge_eps`` falls back to a damped solve (with a
    RidgeWarning), otherwise NonUniqueError propagates.
    """
    return _solve_update(*a_update_operands(C, X, lambda3), ridge_eps, "A")


def update_B(C, Y, lambda1, lambda4, ridge_eps: float = 0.0) -> np.ndarray:
    """Exact minimizer over B: solves
    ``lambda4 C C^T B + B (lambda1 Y Y^T) = (lambda1 + lambda4) C Y^T``."""
    return _solve_update(*b_update_operands(C, Y, lambda1, lambda4), ridge_eps, "B")


def update_C(A, B, X, Y, H, hyper: Hyperparams) -> np.ndarray:
    """Exact minimizer over C, a single positive definite solve:

    ``((1 + l1 + l2) I + l3 A A^T + l4 B B^T) C
        = l2 H + (1 + l3) A X + (l1 + l4) B Y``.
    """
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    k = A.shape[0]
    if B.shape[0] != k:
        raise ShapeMismatchError(f"A and B disagree on k: {k} vs {B.shape[0]}")
    if l2 > 0 and H is None:
        raise ShapeMismatchError("H is required when lambda2 > 0")
    # the n-wide right-hand side is accumulated in place
    rhs = A @ X
    rhs *= 1.0 + l3
    term = B @ Y
    term *= l1 + l4
    rhs += term
    if l2 > 0:
        np.multiply(H, l2, out=term)
        rhs += term
    del term
    return solve_spd(_c_hessian(A, B, hyper), rhs)


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


def _c_hessian(A, B, hyper: Hyperparams) -> np.ndarray:
    """``(1 + lambda1 + lambda2) I + lambda3 A A^T + lambda4 B B^T``, the
    k x k matrix of the C-step solve."""
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    k = A.shape[0]
    return (1.0 + l1 + l2) * np.eye(k) + l3 * (A @ A.T) + l4 * (B @ B.T)


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
    m_c = float(np.linalg.eigvalsh(_c_hessian(A_next, B_next, hyper))[0])
    return max(float(m_a), 0.0), max(float(m_b), 0.0), m_c


def _class_sums(M, positions, num_classes: int) -> np.ndarray:
    """Per-class column sums of ``M``: column j sums the columns i with
    ``positions[i] == j``, so ``M E^T`` for the c x n one-hot E, which is
    never formed."""
    return np.stack([np.bincount(positions, weights=row, minlength=num_classes)
                     for row in M])


def _stacked_gram(X, C0, V, positions, xx, yy) -> np.ndarray:
    """Lower triangle of the Gram ``Z Z^T`` of ``Z = [X; Y; H; C0]``.

    ``[Y; H] = V E`` for the per-class rows ``V`` (prototypes, then the
    block indicators when there are H rows) and the one-hot E of
    ``positions``, so every block that involves Y or H comes from
    per-class sums of X and C0 and the class counts, except ``Y Y^T``:
    it and ``xx = X X^T`` are passed in because the caller already has
    them.  Of the rest, only ``C0 X^T``, ``C0 C0^T`` and the class sums
    read n-wide data.
    """
    m, k = X.shape[0], C0.shape[0]
    d = yy.shape[0]
    q, num_classes = V.shape
    counts = np.bincount(positions, minlength=num_classes)
    # eigh reads the lower triangle only, so only that is filled
    G = np.zeros((m + q + k, m + q + k))
    G[:m, :m] = xx
    G[m:m + q, :m] = V @ _class_sums(X, positions, num_classes).T
    G[m:m + q, m:m + q] = (V * counts) @ V.T
    G[m:m + d, m:m + d] = yy
    G[m + q:, :m] = C0 @ X.T
    G[m + q:, m:m + q] = _class_sums(C0, positions, num_classes) @ V.T
    G[m + q:, m + q:] = C0 @ C0.T
    return G


def _gram_factor(G, m: int, d: int, q: int):
    """Rows ``(Xc, Yc, Hc, Cc)`` of a factor ``Zc`` with ``Zc Zc^T = G``
    for the Gram of ``[X; Y; H; C0]`` (m, d, q - d and k rows; ``Hc`` is
    None when q == d).

    ``Zc = U sqrt(Lambda)`` from the eigendecomposition ``U Lambda U^T``
    of G, keeping only the eigenvalues above ``p * eps * lambda_max``, so
    ``Zc`` is rank-wide: the rest are 0 or roundoff in a singular Gram,
    and kept they would add directions the data does not have, which
    shifts a near-zero loss by far more than roundoff.
    """
    values, vectors = np.linalg.eigh(G)
    keep = values > values[-1] * len(values) * np.finfo(float).eps
    Zc = vectors[:, keep]
    Zc *= np.sqrt(values[keep])
    Hc = Zc[m + d:m + q] if q > d else None
    return Zc[:m], Zc[m:m + d], Hc, Zc[m + q:]


def fit(dataset: ZslDataset, hyper: Hyperparams) -> tuple[JcmsplModel, TrainingTrace]:
    """Train a model by exact block-coordinate descent.

    Per iteration the blocks are updated in the order A, B, C, each to
    the exact minimizer of its subproblem.  The loop stops when the
    relative objective change ``|f_t - f_prev| / (1 + f_prev)`` drops
    below ``hyper.tol``, or after ``hyper.t_max`` iterations.

    Initialization draws A, B, C (in that order) from a seeded Gaussian
    with standard deviation 0.01, so identical inputs reproduce the run
    bitwise.  The ``fpl`` variant bypasses the loop entirely.

    When the sample count n exceeds the ``p = m + d + k`` rows of
    ``[X; Y; C0]`` (``+ k`` for H when the effective lambda2 is positive),
    the whole loop, ``losses[0]`` included, runs on a rank-wide factor of
    those rows (see the module docstring), so no iteration's cost grows
    with n.  Read from the n-wide data: the Grams ``X X^T``, ``Y Y^T``,
    ``C0 X^T``, ``C0 C0^T`` and the per-class sums of X and C0, once,
    before the loop; then, after it, the returned C and the last entry
    ``losses[-1]``, which are exactly what ``loss()`` gives.  With
    ``n <= p`` every entry is computed directly on the n-wide data.

    Returns the model together with a TrainingTrace of losses, block
    step norms, descent constants and any ridge-regularization warnings.
    """
    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)

    if hyper.variant == "fpl":
        A = fpl_fit(X, Y, hyper.ridge_eps)
        trace = TrainingTrace(
            losses=[0.5 * _fro2(A @ X - Y)],
            delta_norms=[],
            descent_constants=[],
            converged_at=0,
        )
        return JcmsplModel(A=A, B=None, C=None, variant="fpl", hyper=hyper), trace

    eff = hyper.effective()
    positions = _class_positions(dataset.labels_seen, dataset.seen_classes)
    # per-class rows V with [Y; H] = V E for the one-hot E of the labels
    V = dataset.prototypes[:, dataset.seen_classes]
    H = None
    if eff.lambda2 > 0:
        indicators = _block_indicators(hyper.k, dataset.c_seen)
        H = indicators.take(positions, axis=1)
        V = np.vstack([V, indicators])

    rng = np.random.default_rng(hyper.seed)
    A = 0.01 * rng.standard_normal((hyper.k, dataset.m))
    B = 0.01 * rng.standard_normal((hyper.k, dataset.d))
    C = 0.01 * rng.standard_normal((hyper.k, dataset.n_seen))

    # the right Grams of the two Sylvester steps are fixed: eigendecompose
    # them once
    xx, yy = X @ X.T, Y @ Y.T
    y_gram = eff.lambda1 * yy
    x_eig, y_eig = symmetric_eigen(xx, "X X^T"), symmetric_eigen(y_gram, "Y Y^T")
    # the data the loop works on: the n-wide matrices or their factor
    Xw, Yw, Hw = X, Y, H
    if dataset.n_seen > dataset.m + V.shape[0] + hyper.k:
        # C0 and every later C lie in the row space of [X; Y; H; C0], so
        # the factor carries every Gram and norm the loop needs; the
        # n-wide C0 goes before the eigendecomposition, to keep the
        # allocation peak down
        G = _stacked_gram(X, C, V, positions, xx, yy)
        C = None
        Xw, Yw, Hw, C = _gram_factor(G, dataset.m, dataset.d, V.shape[0])
        del G

    f_prev = loss(A, B, C, Xw, Yw, Hw, eff)
    trace = TrainingTrace(
        losses=[f_prev], delta_norms=[], descent_constants=[], converged_at=None
    )
    for t in range(1, hyper.t_max + 1):
        CC = C @ C.T
        A_next, m_a, ridge_a = _solve_block(
            eff.lambda3 * CC, xx, x_eig,
            (1.0 + eff.lambda3) * (C @ Xw.T), eff.ridge_eps, "A",
        )
        B_next, m_b, ridge_b = _solve_block(
            eff.lambda4 * CC, y_gram, y_eig,
            (eff.lambda1 + eff.lambda4) * (C @ Yw.T), eff.ridge_eps, "B",
        )
        trace.warnings += [f"iteration {t}: {r}" for r in (ridge_a, ridge_b) if r]
        m_c = float(np.linalg.eigvalsh(_c_hessian(A_next, B_next, eff))[0])
        C_next = update_C(A_next, B_next, Xw, Yw, Hw, eff)
        deltas = (
            float(np.linalg.norm(A_next - A)),
            float(np.linalg.norm(B_next - B)),
            float(np.linalg.norm(C_next - C)),
        )
        A, B, C = A_next, B_next, C_next
        f_t = loss(A, B, C, Xw, Yw, Hw, eff)
        trace.losses.append(f_t)
        trace.delta_norms.append(deltas)
        trace.descent_constants.append((m_a, m_b, m_c))
        if abs(f_t - f_prev) / (1.0 + f_prev) < hyper.tol:
            trace.converged_at = t
            break
        f_prev = f_t

    if Xw is not X:
        # back on the n-wide data, so that the model and losses[-1] are
        # exactly what loss() gives
        C = update_C(A, B, X, Y, H, eff)
        trace.losses[-1] = loss(A, B, C, X, Y, H, eff)
    model = JcmsplModel(A=A, B=B, C=C, variant=hyper.variant, hyper=hyper)
    return model, trace


TRACE_COLUMNS = ("iteration", "loss", "dA", "dB", "dC", "mA", "mB", "mC")


def write_trace_csv(trace: TrainingTrace, path) -> None:
    """Write the trace as CSV.  Row 0 carries the initialization loss
    with zero step norms and constants; row t the values of iteration t."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerow([0, f"{trace.losses[0]:.17g}"] + ["0"] * 6)
        for t in range(1, len(trace.losses)):
            dA, dB, dC = trace.delta_norms[t - 1]
            mA, mB, mC = trace.descent_constants[t - 1]
            writer.writerow(
                [t] + [f"{v:.17g}" for v in (trace.losses[t], dA, dB, dC, mA, mB, mC)]
            )
