"""Inference and evaluation: nearest-prototype recognition in either
direction, top-K hit rates, and seen/unseen harmonic-mean scoring.

Visual-to-semantic ("v2s") prediction embeds a visual sample as
``B^T A x`` and matches it against class prototype columns;
semantic-to-visual ("s2v") embeds a prototype as ``A^T B y`` and
matches visual samples against those anchors.  The fpl variant has no
concept space: its ``A`` already maps visual to semantic, so only v2s
is defined.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import ZslDataset
from .errors import (
    AllZeroNormError,
    DimensionMismatchError,
    EmptyCandidatesError,
    InvalidFractionError,
    InvalidKError,
    NonFiniteDistanceError,
    OutOfRangeError,
    UnsupportedVariantError,
)
from .trainer import JcmsplModel

DIRECTIONS = ("v2s", "s2v")
DISTANCES = ("cosine", "euclidean")


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary.

    ``hit_at_k`` is a (K, fraction) pair when a top-K rate was computed.
    ``acc_s``/``acc_u``/``hm`` are populated only by the generalized
    protocol; ``hm`` is always the harmonic mean of the other two.
    """

    overall_accuracy: float
    per_class_mean_accuracy: float
    direction: str
    distance: str
    hit_at_k: tuple[int, float] | None = None
    acc_s: float | None = None
    acc_u: float | None = None
    hm: float | None = None

    def __post_init__(self):
        for name in ("overall_accuracy", "per_class_mean_accuracy"):
            _check_fraction(getattr(self, name), name)
        populated = [v is not None for v in (self.acc_s, self.acc_u, self.hm)]
        if any(populated) and not all(populated):
            raise OutOfRangeError("acc_s, acc_u and hm must be set together")
        if self.hm is not None:
            expected = harmonic_mean(self.acc_s, self.acc_u)
            if abs(self.hm - expected) > 1e-12:
                raise OutOfRangeError(
                    f"hm {self.hm} is not the harmonic mean of "
                    f"acc_s={self.acc_s}, acc_u={self.acc_u}"
                )

    def to_dict(self) -> dict:
        fields = asdict(self)
        if self.hit_at_k is not None:
            fields["hit_at_k"] = {"k": self.hit_at_k[0], "fraction": self.hit_at_k[1]}
        return fields


def _check_fraction(value, name):
    if not (0.0 <= value <= 1.0):
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value}")


def harmonic_mean(acc_s: float, acc_u: float) -> float:
    """Harmonic mean ``2ab / (a + b)`` of two accuracies in [0, 1];
    defined as 0 when both are 0."""
    _check_fraction(acc_s, "acc_s")
    _check_fraction(acc_u, "acc_u")
    if acc_s == 0.0 and acc_u == 0.0:
        return 0.0
    return 2.0 * acc_s * acc_u / (acc_s + acc_u)


def _check_distance(distance):
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; use one of {DISTANCES}")


def distance_matrix(queries, candidates, distance: str = "cosine") -> np.ndarray:
    """Pairwise distances between query columns and candidate columns.

    Returns an (n_queries, n_candidates) array.  Cosine distance is
    ``1 - cos``; zero-norm candidate columns get +inf distance (with a
    warning) so they are never selected, and a zero-norm query scores
    distance 1 against every finite candidate.  All-zero candidate sets
    are rejected, and so is any other distance that is not finite, which
    a non-finite entry or one too large for float64 in either input
    gives: ranking NaN would pick the first candidate.
    """
    _check_distance(distance)
    Q = np.asarray(queries, dtype=np.float64)
    C = np.asarray(candidates, dtype=np.float64)
    if Q.ndim != 2 or C.ndim != 2:
        raise DimensionMismatchError("queries and candidates must be 2-D")
    if C.shape[1] == 0:
        raise EmptyCandidatesError("candidate set is empty")
    if Q.shape[0] != C.shape[0]:
        raise DimensionMismatchError(
            f"queries have dimension {Q.shape[0]}, candidates {C.shape[0]}"
        )
    # overflow and NaN are reported once, as the error below
    with np.errstate(over="ignore", invalid="ignore"):
        if distance == "euclidean":
            sq = (
                np.sum(Q * Q, axis=0)[:, None]
                + np.sum(C * C, axis=0)[None, :]
                - 2.0 * (Q.T @ C)
            )
            dist = np.sqrt(np.maximum(sq, 0.0))
            _check_finite(dist)
            return dist
        qn = np.linalg.norm(Q, axis=0)
        cn = np.linalg.norm(C, axis=0)
        dead = cn == 0.0
        if np.all(dead):
            raise AllZeroNormError("every candidate column has zero norm")
        if np.any(dead):
            warnings.warn(
                f"{int(dead.sum())} zero-norm candidate column(s) skipped",
                RuntimeWarning,
                stacklevel=2,
            )
        scale = np.outer(np.where(qn == 0.0, 1.0, qn), np.where(dead, 1.0, cn))
        _check_finite(scale)
        sim = (Q.T @ C) / scale
    sim[:, dead] = -np.inf
    dist = 1.0 - sim
    dist[qn == 0.0, :] = 1.0
    _check_finite(dist[:, ~dead])
    dist[:, dead] = np.inf
    return dist


def _check_finite(values) -> None:
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NonFiniteDistanceError(
            f"{bad} distance term(s) are not finite: a query or candidate "
            "holds a non-finite entry or one too large for float64"
        )


def classify(query, candidates, distance: str = "cosine") -> int:
    """Index of the nearest candidate column; ties go to the lowest index."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionMismatchError(f"query must be a vector, got ndim={q.ndim}")
    return int(np.argmin(distance_matrix(q[:, None], candidates, distance)[0]))


def _embed_visual(model: JcmsplModel, X) -> np.ndarray:
    """Map visual columns into the semantic space."""
    X = np.asarray(X, dtype=np.float64)
    rows = X.shape[0]
    if model.A.shape[1] != rows:
        raise DimensionMismatchError(
            f"model expects visual dimension {model.A.shape[1]}, got {rows}"
        )
    if model.variant == "fpl":
        return model.A @ X
    return model.B.T @ (model.A @ X)


def _embed_semantic(model: JcmsplModel, Y) -> np.ndarray:
    """Map semantic columns into the visual space."""
    if model.variant == "fpl":
        raise UnsupportedVariantError(
            "fpl has no semantic-to-visual map; only v2s inference is defined"
        )
    Y = np.asarray(Y, dtype=np.float64)
    if model.B.shape[1] != Y.shape[0]:
        raise DimensionMismatchError(
            f"model expects semantic dimension {model.B.shape[1]}, got {Y.shape[0]}"
        )
    return model.A.T @ (model.B @ Y)


def infer_semantic(model: JcmsplModel, x) -> np.ndarray:
    """Predicted semantic embedding of one visual sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError(f"x must be a vector, got ndim={x.ndim}")
    return _embed_visual(model, x[:, None])[:, 0]


def infer_visual(model: JcmsplModel, y) -> np.ndarray:
    """Predicted visual embedding of one semantic vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise DimensionMismatchError(f"y must be a vector, got ndim={y.ndim}")
    return _embed_semantic(model, y[:, None])[:, 0]


def _per_class_accuracies(preds, labels, class_ids):
    """Accuracy per class, skipping classes with no test samples."""
    accs = []
    for cid in class_ids:
        mask = labels == cid
        if np.any(mask):
            accs.append(float(np.mean(preds[mask] == cid)))
    return accs


def _unseen_distances(model, dataset, direction, distance):
    proto_u = dataset.prototypes[:, dataset.unseen_classes]
    if direction == "v2s":
        return distance_matrix(_embed_visual(model, dataset.visual_unseen), proto_u, distance)
    if direction == "s2v":
        anchors = _embed_semantic(model, proto_u)
        return distance_matrix(dataset.visual_unseen, anchors, distance)
    raise ValueError(f"unknown direction {direction!r}; use one of {DIRECTIONS}")


def eval_standard(
    model: JcmsplModel,
    dataset: ZslDataset,
    direction: str = "v2s",
    distance: str = "cosine",
) -> EvalReport:
    """Unseen-class accuracy with candidates restricted to unseen classes.

    Reports both the sample-weighted overall accuracy and the mean of
    per-class accuracies.
    """
    dist = _unseen_distances(model, dataset, direction, distance)
    preds = dataset.unseen_classes[np.argmin(dist, axis=1)]
    labels = dataset.labels_unseen
    per_class = _per_class_accuracies(preds, labels, dataset.unseen_classes)
    return EvalReport(
        overall_accuracy=float(np.mean(preds == labels)),
        per_class_mean_accuracy=float(np.mean(per_class)),
        direction=direction,
        distance=distance,
    )


def eval_hit_at_k(
    model: JcmsplModel,
    dataset: ZslDataset,
    k: int,
    direction: str = "v2s",
    distance: str = "cosine",
) -> float:
    """Fraction of unseen samples whose true class ranks in the K nearest
    candidates.  Ties rank lower-index candidates first, and K=1 agrees
    with the overall accuracy of ``eval_standard``."""
    c_u = dataset.c_unseen
    if not isinstance(k, (int, np.integer)) or not (1 <= k <= c_u):
        raise InvalidKError(f"K must satisfy 1 <= K <= {c_u}, got {k!r}")
    dist = _unseen_distances(model, dataset, direction, distance)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    # unseen_classes may be unsorted, so map labels to columns explicitly
    index_of = {int(c): i for i, c in enumerate(dataset.unseen_classes)}
    truth = np.array([index_of[int(label)] for label in dataset.labels_unseen])
    hits = np.any(order == truth[:, None], axis=1)
    return float(np.mean(hits))


def gzsl_holdout_indices(labels_seen, seen_classes, fraction: float, seed: int):
    """Seeded per-class holdout for generalized evaluation.

    From every seen class, rounds ``fraction`` of its sample count to
    the nearest integer (at least 1) and draws that many indices without
    replacement.  Returns a sorted index array into the seen split.
    """
    if not (0.0 < fraction < 1.0):
        raise InvalidFractionError(f"fraction must be in (0, 1), got {fraction}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    labels = np.asarray(labels_seen, dtype=np.int64)
    rng = np.random.default_rng(seed)
    picked = []
    for cid in np.asarray(seen_classes, dtype=np.int64):
        idx = np.flatnonzero(labels == cid)
        if idx.size == 0:
            continue
        n_hold = max(1, int(fraction * idx.size + 0.5))
        picked.append(rng.choice(idx, size=n_hold, replace=False))
    return np.sort(np.concatenate(picked))


def eval_generalized(
    model: JcmsplModel,
    dataset: ZslDataset,
    holdout_fraction: float = 0.2,
    seed: int = 0,
    distance: str = "cosine",
) -> EvalReport:
    """Generalized protocol: candidates span all classes.

    Scores the seeded per-class holdout of seen samples (``acc_s``, mean
    per-class accuracy) and every unseen sample (``acc_u``) against the
    full prototype set, v2s direction, and reports their harmonic mean.
    The model should have been trained without the holdout; use
    ``gzsl_holdout_indices`` with the same fraction and seed to build
    that split.
    """
    holdout = gzsl_holdout_indices(
        dataset.labels_seen, dataset.seen_classes, holdout_fraction, seed
    )
    all_classes = np.concatenate([dataset.seen_classes, dataset.unseen_classes])
    proto_all = dataset.prototypes[:, all_classes]

    X_hold = dataset.visual_seen[:, holdout]
    labels_hold = dataset.labels_seen[holdout]
    dist_s = distance_matrix(_embed_visual(model, X_hold), proto_all, distance)
    preds_s = all_classes[np.argmin(dist_s, axis=1)]

    dist_u = distance_matrix(
        _embed_visual(model, dataset.visual_unseen), proto_all, distance
    )
    preds_u = all_classes[np.argmin(dist_u, axis=1)]
    labels_u = dataset.labels_unseen

    per_class_s = _per_class_accuracies(preds_s, labels_hold, dataset.seen_classes)
    per_class_u = _per_class_accuracies(preds_u, labels_u, dataset.unseen_classes)
    acc_s = float(np.mean(per_class_s))
    acc_u = float(np.mean(per_class_u))
    correct = np.count_nonzero(preds_s == labels_hold) + np.count_nonzero(
        preds_u == labels_u
    )
    total = labels_hold.size + labels_u.size
    return EvalReport(
        overall_accuracy=correct / total,
        per_class_mean_accuracy=float(np.mean(per_class_s + per_class_u)),
        direction="v2s",
        distance=distance,
        acc_s=acc_s,
        acc_u=acc_u,
        hm=harmonic_mean(acc_s, acc_u),
    )
