"""Inference and evaluation: nearest-prototype recognition in either
direction, top-K hit rates, and seen/unseen harmonic-mean scoring.

Visual-to-semantic ("v2s") prediction embeds a visual sample as
``B^T A x`` and matches it against class prototype columns;
semantic-to-visual ("s2v") embeds a prototype as ``A^T B y`` and
matches visual samples against those anchors.  The fpl variant has no
concept space: its ``A`` already maps visual to semantic, so only v2s
is defined.

Each ``eval_*`` function scores a ``ZslDataset`` through ``rank``, the
array-level entry point: every scored set (the unseen split in either
direction, its top-K ranking and the generalized protocol's seen
holdout) is ranked ``NARROW`` columns at a time against a candidate set
checked once.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import NARROW, ZslDataset, check_int, check_number, column_norms
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
# an embedding is degenerate when its norm is at most this share of
# ||M||_2 ||q||, the largest norm the model's linear map M gives the input q
DEGENERATE_RTOL = 1e-8


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary.

    ``hit_at_k`` is a (K, fraction) pair when a top-K rate was computed.
    ``acc_s``/``acc_u``/``hm`` are populated only by the generalized
    protocol; ``hm`` is always the harmonic mean of the other two.
    ``degenerate_queries`` counts the embedded inputs (visual samples for
    v2s, unseen prototypes for s2v) whose embedding is roundoff: norm at
    most ``DEGENERATE_RTOL * ||M||_2 * ||q||`` for the embedding map M
    (``B^T A``, ``A`` for fpl, ``A^T B`` for s2v) and input q.  Their
    predictions rank noise, so a nonzero count discredits the accuracy.
    """

    overall_accuracy: float
    per_class_mean_accuracy: float
    direction: str
    distance: str
    hit_at_k: tuple[int, float] | None = None
    acc_s: float | None = None
    acc_u: float | None = None
    hm: float | None = None
    degenerate_queries: int = 0

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
    Q = np.asarray(queries, dtype=np.float64)
    dist, bad, _ = _distances(Q, _candidate_side(Q, candidates, distance, stacklevel=3), distance)
    _check_finite(*bad)
    return dist


def _candidate_side(queries, candidates, distance, stacklevel=2):
    """The checks of ``distance_matrix`` that read no query value, made once
    per candidate set: ``queries`` give only their shape.  Warns of
    zero-norm cosine candidates at ``stacklevel`` (2: the caller).  Returns
    what ``_distances`` takes for every block: the candidates, their squared
    column norms for euclidean or for cosine the scale's candidate factor
    (the norms, 1 where a norm is 0), and the zero-norm mask (None for
    euclidean)."""
    _check_distance(distance)
    C = np.asarray(candidates, dtype=np.float64)
    if queries.ndim != 2 or C.ndim != 2:
        raise DimensionMismatchError("queries and candidates must be 2-D")
    if C.shape[1] == 0:
        raise EmptyCandidatesError("candidate set is empty")
    if queries.shape[0] != C.shape[0]:
        raise DimensionMismatchError(
            f"queries have dimension {queries.shape[0]}, candidates {C.shape[0]}"
        )
    # overflow is reported with the distances, as the error of _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        if distance == "euclidean":
            return C, np.sum(C * C, axis=0), None
        norms = np.linalg.norm(C, axis=0)
    dead = norms == 0.0
    if np.all(dead):
        raise AllZeroNormError("every candidate column has zero norm")
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} zero-norm candidate column(s) skipped",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return C, np.where(dead, 1.0, norms), dead


def _distances(Q, side, distance):
    """``distance_matrix`` of the query columns ``Q`` against the candidates
    ``side`` of ``_candidate_side``, its counts of non-finite terms (of the
    cosine scale, 0 for euclidean, then of the distances) and the column
    norms of ``Q``, with the bits of ``column_norms``.

    A zero-norm cosine candidate holds only finite entries, so its distances
    are finite wherever the scale is: the distances of the whole block are
    counted, and their count is read only when the scale's is 0."""
    C, norms, dead = side
    # overflow and NaN are reported once, as the error of _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.sum(Q * Q, axis=0)
        qn = np.sqrt(squares)
        if distance == "euclidean":
            sq = squares[:, None] + norms[None, :] - 2.0 * (Q.T @ C)
            dist = np.sqrt(np.maximum(sq, 0.0))
            return dist, (0, _non_finite(dist)), qn
        scale = np.outer(np.where(qn == 0.0, 1.0, qn), norms)
        dist = 1.0 - (Q.T @ C) / scale
    dist[qn == 0.0, :] = 1.0
    bad = _non_finite(scale), _non_finite(dist)
    dist[:, dead] = np.inf
    return dist, bad, qn


def _non_finite(values) -> int:
    return np.count_nonzero(~np.isfinite(values))


def _check_finite(scale_terms: int, distance_terms: int) -> None:
    """Reject the non-finite terms that ``_distances`` counted: those of the
    cosine scale when there are any, which leave the distances unread."""
    bad = scale_terms or distance_terms
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


def _embed(model: JcmsplModel, inputs, direction: str) -> np.ndarray:
    """Map visual columns into the semantic space (v2s), or semantic
    columns into the visual space (s2v)."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; use one of {DIRECTIONS}")
    if direction == "s2v" and model.variant == "fpl":
        raise UnsupportedVariantError(
            "fpl has no semantic-to-visual map; only v2s inference is defined"
        )
    inputs = np.asarray(inputs, dtype=np.float64)
    space, M = ("visual", model.A) if direction == "v2s" else ("semantic", model.B)
    if M.shape[1] != inputs.shape[0]:
        raise DimensionMismatchError(
            f"model expects {space} dimension {M.shape[1]}, got {inputs.shape[0]}"
        )
    if direction == "s2v":
        return model.A.T @ (model.B @ inputs)
    if model.variant == "fpl":
        return model.A @ inputs
    return model.B.T @ (model.A @ inputs)


def infer_semantic(model: JcmsplModel, x) -> np.ndarray:
    """Predicted semantic embedding of one visual sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError(f"x must be a vector, got ndim={x.ndim}")
    return _embed(model, x[:, None], "v2s")[:, 0]


def infer_visual(model: JcmsplModel, y) -> np.ndarray:
    """Predicted visual embedding of one semantic vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise DimensionMismatchError(f"y must be a vector, got ndim={y.ndim}")
    return _embed(model, y[:, None], "s2v")[:, 0]


def _per_class_accuracies(preds, labels, class_ids):
    """Accuracy per class, skipping classes with no test samples."""
    accs = []
    for cid in class_ids:
        mask = labels == cid
        if np.any(mask):
            accs.append(float(np.mean(preds[mask] == cid)))
    return accs


def _map_norm(model: JcmsplModel) -> float:
    """``||B^T A||_2`` (``||A||_2`` for fpl), the scale of the degenerate
    count in both directions, being ``||A^T B||_2``; inf when the map
    overflows.  An SVD of a d x m matrix: taken once per scored set."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = model.A if model.variant == "fpl" else model.B.T @ model.A
        return np.linalg.norm(M, 2) if np.all(np.isfinite(M)) else np.inf


def _degenerate_count(scale: float, inputs, embedded_norms) -> int:
    """How many columns of ``inputs`` the model embeds to roundoff, given
    the column norms of their embeddings and the model's ``_map_norm`` (see
    ``EvalReport``).  An embedding that overflows makes the count
    meaningless; the distances reject it."""
    # a map that overflows makes every bound infinite
    with np.errstate(over="ignore", invalid="ignore"):
        bound = DEGENERATE_RTOL * scale * column_norms(inputs)
        return int(np.count_nonzero(embedded_norms <= bound))


@dataclass(frozen=True)
class Ranking:
    """A scored set of visual columns, from ``rank``: the nearest and the
    true class id of each column, how many true ids rank among the K
    nearest (None when no K was given) and the degenerate embedding count."""

    preds: np.ndarray
    labels: np.ndarray
    hits: int | None
    degenerate: int


def rank(model, prototypes, visual, labels, classes, direction="v2s", distance="cosine",
         columns=None, k=None) -> Ranking:
    """Rank the columns ``visual[:, columns]`` (all of them when ``columns``
    is None), labelled ``labels[columns]``, against the ``prototypes``
    columns of ``classes`` in ``direction``, counting top-``k`` hits when a
    K is given.

    The candidate side is checked once: its shape, an all-zero or a
    zero-norm cosine candidate, and for s2v the anchors ``A^T B y`` and
    their degenerate count.  The columns are then gathered, embedded (v2s)
    and ranked NARROW at a time, so no copy of the whole set is held.  The
    non-finite distance terms are summed over the blocks and rejected once,
    with the count of ranking the whole set at once.
    """
    candidates = prototypes[:, classes]
    scale = _map_norm(model)
    degenerate = 0
    if direction == "s2v":
        anchors = _embed(model, candidates, direction)
        degenerate = _degenerate_count(scale, candidates, column_norms(anchors))
        side = _candidate_side(visual, anchors, distance)
    else:
        # an embedding of no columns checks the model against the visual
        # rows before the candidates are checked, and has the queries' rows
        side = _candidate_side(_embed(model, visual[:, :0], direction), candidates, distance)
    if columns is not None:
        labels = labels[columns]
    preds = np.empty(labels.size, dtype=classes.dtype)
    hits, bad = 0, np.zeros(2, dtype=np.int64)
    for start in range(0, labels.size, NARROW):
        block = slice(start, start + NARROW)
        inputs = visual[:, block if columns is None else columns[block]]
        queries = _embed(model, inputs, direction) if direction == "v2s" else inputs
        dist, block_bad, norms = _distances(queries, side, distance)
        if direction == "v2s":
            degenerate += _degenerate_count(scale, inputs, norms)
        bad += block_bad
        preds[block] = classes[np.argmin(dist, axis=1)]
        if k is not None:
            # class ids are unique, so a hit is a ranked id equal to the label
            nearest = classes[np.argsort(dist, axis=1, kind="stable")[:, :k]]
            hits += np.count_nonzero(np.any(nearest == labels[block, None], axis=1))
    _check_finite(*bad)
    return Ranking(preds, labels, None if k is None else hits, degenerate)


def eval_standard(
    model: JcmsplModel,
    dataset: ZslDataset,
    direction: str = "v2s",
    distance: str = "cosine",
    hit_k: int | None = None,
) -> EvalReport:
    """Unseen-class accuracy with candidates restricted to unseen classes.

    Reports both the sample-weighted overall accuracy and the mean of
    per-class accuracies, and the number of degenerate embeddings.  Given
    ``hit_k``, it also reports the ``eval_hit_at_k`` rate of that K, taken
    from the same ranking.
    """
    classes, labels = dataset.unseen_classes, dataset.labels_unseen
    c_u = len(classes)
    if hit_k is not None and (isinstance(hit_k, bool) or not isinstance(hit_k, (int, np.integer))
                              or not 1 <= hit_k <= c_u):
        raise InvalidKError(f"K must satisfy 1 <= K <= {c_u}, got {hit_k!r}")
    ranked = rank(model, dataset.prototypes, dataset.visual_unseen, labels, classes, direction,
                  distance, k=hit_k)
    per_class = _per_class_accuracies(ranked.preds, labels, classes)
    return EvalReport(
        overall_accuracy=float(np.mean(ranked.preds == labels)),
        per_class_mean_accuracy=float(np.mean(per_class)),
        direction=direction,
        distance=distance,
        hit_at_k=None if hit_k is None else (hit_k, ranked.hits / labels.size),
        degenerate_queries=ranked.degenerate,
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
    return eval_standard(model, dataset, direction, distance, k).hit_at_k[1]


def check_holdout(fraction: float, seed: int) -> None:
    """The flags of ``gzsl_holdout_indices``: a fraction in (0, 1), an
    integer seed in [0, 2**63)."""
    check_number(fraction, "fraction", InvalidFractionError)
    if not (0.0 < fraction < 1.0):
        raise InvalidFractionError(f"fraction must be in (0, 1), got {fraction}")
    check_int(seed, "seed", 0, OutOfRangeError)


def gzsl_holdout_indices(labels_seen, seen_classes, fraction: float, seed: int):
    """Seeded per-class holdout for generalized evaluation.

    From every seen class, rounds ``fraction`` of its sample count to
    the nearest integer (at least 1) and draws that many indices without
    replacement.  Returns a sorted index array into the seen split.
    """
    check_holdout(fraction, seed)
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
    holdout = gzsl_holdout_indices(dataset.labels_seen, dataset.seen_classes, holdout_fraction,
                                   seed)
    seen, unseen_ids = dataset.seen_classes, dataset.unseen_classes
    classes = np.concatenate([seen, unseen_ids])
    held = rank(model, dataset.prototypes, dataset.visual_seen, dataset.labels_seen, classes,
                "v2s", distance, holdout)
    unseen = rank(model, dataset.prototypes, dataset.visual_unseen, dataset.labels_unseen,
                  classes, "v2s", distance)
    per_class_s = _per_class_accuracies(held.preds, held.labels, seen)
    per_class_u = _per_class_accuracies(unseen.preds, unseen.labels, unseen_ids)
    acc_s = float(np.mean(per_class_s))
    acc_u = float(np.mean(per_class_u))
    correct = sum(np.count_nonzero(r.preds == r.labels) for r in (held, unseen))
    return EvalReport(
        overall_accuracy=correct / (held.labels.size + unseen.labels.size),
        per_class_mean_accuracy=float(np.mean(per_class_s + per_class_u)),
        direction="v2s",
        distance=distance,
        acc_s=acc_s,
        acc_u=acc_u,
        hm=harmonic_mean(acc_s, acc_u),
        degenerate_queries=held.degenerate + unseen.degenerate,
    )
