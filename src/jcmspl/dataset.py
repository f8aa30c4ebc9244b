"""Dataset container, manifest I/O, and synthetic benchmark generation.

Datasets are column-major in the sample sense: visual feature matrices
hold one sample per column, prototype matrices one class embedding per
column, and class ids index prototype columns directly.

On disk a dataset is a JSON manifest pointing at headerless CSV files
(matrices row-major, comma separated; label files one integer per
line).  Paths in the manifest are resolved relative to the manifest's
directory.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetError,
    InvalidSpecError,
    ManifestError,
    MissingFileError,
    OverlappingSplitsError,
    ShapeMismatchError,
    UnknownClassIdError,
)

FILE_KEYS = (
    "visual_seen",
    "labels_seen",
    "visual_unseen",
    "labels_unseen",
    "prototypes",
)
MANIFEST_KEYS = FILE_KEYS + ("seen_classes", "unseen_classes")

NORMALIZE_MODES = ("none", "l2_columns")
# columns per block of every n-wide pass (``normalize``, the trainer's ``_sweep``)
CHUNK = 1024


def check_int(value, name: str, low: int, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int or numpy
    integer, not a bool, in [low, 2**63).  The archive stores k, t_max and
    the seeds as signed 64-bit ints; a float or a bool would fail only
    later, inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if not low <= value < 2**63:
        raise error(f"{name} must be in [{low}, 2**63), got {value!r}")


def check_float(value, name: str, error: type[Exception], positive: bool = False) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a number, not a bool,
    that a float64 holds finite and >= 0 (> 0 when ``positive``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float64 range
        finite = False
    if not (finite and (value > 0 if positive else value >= 0)):
        raise error(f"{name} must be {'positive' if positive else '>= 0'}, got {value}")


def _loadtxt(path, what: str, **kwargs) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"{what} file not found: {path}")
    try:
        return np.loadtxt(path, **kwargs)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise DatasetError(f"cannot parse {what} file {path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated numeric matrix."""
    return _loadtxt(path, "matrix", delimiter=",", dtype=np.float64, ndmin=2)


def write_matrix(path, M) -> None:
    # %.17g round-trips float64 exactly
    np.savetxt(path, np.asarray(M, dtype=np.float64), delimiter=",", fmt="%.17g")


def read_labels(path) -> np.ndarray:
    return _loadtxt(path, "label", dtype=np.int64, ndmin=1)


def write_labels(path, labels) -> None:
    np.savetxt(path, np.asarray(labels, dtype=np.int64), fmt="%d")


@dataclass(frozen=True)
class ZslDataset:
    """Zero-shot recognition dataset with disjoint seen/unseen class splits.

    Attributes
    ----------
    visual_seen : numpy.ndarray, shape (m, n_seen)
    labels_seen : numpy.ndarray, shape (n_seen,)
    visual_unseen : numpy.ndarray, shape (m, n_unseen)
    labels_unseen : numpy.ndarray, shape (n_unseen,)
    prototypes : numpy.ndarray, shape (d, total_classes)
        One semantic embedding per class id; class ids are column indices.
    seen_classes, unseen_classes : numpy.ndarray
        Ordered, disjoint class-id lists.
    """

    visual_seen: np.ndarray
    labels_seen: np.ndarray
    visual_unseen: np.ndarray
    labels_unseen: np.ndarray
    prototypes: np.ndarray
    seen_classes: np.ndarray
    unseen_classes: np.ndarray

    def __post_init__(self):
        for name in ("visual_seen", "visual_unseen", "prototypes"):
            object.__setattr__(self, name, _as_feature_matrix(getattr(self, name), name))
        for name in ("labels_seen", "labels_unseen", "seen_classes", "unseen_classes"):
            object.__setattr__(self, name, _as_label_vector(getattr(self, name), name))
        self._validate()

    def _validate(self):
        if self.visual_seen.shape[0] != self.visual_unseen.shape[0]:
            raise ShapeMismatchError(
                "seen and unseen feature matrices disagree on dimension: "
                f"{self.visual_seen.shape[0]} vs {self.visual_unseen.shape[0]}"
            )
        if self.labels_seen.shape[0] != self.visual_seen.shape[1]:
            raise ShapeMismatchError(
                f"labels_seen has {self.labels_seen.shape[0]} entries for "
                f"{self.visual_seen.shape[1]} seen samples"
            )
        if self.labels_unseen.shape[0] != self.visual_unseen.shape[1]:
            raise ShapeMismatchError(
                f"labels_unseen has {self.labels_unseen.shape[0]} entries for "
                f"{self.visual_unseen.shape[1]} unseen samples"
            )
        for name in ("m", "d", "n_seen", "n_unseen", "c_seen", "c_unseen"):
            if getattr(self, name) < 1:
                raise ShapeMismatchError(f"dataset dimension {name} must be >= 1")
        for name in ("seen_classes", "unseen_classes"):
            ids = getattr(self, name)
            if len(np.unique(ids)) != len(ids):
                raise DatasetError(f"{name} contains duplicate class ids")
        seen = set(self.seen_classes.tolist())
        unseen = set(self.unseen_classes.tolist())
        common = seen & unseen
        if common:
            raise OverlappingSplitsError(
                f"class ids appear in both splits: {sorted(common)}"
            )
        total = self.prototypes.shape[1]
        for cid in sorted(seen | unseen):
            if cid < 0 or cid >= total:
                raise UnknownClassIdError(
                    f"class id {cid} has no prototype column (0..{total - 1})"
                )
        if not set(self.labels_seen.tolist()) <= seen:
            bad = sorted(set(self.labels_seen.tolist()) - seen)
            raise UnknownClassIdError(f"labels_seen contains non-seen ids {bad}")
        if not set(self.labels_unseen.tolist()) <= unseen:
            bad = sorted(set(self.labels_unseen.tolist()) - unseen)
            raise UnknownClassIdError(f"labels_unseen contains non-unseen ids {bad}")

    @property
    def m(self) -> int:
        return self.visual_seen.shape[0]

    @property
    def d(self) -> int:
        return self.prototypes.shape[0]

    @property
    def n_seen(self) -> int:
        return self.visual_seen.shape[1]

    @property
    def n_unseen(self) -> int:
        return self.visual_unseen.shape[1]

    @property
    def c_seen(self) -> int:
        return self.seen_classes.shape[0]

    @property
    def c_unseen(self) -> int:
        return self.unseen_classes.shape[0]


def _as_feature_matrix(a, name):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DatasetError(f"{name} contains non-finite entries")
    return arr


def _as_label_vector(a, name):
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        # an id beyond int64 (a JSON number may be any size) arrives as a
        # float or a Python int, which the cast below would wrap
        outside = np.flatnonzero((arr >= 2.0**63) | (arr < -(2.0**63)))
        if outside.size:
            raise DatasetError(
                f"{name} holds {arr[outside[0]]}, outside the 64-bit integer range"
            )
        rounded = np.rint(np.asarray(arr, dtype=np.float64))
        if not np.array_equal(rounded, np.asarray(arr, dtype=np.float64)):
            raise DatasetError(f"{name} must contain integers")
        arr = rounded
    return arr.astype(np.int64)


def load_manifest(path) -> ZslDataset:
    """Load a dataset from a JSON manifest.

    The manifest must provide the keys ``visual_seen``, ``labels_seen``,
    ``visual_unseen``, ``labels_unseen`` and ``prototypes`` (CSV paths,
    relative to the manifest) plus the ``seen_classes`` and
    ``unseen_classes`` id lists (inline arrays or paths to label files).
    Every malformed manifest raises a ``DatasetError``.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"manifest not found: {path}")
    # ValueError covers JSONDecodeError and UnicodeDecodeError; json
    # recurses once per nesting level
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(spec).__name__}")
    missing = [key for key in MANIFEST_KEYS if key not in spec]
    if missing:
        raise ManifestError(f"manifest missing keys: {missing}")
    for key in FILE_KEYS:
        if not isinstance(spec[key], str):
            raise ManifestError(
                f"manifest entry {key!r} must be a file path, got {type(spec[key]).__name__}"
            )
    base = path.parent

    def _ids(key):
        value = spec[key]
        if isinstance(value, str):
            return read_labels(base / value)
        if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
            raise ManifestError(
                f"manifest entry {key!r} must be a label file path or a list of "
                "integer class ids"
            )
        return value

    return ZslDataset(
        visual_seen=read_matrix(base / spec["visual_seen"]),
        labels_seen=read_labels(base / spec["labels_seen"]),
        visual_unseen=read_matrix(base / spec["visual_unseen"]),
        labels_unseen=read_labels(base / spec["labels_unseen"]),
        prototypes=read_matrix(base / spec["prototypes"]),
        seen_classes=_ids("seen_classes"),
        unseen_classes=_ids("unseen_classes"),
    )


def save_manifest(dataset: ZslDataset, manifest_path) -> Path:
    """Write ``dataset`` as a manifest plus CSV files in one directory.

    File names are fixed (``visual_seen.csv`` etc.) and referenced
    relatively, so a saved directory can be relocated.  Returns the
    manifest path.
    """
    manifest_path = Path(manifest_path)
    out_dir = manifest_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {}
    for key in FILE_KEYS:
        spec[key] = f"{key}.csv"
        write = write_labels if key.startswith("labels") else write_matrix
        write(out_dir / spec[key], getattr(dataset, key))
    for key in ("seen_classes", "unseen_classes"):
        spec[key] = getattr(dataset, key).tolist()
    with open(manifest_path, "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def expand_prototypes(prototypes, labels) -> np.ndarray:
    """Gather one prototype column per label: result column i is the
    prototype of ``labels[i]``."""
    prototypes = _as_feature_matrix(prototypes, "prototypes")
    labels = _as_label_vector(labels, "labels")
    total = prototypes.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= total):
        raise UnknownClassIdError(
            f"labels reference prototype columns outside 0..{total - 1}"
        )
    return prototypes[:, labels]


def normalize(M, mode: str = "l2_columns", *, in_place: bool = False) -> np.ndarray:
    """Column-normalize a matrix.

    ``l2_columns`` rescales every column to unit Euclidean norm;
    zero-norm columns are passed through unchanged with a warning.
    ``none`` leaves the values as they are.  The result is a copy in M's
    layout, or with ``in_place`` a float64 array ``M`` itself.
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalize mode {mode!r}; use one of {NORMALIZE_MODES}")
    M = _as_feature_matrix(M, "M")
    if not in_place:
        M = M.copy(order="K")
    if mode == "none":
        return M
    # summed over blocks of CHUNK columns (no m x n temporary), the squares give
    # np.linalg.norm(M, axis=0) bit for bit: numpy sums a lone column pairwise,
    # not down the rows, so a last block of one column joins the one before
    bounds = [*range(0, max(M.shape[1] - 1, 1), CHUNK), M.shape[1]]
    blocks = [M[:, start:stop] for start, stop in zip(bounds, bounds[1:])]
    norms = np.sqrt(np.concatenate([np.add.reduce(B * B, axis=0) for B in blocks]))
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} zero-norm column(s) left unnormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    norms[zero] = 1.0
    M /= norms
    return M


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic planted-model benchmark."""

    m: int = 50
    d: int = 20
    k: int = 40
    num_seen_classes: int = 10
    num_unseen_classes: int = 5
    samples_per_class: int = 50
    noise_sigma: float = 0.05
    seed: int = 1

    def __post_init__(self):
        for name in ("m", "d", "k", "num_seen_classes", "num_unseen_classes",
                     "samples_per_class", "seed"):
            check_int(getattr(self, name), name, 0 if name == "seed" else 1, InvalidSpecError)
        check_float(self.noise_sigma, "noise_sigma", InvalidSpecError)
        total = self.num_seen_classes + self.num_unseen_classes
        if self.k < total:
            raise InvalidSpecError(
                f"k ({self.k}) must be >= total class count ({total}) so every "
                "class owns at least one concept coordinate"
            )
        if self.m < self.k:
            raise InvalidSpecError(
                f"m ({self.m}) must be >= k ({self.k}); the planted visual map "
                "needs orthonormal rows for the noiseless recovery identity"
            )


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth maps behind a synthetic dataset.

    ``A_true`` (k x m, orthonormal rows) lifts visual features into the
    concept space, ``B_true`` (k x d) does the same for semantic
    embeddings, and ``concept_means`` (k x classes) holds one unit-norm
    concept column per class.
    """

    A_true: np.ndarray
    B_true: np.ndarray
    concept_means: np.ndarray
    noise_sigma: float


def block_partition(total_rows: int, num_blocks: int) -> list[tuple[int, int]]:
    """Split ``total_rows`` into ``num_blocks`` contiguous ranges.

    Base block size is ``total_rows // num_blocks``; the remainder rows
    go one each to the earliest blocks.
    """
    base, rem = divmod(total_rows, num_blocks)
    bounds = []
    start = 0
    for i in range(num_blocks):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _orthonormal_map(rng, rows, cols):
    # orthonormal rows when possible, otherwise orthonormal columns
    g = rng.standard_normal((rows, cols))
    if rows <= cols:
        q, _ = np.linalg.qr(g.T)
        return q.T
    q, _ = np.linalg.qr(g)
    return q


def synth_generate(spec: SynthSpec) -> tuple[ZslDataset, PlantedModel]:
    """Generate a planted-model benchmark dataset.

    Every class owns a contiguous block of concept coordinates; its
    concept mean is the unit-scaled indicator of that block.  Visual
    samples are ``A_true^T (mean + sigma * noise)`` and prototypes are
    ``B_true^T mean``, so with ``noise_sigma = 0`` the planted maps
    classify every sample exactly.

    Because the blocks are disjoint and ``A_true`` has orthonormal rows,
    on noiseless data every unseen feature is orthogonal to every seen
    sample.  Only the planted maps then classify the unseen classes: a
    model fit on the seen split sends unseen features to roundoff and
    cannot transfer.

    Same spec (including seed) always yields bitwise-identical output.
    """
    total = spec.num_seen_classes + spec.num_unseen_classes
    rng = np.random.default_rng(spec.seed)
    A_true = _orthonormal_map(rng, spec.k, spec.m)
    B_true = _orthonormal_map(rng, spec.k, spec.d)

    concept_means = np.zeros((spec.k, total))
    for cid, (start, stop) in enumerate(block_partition(spec.k, total)):
        concept_means[start:stop, cid] = 1.0 / math.sqrt(stop - start)

    n_seen = spec.num_seen_classes
    spc = spec.samples_per_class
    visual_seen = np.empty((spec.m, n_seen * spc))
    visual_unseen = np.empty((spec.m, (total - n_seen) * spc))
    # each class's spc columns, in class order
    class_columns = [X[:, j : j + spc] for X in (visual_seen, visual_unseen)
                     for j in range(0, X.shape[1], spc)]
    for cid, columns in enumerate(class_columns):
        noise = rng.standard_normal((spec.k, spc))
        concept = concept_means[:, cid : cid + 1] + spec.noise_sigma * noise
        columns[...] = A_true.T @ concept

    labels = np.repeat(np.arange(total, dtype=np.int64), spc)
    dataset = ZslDataset(
        visual_seen=visual_seen,
        labels_seen=labels[: n_seen * spc],
        visual_unseen=visual_unseen,
        labels_unseen=labels[n_seen * spc :],
        prototypes=B_true.T @ concept_means,
        seen_classes=np.arange(n_seen, dtype=np.int64),
        unseen_classes=np.arange(n_seen, total, dtype=np.int64),
    )
    planted = PlantedModel(
        A_true=A_true,
        B_true=B_true,
        concept_means=concept_means,
        noise_sigma=spec.noise_sigma,
    )
    return dataset, planted
