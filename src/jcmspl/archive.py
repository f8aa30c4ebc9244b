"""Versioned binary model archives.

Layout (all little-endian): a 4-byte magic and u32 format version,
the hyperparameter snapshot, a dataset fingerprint (see below), then
the A/B/C matrices as presence flag, u64 row/column counts and
row-major float64 payload.  Matrices survive a save/load round trip
bit for bit.  C, when present, holds the k x n_seen per-sample concepts
of the training data; fpl models and planted models carry none.

``load_model`` raises only ``ArchiveError`` (or ``MissingFileError``)
for a malformed file: truncation, trailing bytes, a string that is not
UTF-8, an unknown variant, rejected hyperparameters, a variant that
disagrees with the hyperparameters' own, a presence flag
other than 0/1, a negative shape, a non-finite payload entry, a
matrix missing or present against its variant (fpl holds A only, a
joint variant A, B and an optional C), or an A, B or C whose shape
disagrees with k and the fingerprint's m, d and n_seen.

The fingerprint holds the dataset's dimensions and a SHA-256 over its
raw arrays in field order, each as row-major ``<f8`` or ``<i8`` bytes,
hashed from the array's own buffer (no copy when it is C-ordered).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import ZslDataset
from .errors import ArchiveError, InvalidHyperparamsError, MissingFileError
from .trainer import VARIANTS, Hyperparams, JcmsplModel

MAGIC = b"JCMS"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetFingerprint:
    m: int
    d: int
    n_seen: int
    n_unseen: int
    c_seen: int
    c_unseen: int
    sha256: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ModelArchive:
    model: JcmsplModel
    fingerprint: DatasetFingerprint
    version: int


def fingerprint_dataset(dataset: ZslDataset) -> DatasetFingerprint:
    """Dimensions plus a SHA-256 digest over the dataset's raw arrays."""
    digest = hashlib.sha256()
    for field in fields(dataset):
        arr = getattr(dataset, field.name)
        kind = "<f8" if np.issubdtype(arr.dtype, np.floating) else "<i8"
        digest.update(np.ascontiguousarray(arr, dtype=kind))
    return DatasetFingerprint(
        m=dataset.m,
        d=dataset.d,
        n_seen=dataset.n_seen,
        n_unseen=dataset.n_unseen,
        c_seen=dataset.c_seen,
        c_unseen=dataset.c_unseen,
        sha256=digest.hexdigest(),
    )


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_matrix(M) -> bytes:
    if M is None:
        return struct.pack("<B", 0)
    M = np.ascontiguousarray(M, dtype="<f8")
    return struct.pack("<Bqq", 1, M.shape[0], M.shape[1]) + M.tobytes()


def save_model(path, model: JcmsplModel, fingerprint: DatasetFingerprint) -> Path:
    h = model.hyper
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        _pack_str(model.variant),
        struct.pack(
            "<4dqqdqd",
            h.lambda1, h.lambda2, h.lambda3, h.lambda4,
            h.k, h.t_max, h.tol, h.seed, h.ridge_eps,
        ),
        _pack_str(h.variant),
        struct.pack(
            "<6q",
            fingerprint.m, fingerprint.d,
            fingerprint.n_seen, fingerprint.n_unseen,
            fingerprint.c_seen, fingerprint.c_unseen,
        ),
        _pack_str(fingerprint.sha256),
        _pack_matrix(model.A),
        _pack_matrix(model.B),
        _pack_matrix(model.C),
    ]
    path = Path(path)
    path.write_bytes(b"".join(parts))
    return path


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, size: int) -> int:
        """Claim the next ``size`` bytes; return their offset."""
        start = self.pos
        if start + size > len(self.data):
            raise ArchiveError("archive truncated")
        self.pos += size
        return start

    def take(self, fmt: str):
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (length,) = self.take("<I")
        start = self._advance(length)
        try:
            return self.data[start : self.pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError(f"archive string is not valid UTF-8: {exc}") from exc

    def take_matrix(self):
        (flag,) = self.take("<B")
        if flag == 0:
            return None
        if flag != 1:
            raise ArchiveError(f"bad matrix presence flag {flag} (expected 0 or 1)")
        rows, cols = self.take("<qq")
        if rows < 0 or cols < 0:
            raise ArchiveError(f"negative matrix shape ({rows}, {cols})")
        count = rows * cols
        offset = self._advance(8 * count)
        M = np.frombuffer(self.data, dtype="<f8", count=count, offset=offset)
        if not np.all(np.isfinite(M)):
            raise ArchiveError("matrix payload contains non-finite entries")
        return M.reshape(rows, cols).copy()


def _check_dimensions(A, B, C, variant, k, fingerprint) -> None:
    """The one table of what each variant's archive holds, in the shapes
    that k and the fingerprint's m, d and n_seen give: fpl an A of d x m
    and no B or C; a joint variant an A of k x m, a B of k x d and a C that
    is absent or k x n_seen."""
    m, d, n = fingerprint.m, fingerprint.d, fingerprint.n_seen
    if variant == "fpl":
        expected = {"A": (d, m), "B": None, "C": None}
    else:
        expected = {"A": (k, m), "B": (k, d), "C": (k, n)}
    held = {"A": A, "B": B, "C": C}
    for name, M in held.items():  # presence first: a joint variant's C is optional
        if M is None and expected[name] is not None and name != "C":
            raise ArchiveError(f"{variant} archive has no {name} matrix")
        if M is not None and expected[name] is None:
            raise ArchiveError(f"{variant} archive holds a {name} matrix; {variant} has none")
    for name, M in held.items():
        if M is not None and M.shape != expected[name]:
            raise ArchiveError(
                f"{variant} archive holds a {M.shape[0]}x{M.shape[1]} {name}, but "
                f"k={k} and the fingerprint's m={m}, d={d}, n_seen={n} give "
                f"{expected[name][0]}x{expected[name][1]}"
            )


def load_model(path) -> ModelArchive:
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"model archive not found: {path}")
    reader = _Reader(path.read_bytes())
    (magic,) = reader.take("4s")
    if magic != MAGIC:
        raise ArchiveError(f"bad magic {magic!r}; not a model archive")
    (version,) = reader.take("<I")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive version {version} (expected {FORMAT_VERSION})"
        )
    variant = reader.take_str()
    if variant not in VARIANTS:
        raise ArchiveError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    l1, l2, l3, l4, k, t_max, tol, seed, ridge_eps = reader.take("<4dqqdqd")
    hyper_variant = reader.take_str()
    try:
        hyper = Hyperparams(
            k=int(k), lambda1=l1, lambda2=l2, lambda3=l3, lambda4=l4,
            t_max=int(t_max), tol=tol, seed=int(seed),
            variant=hyper_variant, ridge_eps=ridge_eps,
        )
    except InvalidHyperparamsError as exc:
        raise ArchiveError(f"archive holds invalid hyperparameters: {exc}") from exc
    if hyper.variant != variant:
        raise ArchiveError(f"{variant} archive holds hyperparameters of {hyper.variant}")
    dims = reader.take("<6q")
    sha = reader.take_str()
    fingerprint = DatasetFingerprint(*[int(v) for v in dims], sha256=sha)
    A = reader.take_matrix()
    B = reader.take_matrix()
    C = reader.take_matrix()
    if reader.pos != len(reader.data):
        raise ArchiveError(f"{len(reader.data) - reader.pos} trailing bytes after the C matrix")
    _check_dimensions(A, B, C, variant, hyper.k, fingerprint)
    model = JcmsplModel(A=A, B=B, C=C, variant=variant, hyper=hyper)
    return ModelArchive(model=model, fingerprint=fingerprint, version=int(version))
