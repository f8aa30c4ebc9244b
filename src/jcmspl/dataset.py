"""Dataset container, manifest I/O, and synthetic benchmark generation.

Datasets are column-major in the sample sense: visual feature matrices
hold one sample per column, prototype matrices one class embedding per
column, and class ids index prototype columns directly.

On disk a dataset is a JSON manifest pointing at headerless CSV files
(matrices row-major, comma separated; label files one integer per
line).  Paths in the manifest are resolved relative to the manifest's
directory.  ``read_matrix`` keeps each parse of an uncompressed matrix
file in a hidden sidecar file beside it, which later reads of the same
bytes return instead of parsing them again.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import lzma
import math
import mmap
import os
import shutil
import stat
import struct
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import workers
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
# columns per block of the trainer's n-wide passes (``_sweep`` and the rest)
CHUNK = 1024
# columns per block of the narrow passes over a feature matrix: the finiteness
# check of ``_as_feature_matrix``, ``column_norms`` and the ranking of every
# scored set (``recognizer.rank``); a 256-row block is 128 kB
NARROW = 64


def check_int(value, name: str, low: int, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int or numpy
    integer, not a bool, in [low, 2**63).  The archive stores k, t_max and
    the seeds as signed 64-bit ints; a float or a bool would fail only
    later, inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if not low <= value < 2**63:
        raise error(f"{name} must be in [{low}, 2**63), got {value!r}")


def check_number(value, name: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")


def check_float(value, name: str, error: type[Exception], positive: bool = False) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a number, not a bool,
    that a float64 holds finite and >= 0 (> 0 when ``positive``)."""
    check_number(value, name, error)
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
    # UnicodeDecodeError is a ValueError too; a truncated or mislabelled
    # compressed file raises EOFError, LZMAError or an OSError of its codec,
    # which has no errno, unlike an OSError of the file system
    except (ValueError, EOFError, lzma.LZMAError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno is not None:
            raise
        raise DatasetError(f"cannot parse {what} file {path}: {exc}") from exc


MATRIX_READ = {"delimiter": ",", "dtype": np.float64, "ndmin": 2}
# Each worker of a matrix read or write gets at least this many bytes: the
# file's for a read, the array's for a write.  A 256 x 500 slice of the large
# synth's features (1 MB of float64, 2.7 MB of text) takes about 16 ms to parse
# (28 ms by np.loadtxt) and 15 ms to format, best of 15 runs on one core,
# against a median 3.0 ms to fork, pipe and reap one child of a process holding
# the large synth (58 MB resident; 3.8 ms at 70 MB after a fit; 2-core x86-64
# host, numpy 2.4, Python 3.11).
PARALLEL_MIN_BYTES = 1_000_000
# np.loadtxt decompresses files with these suffixes; they are read serially
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _workers(rows: int, nbytes: int) -> int:
    """Forked workers for a matrix of ``rows`` rows and ``nbytes`` bytes:
    ``workers.count`` with one unit per row and per PARALLEL_MIN_BYTES bytes."""
    return workers.count(min(rows, nbytes // PARALLEL_MIN_BYTES))


# ``_parse_block`` reads each field of 1 to FIELD bytes from the FIELD-byte
# window that ends at its separator: three little-endian words, XORed with
# '0' so that a digit byte holds its value.  The bytes before the field and a
# leading '-' are cleared (KEEP_FROM, by the count of bytes to clear), and so
# is a point, found by a byte compare.  Where every other byte is a digit,
# the words give the integer D' of the field's digits with a 0 for its point.
FIELD = 24
PARSE_BLOCK = 1 << 18  # bytes of whole lines per kernel call
KEEP_FROM = (np.uint8(0xFF) * (np.arange(FIELD) >= np.arange(FIELD + 1)[:, None])).view(
    f"V{FIELD}")[:, 0]
ZEROS = np.uint64(0x3030_3030_3030_3030)  # '0' in every byte
POINTS = np.uint64(0x1E1E_1E1E_1E1E_1E1E)  # '.' ^ '0' in every byte
LOW7 = np.uint64(0x7F7F_7F7F_7F7F_7F7F)
TOP_BITS = np.uint64(0x8080_8080_8080_8080)
OVER_NINE = np.uint64(0x7676_7676_7676_7676)  # + 0x76 sets bit 7 of a byte above 9
# byte 7 of (1 at byte p of word j) * POINT_AT[j] is 24 - 8j - p: 1 + the
# digits after a point there
POINT_AT = np.array([sum((17 - 8 * j + p) << (8 * p) for p in range(8)) for j in range(3)],
                    dtype=np.uint64)
INT_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
FLOAT_POW10 = np.array([float(10**k) for k in range(FIELD)])  # exact through 10**22
INT_POW5 = np.array([5**k for k in range(FIELD)], dtype=np.uint64)
FLOAT_CHARS = b"0123456789.eE+-"


def _quotients(D: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubles nearest D / 10**f (D < 10**19 uint64, f <= 23), and a
    mask of those it leaves unsettled.

    Where D < 2**53 and f <= 22 both are exact doubles, and one division
    rounds correctly (Clinger's fast path).  Otherwise that quotient
    x = F * 2**E (2**52 <= F < 2**53) is within 3 ulps of D / 10**f.  With
    a - b = 1 - E - f and a, b >= 0, r = D * 2**a - (2F - 1) * 5**f * 2**b is
    D / 10**f less x's lower midpoint, and w = 2 * 5**f * 2**b is one ulp,
    on one scale where both stay below 2**62 in magnitude; so uint64
    arithmetic, which wraps, gives them exactly (after Lemire, "Number
    Parsing at a Gigabyte per Second", 2021).  The result is x where
    0 < r < w, the double below x where -w < r < 0 and the one above where
    w < r < 2w.  A tie (r = 0 or w), a miss by more, and x at F = 2**52 or
    2**52 + 1 unless it steps up (the spacing below 2**52 * 2**E halves)
    are left unsettled."""
    x = D.astype(np.float64)
    x /= FLOAT_POW10[f]
    near = np.flatnonzero((D >= np.uint64(1 << 53)) | (f > 22))
    unsettled = np.zeros(x.shape, dtype=bool)
    if near.size:
        D, f = D[near], f[near]
        bits = x[near].view(np.uint64)
        F = bits & np.uint64((1 << 52) - 1)
        edge = F <= 1
        F |= np.uint64(1 << 52)
        c = (bits >> np.uint64(52)).view(np.int64)
        c += f
        np.subtract(1076, c, out=c)  # 1 - E - f, the exponent field being E + 1075
        a = np.maximum(c, 0)
        b = np.subtract(a, c, out=c).view(np.uint64)
        D <<= a.view(np.uint64)
        F += F
        F -= np.uint64(1)
        w = INT_POW5[f]
        F *= w
        F <<= b
        D -= F
        b += np.uint64(1)
        w <<= b
        r = D.view(np.int64)
        w = w.view(np.int64)
        r += w  # the double below in (0, w), x in (w, 2w), the one above in (2w, 3w)
        down = r < w
        up = r > 2 * w
        unsettled[near] = (r <= 0) | (r >= 3 * w) | (r == w) | (r == 2 * w) | (edge & ~up)
        bits += up
        bits -= down
        x[near] = bits.view(np.float64)
    return x, unsettled


def _parse_block(u: np.ndarray, windows: np.ndarray, lo: int, hi: int) -> np.ndarray | None:
    """The rows of ``u[lo:hi]``, whole lines each ending in a newline, bit
    for bit as ``np.loadtxt(..., **MATRIX_READ)`` parses them; None for text
    that it leaves to np.loadtxt.  ``windows`` views ``u`` as one FIELD-byte
    item per offset, and ``u`` holds FIELD bytes before ``lo``.

    Every line must have the first line's field count and every field 1 to
    FIELD bytes.  A field of an optional '-', digits and at most one point,
    with D < 10**19 for its digits and f digits after the point, is
    +-D / 10**f (``_quotients``).  Every other field, and any that
    ``_quotients`` leaves, takes Python's ``float`` if its bytes are in
    FLOAT_CHARS (an exponent, a '+'): ``float`` also takes '_' and spaces,
    which np.loadtxt may refuse."""
    seg = u[lo:hi]
    seps = seg == ord(",")
    seps |= seg == ord("\n")
    ends = np.flatnonzero(seps)
    newline = seg[ends] == ord("\n")
    cols = int(newline.argmax()) + 1
    rows = ends.size // cols
    if (rows * cols != ends.size or np.count_nonzero(newline) != rows
            or not newline[cols - 1 :: cols].all()):
        return None
    ends += lo
    starts = np.empty_like(ends)
    starts[0] = lo
    np.add(ends[:-1], 1, out=starts[1:])
    width = ends - starts
    if not (width.view(np.uint64) - np.uint64(1) < np.uint64(FIELD)).all():
        return None
    neg = u[starts] == ord("-")
    V = windows[ends - FIELD].view(np.uint64).reshape(-1, 3)
    V ^= ZEROS
    cleared = FIELD - width
    cleared += neg
    V &= KEEP_FROM[cleared].view(np.uint64).reshape(-1, 3)
    # 1 at each byte that was '.': bit 7 of a byte's low 7 bits plus 0x7F,
    # ORed with the byte, is clear only for a zero byte
    t = V ^ POINTS
    point = t & LOW7
    point += LOW7
    point |= t
    point |= LOW7
    np.invert(point, out=point)
    point >>= np.uint64(7)
    np.multiply(point, POINT_AT, out=t)
    t >>= np.uint64(56)
    f1 = t[:, 0] + t[:, 1]
    f1 += t[:, 2]  # f + 1 where the field has one point, 0 where none
    dotted = f1 != 0
    if np.count_nonzero(seg == ord(".")) != np.count_nonzero(dotted):
        return None  # a field with two points
    point *= np.uint64(0x1E)
    V ^= point
    bad = V + OVER_NINE
    bad |= V
    high = bad[:, 0] | bad[:, 1]
    high |= bad[:, 2]
    high &= TOP_BITS
    plain = high == 0
    plain &= width - neg > dotted  # a digit at least
    # 8 digits per word: pairs, then groups of 4, then 8
    for shift, mask, scale in ((8, 0x00FF_00FF_00FF_00FF, 10), (16, 0x0000_FFFF_0000_FFFF, 100),
                               (32, 0xFFFF_FFFF, 10000)):
        np.right_shift(V, np.uint64(shift), out=t)
        V *= np.uint64(scale)
        V += t
        V &= np.uint64(mask)
    plain &= V[:, 0] < 1000  # D' < 10**19
    D = V[:, 0] * np.uint64(10**16)
    D += V[:, 1] * np.uint64(10**8)
    D += V[:, 2]
    # D = D' - 9 * floor(D' / 10**(f + 1)) * 10**f takes the point's 0 out
    at = np.minimum(f1, 19).view(np.int64)
    at[~dotted] = 19
    whole = D // INT_POW10[at]
    at -= 1
    np.maximum(at, 0, out=at)
    whole *= INT_POW10[at]
    whole *= np.uint64(9)
    D -= whole
    D[~plain] = 0
    x, unsettled = _quotients(D, f1.view(np.int64) - dotted)
    x.view(np.uint64)[neg] |= np.uint64(1 << 63)
    for i in np.flatnonzero(unsettled | ~plain).tolist():
        text = u[starts[i] : ends[i]].tobytes()
        if text.translate(None, FLOAT_CHARS):
            return None
        try:
            x[i] = float(text)
        except ValueError:
            return None
    return x.reshape(rows, cols)


def _parse_range(raw: bytearray) -> list[np.ndarray] | None:
    """The rows of ``raw[FIELD:]``, whole lines, as ``_parse_block`` parses
    them, PARSE_BLOCK bytes of whole lines at a time; None where a block is
    left to np.loadtxt or blocks disagree on the column count.  A newline is
    appended to ``raw`` where its last line has none."""
    if raw[-1] != ord("\n"):
        raw.append(ord("\n"))
    u = np.frombuffer(raw, dtype=np.uint8)
    windows = np.ndarray((len(raw) - FIELD + 1,), dtype=f"V{FIELD}", buffer=raw, strides=(1,))
    blocks = []
    start = FIELD
    while start < len(raw):
        stop = raw.find(b"\n", start + PARSE_BLOCK - 1) + 1 or len(raw)
        block = _parse_block(u, windows, start, stop)
        if block is None or (blocks and block.shape[1] != blocks[0].shape[1]):
            return None
        blocks.append(block)
        start = stop
    return blocks


def _parse_lines(pipe, bounds: tuple[int, int], path: Path) -> None:
    # bytes [start, stop) of path are whole lines; a range that the kernel
    # leaves is decoded with the encoding and universal newlines np.loadtxt(path)
    # uses
    start, stop = bounds
    raw = bytearray(FIELD + stop - start)
    with open(path, "rb") as fh:
        fh.seek(start)
        got = fh.readinto(memoryview(raw)[FIELD:])
    del raw[FIELD + got :]  # a file cut short since its size was taken
    blocks = _parse_range(raw) if got else None
    if blocks is None:
        warnings.simplefilter("ignore")  # loadtxt warns on a range with no data
        text = io.TextIOWrapper(io.BytesIO(raw[FIELD : FIELD + got]))
        blocks = [np.ascontiguousarray(np.loadtxt(text, **MATRIX_READ))]
    pipe.write(struct.pack("<2q", sum(len(block) for block in blocks), blocks[0].shape[1]))
    for block in blocks:
        pipe.write(block.data)


def _read_forked(path: Path, meanwhile) -> np.ndarray | None:
    """``read_matrix`` on forked workers, each parsing one range of whole
    lines, while the caller runs ``meanwhile()``; None when one worker
    suffices, when a range gets no child, or when any child fails, parses
    no row or disagrees on the column count."""
    size = path.stat().st_size
    count = _workers(size, size)  # a range holds at least one line
    if count < 2:
        return None
    # each range ends just past the first newline at or after its share
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
        cuts = {text.find(b"\n", size * i // count) + 1 or size for i in range(1, count)}
    bounds = sorted(cuts | {0, size})
    if len(bounds) < 3:  # one line
        return None
    ranges = list(zip(bounds, bounds[1:]))
    with workers.forked(_parse_lines, ranges, path) as children:
        meanwhile()
        if len(children) < len(ranges):
            return None
        shapes = []
        for child in children:
            header = bytearray(16)
            if not workers.read_into(child.pipe, header):
                return None
            shapes.append(struct.unpack("<2q", header))
        if len({cols for _, cols in shapes}) != 1 or any(rows < 1 for rows, _ in shapes):
            return None
        out = np.empty((sum(rows for rows, _ in shapes), shapes[0][1]))
        row = 0
        for child, (rows, _) in zip(children, shapes):
            if not (workers.read_into(child.pipe, out[row : row + rows]) and child.join()):
                return None
            row += rows
        return out


# The sidecar of a matrix file: SIDECAR_FIELDS (the magic, the version, the
# SHA-256 of the matrix file's bytes, rows and cols), the SHA-256 of those
# fields and the payload, then the payload: the parsed float64 array,
# little-endian and row-major.  Its size follows from the fields, and the
# second digest covers the shape as well as the values.
SIDECAR_FIELDS = struct.Struct("<8sQ32sqq")
SIDECAR_HEADER = SIDECAR_FIELDS.size + 32
SIDECAR_MAGIC = b"jcmspl\x00p"
SIDECAR_VERSION = 1


def _sidecar_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.parsed")


def _sha256(path: Path) -> bytes | None:
    """SHA-256 of the file's bytes, hashed through ``mmap`` so that no Python
    buffer holds them; None where the file cannot be mapped (it is empty,
    say, or gone)."""
    try:
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
            return hashlib.sha256(text).digest()
    except (OSError, ValueError):
        return None


def _identity(path: Path) -> tuple[int, int, int]:
    info = os.stat(path)
    return info.st_size, info.st_mtime_ns, info.st_ino


def _read_sidecar(sidecar: Path, digest) -> np.ndarray | None:
    """The array kept in ``sidecar``; None unless it is a regular file whose
    size matches its fields, checked before anything is allocated, and
    whose two digests hold: the matrix file's, ``digest()``, and the one of
    the fields and the payload."""
    try:
        # a FIFO opened without O_NONBLOCK would wait for a writer
        with open(os.open(sidecar, os.O_RDONLY | os.O_NONBLOCK), "rb", buffering=0) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_size < SIDECAR_HEADER:
                return None
            fields = fh.read(SIDECAR_FIELDS.size)
            check = fh.read(32)
            magic, version, source, rows, cols = SIDECAR_FIELDS.unpack(fields)
            if ((magic, version) != (SIDECAR_MAGIC, SIDECAR_VERSION) or min(rows, cols) < 1
                    or info.st_size != SIDECAR_HEADER + 8 * rows * cols
                    or source != digest()):
                return None
            kept = np.empty((rows, cols), dtype="<f8")
            if not workers.read_into(fh, kept):
                return None
    except (OSError, struct.error):  # struct.error: a file cut short while read
        return None
    actual = hashlib.sha256(fields)
    actual.update(kept)
    return kept.astype(np.float64, copy=False) if actual.digest() == check else None


def _write_sidecar(path: Path, before: tuple[int, int, int], source: bytes | None,
                   parsed: np.ndarray) -> None:
    """Keep ``parsed``, the parse of ``path``'s bytes with SHA-256 ``source``,
    in its sidecar: written to a temporary file in the same directory, then
    renamed over it.  Nothing is kept of an empty parse, or when the file's
    size, mtime or inode differs from ``before``, taken ahead of the parse;
    on any OSError nothing is kept and no temporary file stays."""
    try:
        if source is None or parsed.size == 0 or _identity(path) != before:
            return
        payload = np.ascontiguousarray(parsed, dtype="<f8")
        fields = SIDECAR_FIELDS.pack(SIDECAR_MAGIC, SIDECAR_VERSION, source, *payload.shape)
        check = hashlib.sha256(fields)
        check.update(payload)
        sidecar = _sidecar_path(path)
        fd, temp = tempfile.mkstemp(prefix=f"{sidecar.name}.", dir=path.parent)
        try:
            with open(fd, "wb") as fh:
                fh.write(fields)
                fh.write(check.digest())
                fh.write(payload)
            os.replace(temp, sidecar)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError:
        pass


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated numeric matrix.

    A file of at least 2 * PARALLEL_MIN_BYTES is parsed by forked workers,
    one range of whole lines each, into one array.  Should a range get no
    worker, or any worker fail, the file is read again serially, which
    raises every error.

    The parse of an uncompressed file is kept in its sidecar,
    ``.<name>.parsed`` in the same directory (``_write_sidecar``).  A later
    read returns the sidecar's array instead, bit for bit the parse, when
    its digests show that it was parsed from the file's current bytes."""
    path = Path(path)
    if not path.is_file() or path.suffix in COMPRESSED_SUFFIXES:
        return _loadtxt(path, "matrix", **MATRIX_READ)
    before = _identity(path)
    digest = functools.cache(lambda: _sha256(path))
    kept = _read_sidecar(_sidecar_path(path), digest)
    if kept is not None:
        return kept
    # without a sidecar the caller hashes the file while the workers parse it
    parsed = _read_forked(path, digest)
    if parsed is None:
        parsed = _loadtxt(path, "matrix", **MATRIX_READ)
    _write_sidecar(path, before, digest(), parsed)
    return parsed


# ``_write_rows`` formats BLOCK values at a time.  Each value gets a record of
# RECORD bytes, five little-endian words, NUL wherever it has no character:
#   byte 0          '-' for a negative value
#   bytes 1-5       "0." and the zeros after the point, right-aligned, for e < 0
#   byte 6 + 2i     digit i of the 17 significant digits, i = 0..16
#   byte 7 + 2i     '.' after digit i = e (0 <= e <= 14)
#   byte 39         ',' or, at the end of a row, '\n'
# Digits past the last nonzero one, and a point with no digit after it, are
# cleared: that is %g's layout.  One bytes.translate drops every NUL.
BLOCK = 2048
RECORD = 40
NEWLINE_FLIP = np.uint64((ord(",") ^ ord("\n")) << 56)  # flips byte 39 of a record


def _text_tables():
    groups = np.arange(10000)
    digits = [groups // 10 ** (3 - k) % 10 for k in range(4)]
    # 4-digit group -> its digits at bytes 0, 2, 4 and 6 of a word
    group_text = sum((d + ord("0")).astype(np.uint64) << np.uint64(16 * k)
                     for k, d in enumerate(digits))
    last = np.zeros(10000, dtype=np.intp)
    for k, d in enumerate(digits):
        last[d != 0] = k + 1
    # group j holds digits 4j+1..4j+4: the index of its last nonzero one, 0 if none
    last_nonzero = np.stack([np.where(groups != 0, 4 * j + last, 0) for j in range(4)])
    layout = np.zeros((19, RECORD), dtype=np.uint8)  # row e + 4, e = -4..14
    for e, row in zip(range(-4, 15), layout):
        if e < 0:
            prefix = b"0." + b"0" * (-e - 1)
            row[6 - len(prefix) : 6] = list(prefix)
        else:
            row[7 + 2 * e] = ord(".")
        row[RECORD - 1] = ord(",")
    keep = np.zeros((17, RECORD), dtype=np.uint8)  # row K: bytes through digit K
    for K, row in enumerate(keep):
        row[: 7 + 2 * K] = 0xFF
        row[RECORD - 1] = 0xFF
    return (group_text, last_nonzero, layout.view(f"V{RECORD}").ravel(),
            np.ascontiguousarray(keep.view("<u8").T))


GROUP_TEXT, LAST_NONZERO, LAYOUT, KEEP = _text_tables()
LEADING_TEXT = (np.arange(10, dtype=np.uint64) + np.uint64(ord("0"))) << np.uint64(48)  # byte 6
# at e + 4: 10**s and 5**s for s = 16 - e, both exact
POW10 = 10.0 ** np.arange(20, 1, -1)
POW5 = np.array([5**s for s in range(20, 1, -1)], dtype=np.uint64)
HALF = np.array([0] + [1 << (r - 1) for r in range(1, 64)], dtype=np.int64)  # 2**(r-1) at r


def _records(x: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """Fill ``rec`` (len(x) x 5 words) with the records of the float64 vector
    ``x``, each ending in ','; return the indices of the values that this
    kernel does not format (their records are left to the caller).

    It formats +-0 and the x with 1e-4 <= |x| < 1e15.  With e = floor(log10
    |x|) and s = 16 - e, the 17 digits are D = |x| * 10**s rounded half to
    even, as Python's correctly rounded %-format rounds.  The float64
    product D~ is within 9 of |x| * 10**s, since 10**s is exact.  With
    |x| = f * 2**q, the scaled value is V / 2**r for V = f * 5**s and
    1 <= r = -(q + s) <= 46, so the error V - D~ * 2**r fits in 63 bits,
    and uint64 arithmetic, which wraps, gives it exactly: its top bits
    correct D~ and its low r bits round.  Where np.log10 misjudges e next
    to a power of ten, D comes out at most 10**16 (e one too large) or at
    least 10**17 (one too small), so every D outside (10**16, 10**17) is
    left to the caller; of the values whose e is right, at most one per
    power of ten, the double nearest it, has D = 10**16."""
    mag = x.view(np.uint64) & np.uint64(0x7FFF_FFFF_FFFF_FFFF)
    ax = mag.view(np.float64)
    zero = mag == 0
    # values out of range (nan too) are estimated as 1.0, never themselves:
    # its D = 10**16 leaves them to the caller
    np.copyto(ax, 1.0, where=(ax < 1e-4) | ~(ax < 1e15))
    e = np.log10(ax)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    np.minimum(e, 14, out=e)
    np.maximum(e, -4, out=e)
    e += 4
    D = (ax * POW10[e]).astype(np.uint64)
    r = (mag >> np.uint64(52)).view(np.int64)  # the biased exponent
    np.subtract(1055, r, out=r)
    r += e  # r = 1075 - exponent - s
    mag &= np.uint64((1 << 52) - 1)
    mag |= np.uint64(1 << 52)  # f
    mag *= POW5[e]
    mag -= D << r.view(np.uint64)
    error = mag.view(np.int64)
    top = error >> r
    D = D.view(np.int64)
    D += top
    top <<= r
    error -= top  # the low r bits
    error += D & 1  # a tie goes to the even D
    D += error > HALF[r]
    del mag, ax, error, top, r
    slow = np.flatnonzero(~(zero | ((D > 10**16) & (D < 10**17))))
    np.putmask(D, zero, 0)
    D[slow] = 0  # keeps every table index below in range

    # digit 0, then four groups of 4 digits
    leading = D // 10**16
    D -= leading * 10**16
    high = D // 10**8
    D -= high * 10**8
    groups = [high // 10**4, high, D // 10**4, D]
    groups[1] -= groups[0] * 10**4
    groups[3] -= groups[2] * 10**4
    np.take(LAYOUT, e, out=rec.view(f"V{RECORD}").ravel())
    K = e - 4  # the last digit kept: digit e, or the last nonzero digit after it
    for last_nonzero, g in zip(LAST_NONZERO, groups):
        np.maximum(K, last_nonzero[g], out=K)
    rec[:, 0] |= LEADING_TEXT[leading]
    rec[:, 0] |= (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    for word, g in zip(rec.T[1:], groups):
        word |= GROUP_TEXT[g]
    for word, keep in zip(rec.T, KEEP):
        word &= keep[K]
    return slow


def _write_rows(fh, M: np.ndarray) -> None:
    """``np.savetxt(fh, M, delimiter=",", fmt="%.17g")`` byte for byte into
    the binary file ``fh``.  %.17g round-trips float64 exactly.

    Pieces of at most BLOCK values (whole rows, or part of a row longer
    than BLOCK) are formatted by ``_records`` into one buffer of records;
    the values it leaves, such as subnormals, +-1e300 and nan, each take
    ``b"%.17g" % v`` in their own record."""
    if M.ndim == 1:  # savetxt writes a vector as a column
        M = M[:, None]
    rows, cols = M.shape
    if cols == 0:
        fh.write(b"\n" * rows)
        return
    if cols <= BLOCK:
        pieces = ((M[start : start + BLOCK // cols], True)
                  for start in range(0, rows, BLOCK // cols))
    else:
        pieces = ((M[row, None, start : start + BLOCK], start + BLOCK >= cols)
                  for row in range(rows) for start in range(0, cols, BLOCK))
    buf = bytearray(RECORD * min(BLOCK, M.size))
    for piece, row_end in pieces:
        x = np.ascontiguousarray(piece).ravel()
        n = x.size
        rec = np.frombuffer(buf, dtype=np.uint64, count=5 * n).reshape(n, 5)
        slow = _records(x, rec)
        if row_end:
            width = piece.shape[1]
            rec[width - 1 :: width, 4] ^= NEWLINE_FLIP
        rec[slow, :4] = 0
        rec[slow, 4] &= np.uint64(0xFF << 56)
        for i, value in zip(slow.tolist(), x[slow].tolist()):
            text = b"%.17g" % value
            buf[RECORD * i : RECORD * i + len(text)] = text
        fh.write((buf if len(buf) == RECORD * n else buf[: RECORD * n]).translate(None, b"\0"))


def _format_rows(pipe, rows: np.ndarray) -> None:
    # formatted whole before any byte is sent: a child writing straight into
    # the pipe would stall on its 64 KB buffer while the caller formats its rows
    text = io.BytesIO()
    _write_rows(text, rows)
    pipe.write(text.getbuffer())


def write_matrix(path, M) -> None:
    """Write a matrix as headerless comma-separated ``%.17g`` text.

    A matrix of at least 2 * PARALLEL_MIN_BYTES is formatted by forked
    workers, one range of rows each: the caller formats the first into
    ``path`` while each child formats another and sends it through its
    pipe, and the caller appends them in order.  The caller formats itself
    any range that no child took or delivered."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim not in (1, 2):  # as np.savetxt refuses it
        raise ShapeMismatchError(f"a matrix to write must be 1-D or 2-D, got ndim={M.ndim}")
    count = _workers(M.shape[0] if M.ndim == 2 else 1, M.nbytes)
    head, *rest = [M[start:stop] for start, stop in block_partition(M.shape[0], count)]
    with open(path, "wb") as out, workers.forked(_format_rows, rest) as children:
        _write_rows(out, head)
        for rows, child in itertools.zip_longest(rest, children):
            if child is not None:
                start = out.tell()
                shutil.copyfileobj(child.pipe, out)
                if child.join():
                    continue
                out.seek(start)
                out.truncate()
            _write_rows(out, rows)


def read_labels(path) -> np.ndarray:
    return _loadtxt(path, "label", dtype=np.int64, ndmin=1)


def write_labels(path, labels) -> None:
    """Write labels one ``%d`` per line, ``np.savetxt``'s bytes from one
    format for the whole vector."""
    labels = np.asarray(labels, dtype=np.int64)
    Path(path).write_bytes(b"%d\n" * labels.size % tuple(labels.tolist()))


def write_json(path, payload) -> None:
    """Write a report or manifest as JSON: sorted keys, an indent of 2 and
    a final newline."""
    Path(path).write_bytes(json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%d" % value if isinstance(value, int) else "%.17g" % value


def write_table(path, header, rows) -> None:
    """Write a header and rows as comma-separated text with ``\\n`` after
    every line: a str cell as it is, None as an empty cell, an integer as
    ``%d`` and any other number as ``%.17g``.  No cell may hold a comma."""
    lines = [header, *([_cell(value) for value in row] for row in rows)]
    Path(path).write_bytes("".join(",".join(line) + "\n" for line in lines).encode())


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
    # a block at a time: no boolean as large as the matrix
    if not all(np.isfinite(block).all() for block in _narrow_blocks(arr)):
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
    return arr.astype(np.int64, copy=False)


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
    write_json(manifest_path, spec)
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


def _narrow_blocks(M: np.ndarray):
    """Views of ``M``'s columns in blocks of NARROW, the last of two to
    NARROW + 1 columns (one view of M when it has one column or none)."""
    # numpy sums a lone column pairwise, not down the rows, so a last block
    # of one column joins the one before
    bounds = [*range(0, max(M.shape[1] - 1, 1), NARROW), M.shape[1]]
    for start, stop in zip(bounds, bounds[1:]):
        yield M[:, start:stop]


def column_norms(M: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(M, axis=0)`` of a 2-D float64 array, bit for bit,
    with no temporary wider than NARROW + 1 columns."""
    return np.sqrt(np.concatenate([np.add.reduce(B * B, axis=0) for B in _narrow_blocks(M)]))


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
    norms = column_norms(M)
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
