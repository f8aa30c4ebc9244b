"""The forked matrix reader and writer give np.loadtxt's and np.savetxt's
results, bit for bit and byte for byte, and leave nothing behind; the
reader's sidecar returns its parse, bit for bit, and only for the bytes it
was parsed from."""

import contextlib
import errno
import io
import os
import signal
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from forked import child_left, drop_sidecars, forked_io
from jcmspl import dataset
from jcmspl.errors import DatasetError, ShapeMismatchError
from malformed import CODECS

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
# raw 64-bit patterns of either sign whose exponent is one of the %.17g
# kernel's (the binades from 2**-14 to 2**49, which hold 1e-4 and 1e15)
KERNEL_BITS = st.tuples(st.integers(1009 << 52, (1073 << 52) - 1), st.booleans()).map(
    lambda bits: float(np.uint64(bits[0] | bits[1] << 63).view(np.float64)))
# powers of two and the doubles beside them, where the spacing of doubles
# halves below: the parse kernel's F = 2**52 edge
BINADE_EDGES = [float(v) for k in range(-40, 64, 3)
                for v in (2.0**k, np.nextafter(2.0**k, 0.0), np.nextafter(2.0**k, np.inf))]
matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.one_of(st.sampled_from(EXTREMES), st.sampled_from(BINADE_EDGES),
                       st.floats(allow_nan=False, allow_infinity=False), KERNEL_BITS),
)


def savetxt_bytes(M) -> bytes:
    out = io.BytesIO()
    np.savetxt(out, M, delimiter=",", fmt="%.17g")
    return out.getvalue()


def read_outcome(path):
    """``read_matrix``'s array (shape and bits), or its error (type and
    message)."""
    try:
        M = dataset.read_matrix(path)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return M.shape, M.tobytes()


@contextlib.contextmanager
def parses():
    """Within the block, a list that gets the name of each file that
    ``read_matrix`` parses; a read that returns a sidecar's array adds none."""
    names, read_forked = [], dataset._read_forked

    def counting(path, meanwhile):
        names.append(path.name)
        return read_forked(path, meanwhile)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_read_forked", counting)
        yield names


def csv_text(M, newline="\n", final_newline=True, extra_lines=()) -> str:
    """M as %.17g CSV text, with ``(index, line)`` pairs of ``extra_lines``
    inserted among its rows."""
    lines = [",".join("%.17g" % v for v in row) for row in M]
    for index, line in extra_lines:
        lines.insert(index % (len(lines) + 1), line)
    return newline.join(lines) + (newline if final_newline else "")


@SETTINGS
@given(M=matrices, cores=st.integers(2, 5))
@example(M=np.array([EXTREMES]), cores=2)  # one row: written serially
@example(M=np.array([EXTREMES]).T, cores=3)  # one column
@example(M=np.eye(2), cores=5)  # fewer rows than workers
def test_forked_write_is_savetxt_byte_for_byte(M, cores):
    with tempfile.TemporaryDirectory() as tmp, forked_io(cores) as forks:
        path = Path(tmp) / "m.csv"
        dataset.write_matrix(path, M)
        assert path.read_bytes() == savetxt_bytes(M)
        assert len(forks) == min(cores, M.shape[0]) - 1
        assert os.listdir(tmp) == ["m.csv"]


# where the %.17g kernel of the writer can break: ties rounded half to even
# (down to 0.50000381469726562, up to 0.50001144409179688), integral values,
# the ends of its range [1e-4, 1e15), both neighbours of every power of ten
# around it, and the first and last double of each binade in it
KERNEL_EDGES = [131073 * 2.0**-18, 131075 * 2.0**-18, 123456789.0, 1e14, 1e-4, 1e15,
                *(np.nextafter(10.0**k, to) for k in range(-5, 17) for to in (0.0, np.inf)),
                *(v for p in range(-13, 49) for v in (2.0**p, np.nextafter(2.0 ** (p + 1), 0.0)))]
WRITER_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1e300, 1e-300,
                 -1e-300, 1.0, -3.0, 2.0**53, 1e22, 0.1, np.nan, np.inf, -np.inf,
                 *KERNEL_EDGES, *(-v for v in KERNEL_EDGES)]


@pytest.mark.parametrize("shape", [(0, 3), (1, 16), (16, 1), (3, dataset.CHUNK + 5), (16,),
                                   (0,)])
@pytest.mark.parametrize("cores", [1, 3])
def test_write_matrix_and_write_labels_are_savetxt_byte_for_byte(tmp_path, shape, cores):
    # 0 rows, 1 row, 1 column, more than CHUNK columns, and a vector, which
    # savetxt writes as a column; signed zeros, subnormals, +-1e+-300,
    # integral floats and non-finite values; serially and on forked workers
    values = np.resize(WRITER_VALUES, shape)
    with forked_io(cores):
        dataset.write_matrix(tmp_path / "m.csv", values)
    assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(values)
    labels = np.resize(np.array([0, -1, 7, 2**63 - 1, -(2**63)]), shape[:1])
    dataset.write_labels(tmp_path / "l.csv", labels)
    out = io.BytesIO()
    np.savetxt(out, labels, fmt="%d")
    assert (tmp_path / "l.csv").read_bytes() == out.getvalue()


@pytest.mark.parametrize("layout", ["C", "F", "column_slice"])
@pytest.mark.parametrize("shape", [(3, 2 * dataset.BLOCK + 3), (dataset.BLOCK + 7, 3),
                                   (5, dataset.BLOCK), (2, dataset.BLOCK // 2 + 1)])
def test_blocks_split_rows_as_savetxt_does(shape, layout):
    # rows longer than a block, blocks of whole rows that end mid-matrix, a
    # row of exactly one block, and every layout, with fast and fallback
    # values mixed in each row
    M = np.resize(WRITER_VALUES, (shape[0], 2 * shape[1]))
    M = {"C": M[:, : shape[1]].copy(), "F": np.asfortranarray(M[:, : shape[1]]),
         "column_slice": M[:, ::2]}[layout]
    out = io.BytesIO()
    dataset._write_rows(out, M)
    assert out.getvalue() == savetxt_bytes(M)


@pytest.mark.parametrize("shape", [(), (2, 2, 2), (1, 1, 1, 1)])
def test_an_array_neither_1d_nor_2d_is_refused_before_anything_is_opened(tmp_path, shape):
    with forked_io(3) as forks, pytest.raises(ShapeMismatchError, match=f"ndim={len(shape)}"):
        dataset.write_matrix(tmp_path / "m.csv", np.zeros(shape))
    assert forks == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("shape, limit", [((50, 500), 0.4e6), ((256, 8000), 0.76e6)])
def test_write_matrix_holds_a_block_of_text_not_a_row(tmp_path, shape, limit):
    # the default synth's visual_seen (written serially) and the large one's
    # (its first half formatted here, the rest on a forked worker where the
    # host has two cores): the kernel's buffers are per block, whatever the
    # width of a row (the row-at-a-time writer held 0.76 MB at 256 x 8000)
    M = np.random.default_rng(0).standard_normal(shape) / 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dataset.write_matrix(tmp_path / "m.csv", M)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def read_forks(text: bytes, cores: int) -> int:
    """The children the forked reader starts for a file of bytes ``text`` on
    ``cores`` workers, by its cut rule: range i of ``count`` ends just past
    the first newline at or after byte ``size * i // count``, or at the end
    of the file where there is none, and a file cut into fewer than two
    ranges is read serially."""
    size = len(text)
    count = min(cores, size)
    cuts = {text.find(b"\n", size * i // count) + 1 or size for i in range(1, count)}
    ranges = len(cuts | {0, size}) - 1
    return ranges if ranges >= 2 else 0


@SETTINGS
@given(M=matrices, cores=st.integers(2, 5), newline=st.sampled_from(["\n", "\r\n"]),
       final_newline=st.booleans(),
       extra_lines=st.lists(st.tuples(st.integers(0, 10),
                                      st.sampled_from(["", "# a comment", "#,1,2"])),
                            max_size=4))
@example(M=np.array([EXTREMES]), cores=2, newline="\n", final_newline=True,
         extra_lines=[])  # one row: read serially
@example(M=np.array([EXTREMES]).T, cores=3, newline="\r\n", final_newline=False,
         extra_lines=[])  # one column
@example(M=np.eye(2), cores=5, newline="\n", final_newline=True,
         extra_lines=[])  # fewer rows than workers
@example(M=np.array([[1.0], [EXTREMES[3]]]), cores=2, newline="\n", final_newline=False,
         extra_lines=[])  # the second half is one line with no newline: read serially
def test_forked_read_is_loadtxt_bit_for_bit(M, cores, newline, final_newline, extra_lines):
    text = csv_text(M, newline, final_newline, extra_lines).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text)
        expected = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        with forked_io(cores) as forks:
            got = dataset.read_matrix(path)
        assert got.shape == expected.shape == M.shape
        assert got.tobytes() == expected.tobytes() == M.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert len(forks) == read_forks(text, cores)


@SETTINGS
@given(M=matrices, cores=st.integers(1, 3))
@example(M=np.array([EXTREMES]), cores=1)
@example(M=np.array([EXTREMES]).T, cores=3)
def test_a_kept_parse_is_returned_bit_for_bit(M, cores):
    # -0.0, subnormals and the largest floats among them; parsed serially
    # or on forked workers
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(savetxt_bytes(M))
        with forked_io(cores):
            parsed = dataset.read_matrix(path)
        assert sorted(os.listdir(tmp)) == [".m.csv.parsed", "m.csv"]
        with parses() as names:
            kept = dataset.read_matrix(path)
        assert names == []
        assert kept.shape == parsed.shape == M.shape
        assert kept.tobytes() == parsed.tobytes() == M.tobytes()
        assert kept.dtype == np.float64 and kept.flags.c_contiguous and kept.flags.writeable


@pytest.mark.parametrize("cores", [2, 3])
def test_blank_lines_at_a_range_boundary_read_alike(tmp_path, cores):
    # the data rows sit in the first range and the others hold only blank
    # lines: a worker that parses no row sends the read back to np.loadtxt
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n" + "\n" * 64 + "5,6\n" + "\n" * 64)
    with forked_io(cores) as forks:
        got = dataset.read_matrix(path)
    assert forks
    assert got.tobytes() == np.array([[1.0, 2], [3, 4], [5, 6]]).tobytes()


@pytest.mark.parametrize("line", [0, 5, 11])
@pytest.mark.parametrize("bad", ["x,1,2", "1,2", "1,2,3,4", "\xff,1,2"])
def test_a_worker_parse_error_is_the_serial_error(tmp_path, line, bad):
    # a non-numeric cell, a short row, a long row and a byte that is no
    # UTF-8, in the first, a middle and the last range
    path = tmp_path / "m.csv"
    lines = ["1,2,3"] * 12
    lines[line] = bad
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    serial = read_outcome(path)
    assert serial[0] is DatasetError and str(path) in serial[1]
    with forked_io(3) as forks:
        assert read_outcome(path) == serial
    assert len(forks) == 3
    assert child_left() is None


def test_ranges_that_disagree_on_the_column_count_give_the_serial_error(tmp_path):
    # each range parses on its own: 4 rows of 3 columns, then 1 row of 6
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n" * 4 + "1,2,3,4,5,6\n")
    serial = read_outcome(path)
    assert serial[0] is DatasetError
    with forked_io(2) as forks:
        assert read_outcome(path) == serial
    assert len(forks) == 2


def kernel_parse(text: str) -> np.ndarray | None:
    """The forked workers' parse of ``text``, whole lines: an array, or None
    where it leaves the range to np.loadtxt."""
    blocks = dataset._parse_range(bytearray(dataset.FIELD) + text.encode())
    return None if blocks is None else np.concatenate(blocks)


def loadtxt_text(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64, ndmin=2)


# fields outside the parse kernel's grammar: Python's float takes those
# made of FLOAT_CHARS (an exponent, a '+', a point with no digit on one
# side, overflow and underflow, a tie that the even ...992 takes, mantissas
# of 19 digits and more), and np.loadtxt the whole range of any other ('_'
# and spaces, which float also takes, and fields that are no number)
FALLBACK_FIELDS = ["1E5", "1e5", "+.5", "5.", ".5", "-0", "-.5", "1e0400", "-1e0400",
                   "1e-400", "9007199254740993", "-9007199254740993",
                   "1234567890123456789", "12345678901234567890",
                   "0.1234567890123456789", "-0.12345678901234567890", "007", "1.5e-05"]
LOADTXT_FIELDS = ["1_0", " 1", "1 ", "1.2.3", "-", ".", "--1", "1-", "1:0", "1/2", "0x10",
                  "nan", ""]


@pytest.mark.parametrize("field", FALLBACK_FIELDS + LOADTXT_FIELDS)
def test_fields_outside_the_kernel_read_as_the_serial_parse(tmp_path, field):
    path = tmp_path / "m.csv"
    lines = ["1,2,3"] * 6
    lines[3] = f"4,{field},6"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    serial = read_outcome(path)
    if field == "1_0":  # float("1_0") is 10.0
        assert serial[0] is DatasetError
    drop_sidecars(tmp_path)
    with forked_io(2) as forks:
        assert read_outcome(path) == serial
    assert len(forks) == 2
    kernel = kernel_parse(text)
    if field in LOADTXT_FIELDS:
        assert kernel is None
    else:
        assert kernel.tobytes() == loadtxt_text(text).tobytes()


def decimal_text(negative: bool, digits: str, fraction: int) -> str:
    """``digits`` with a point before the last ``fraction`` of them (zeros
    filled in after the point where there are fewer), '-' if ``negative``."""
    digits = digits.rjust(fraction, "0")
    cut = len(digits) - fraction
    return "-" * negative + digits[:cut] + ("." + digits[cut:] if fraction else "")


def scaled_text(n: int, k: int, keep: int, nudge: int) -> str:
    """n / 10**k in decimal, cut to its first ``keep`` significant digits
    and moved by ``nudge`` in the last of them."""
    drop = max(len(str(n)) - keep, 0)
    digits = str(n // 10**drop + nudge)
    return decimal_text(False, digits, k - drop) if k >= drop else digits + "0" * (drop - k)


def binary_text(n: int, e: int, keep: int, nudge: int) -> str:
    """``scaled_text`` of n * 2**e."""
    if e >= 0:
        return scaled_text(n << e, 0, keep, nudge)
    return scaled_text(n * 5**-e, -e, keep, nudge)


SIGNIFICANDS = st.one_of(st.sampled_from([2**52, 2**52 + 1, 2**53 - 1]),
                         st.integers(2**52, 2**53 - 1))
# where the kernel's exactness can break: 1 to 19 digits with a point
# anywhere (fields over FIELD bytes are np.loadtxt's); the midpoints
# (2F + 1) * 2**e between neighbouring doubles, exact and one unit in the
# last digit off, and cut to 17 to 19 digits, just below and above them;
# powers of two, where the spacing below halves, and the decimals beside them
DECIMAL_FIELDS = st.one_of(
    st.builds(decimal_text, st.booleans(), st.text("0123456789", min_size=1, max_size=19),
              st.integers(0, 27)),
    st.builds(binary_text, SIGNIFICANDS.map(lambda F: 2 * F + 1), st.integers(-4, 9),
              st.just(19), st.integers(-1, 1)),
    st.builds(binary_text, SIGNIFICANDS.map(lambda F: 2 * F + 1), st.integers(-70, 9),
              st.integers(17, 19), st.integers(0, 1)),
    st.builds(binary_text, st.just(1), st.integers(-30, 63), st.integers(17, 19),
              st.integers(-1, 1)),
)


@settings(SETTINGS, max_examples=300)
@given(fields=st.lists(DECIMAL_FIELDS, min_size=1, max_size=32))
@example(fields=["9007199254740993", "4503599627370496.5", "4503599627370497.5",
                 "0.1", "-0.0", "123456789012345678.9", ".1234567890123456789012",
                 # 23 digits after the point: 1e23 is no double
                 ".00000003229401980715162",
                 # midpoints whose estimate is the odd double below them
                 "5916394334022203.5", "4005670680742562.75"])
def test_decimal_fields_parse_as_loadtxt_bit_for_bit(fields):
    # one field per line, each parsed on its own: one that is too long
    # leaves its range to np.loadtxt
    for field in fields:
        text = field + "\n"
        kernel = kernel_parse(text)
        if len(field) > dataset.FIELD:
            assert kernel is None
        else:
            assert kernel.tobytes() == loadtxt_text(text).tobytes(), field


@SETTINGS
@given(rows=st.integers(2, 6).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(DECIMAL_FIELDS.filter(lambda f: len(f) <= dataset.FIELD),
                       st.floats(allow_nan=False, allow_infinity=False).map("%.16e".__mod__),
                       st.sampled_from(FALLBACK_FIELDS)),
             min_size=cols, max_size=cols), min_size=2, max_size=8)))
def test_rows_that_mix_kernel_and_fallback_fields_read_as_loadtxt(rows):
    text = "".join(",".join(row) + "\n" for row in rows)
    expected = loadtxt_text(text)
    assert kernel_parse(text).tobytes() == expected.tobytes()
    with tempfile.TemporaryDirectory() as tmp, forked_io(2) as forks:
        path = Path(tmp) / "m.csv"
        path.write_text(text)
        got = dataset.read_matrix(path)
    assert len(forks) == read_forks(text.encode(), 2)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_lines_and_blocks_that_disagree_on_the_column_count_go_to_loadtxt(monkeypatch):
    # np.loadtxt then raises for the range: as many fields as 3 rows of 2,
    # and blocks that each parse on their own
    assert kernel_parse("1,2\n3\n4,5,6\n") is None
    monkeypatch.setattr(dataset, "PARSE_BLOCK", 8)
    assert kernel_parse("1,2,3\n" * 4 + "1,2,3\n4,5\n") is None
    assert kernel_parse("1,2,3\n" * 4 + "1,2,3,4,5,6\n") is None
    assert kernel_parse("1,2,3\n" * 4).tobytes() == loadtxt_text("1,2,3\n" * 4).tobytes()


def test_only_fields_with_an_exponent_take_float(monkeypatch):
    # %.17g text of 1e-4 <= |x| < 1e17 is the kernel's own (the rare ties
    # and binade edges aside); a miscomputed check would send every field
    # to float, with the same bits
    calls = []
    monkeypatch.setattr(dataset, "float", lambda text: calls.append(text) or float(text),
                        raising=False)
    M = np.random.default_rng(0).standard_normal((64, 64)) / 8
    M[::7, ::5] *= 1e-6
    text = savetxt_bytes(M).decode()
    assert kernel_parse(text).tobytes() == M.tobytes()
    assert sorted(calls) == sorted(f.encode() for f in text.replace("\n", ",").split(",")
                                   if "e" in f)
    assert len(calls) > 10


def test_a_default_synth_read_holds_under_its_memory_bound(tmp_path):
    # the serial path: small_cli's largest file stays below 2 MB
    path = tmp_path / "visual_seen.csv"
    dataset.write_matrix(path, dataset.synth_generate(dataset.SynthSpec())[0].visual_seen)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dataset.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.42e6, peak


@pytest.mark.parametrize("failure", ["nothing_sent", "part_sent"])
def test_a_failed_writer_is_redone_by_the_caller_and_leaves_no_child(tmp_path, monkeypatch,
                                                                     failure):
    # a worker that fails before or while it sends its rows: the caller drops
    # what it sent and formats the rows itself
    def failing(pipe, rows):
        if failure == "part_sent":
            pipe.write(b"9,9\n")
            pipe.flush()
        raise MemoryError("no memory for the text")

    monkeypatch.setattr(dataset, "_format_rows", failing)
    path, M = tmp_path / "m.csv", np.arange(12.0).reshape(6, 2) / 7
    with forked_io(3) as forks:
        dataset.write_matrix(path, M)
    assert len(forks) == 2
    assert child_left() is None
    assert os.listdir(tmp_path) == ["m.csv"]
    assert path.read_bytes() == savetxt_bytes(M)


def test_a_write_to_a_missing_directory_forks_nothing(tmp_path):
    with forked_io(3) as forks, pytest.raises(FileNotFoundError):
        dataset.write_matrix(tmp_path / "missing" / "m.csv", np.ones((6, 2)))
    assert forks == []


def test_worker_count_follows_the_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workers = dataset._workers
    # small_cli's largest array (50 x 500) and largest CSV file stay serial
    assert workers(50, 50 * 500 * 8) == 1
    assert workers(500, 550_000) == 1
    # the 128 x 2000 visual_seen of the CLI memory test is split, as are
    # the files of the large synth
    assert workers(128, 128 * 2000 * 8) == 2
    assert workers(256, 41_000_000) == 2
    assert workers(1, 41_000_000) == 1
    with ThreadPoolExecutor(1) as pool:  # while another thread runs
        assert pool.submit(lambda: workers(256, 41_000_000)).result() == 1
    monkeypatch.delattr(os, "fork")
    assert workers(256, 41_000_000) == 1


@pytest.mark.parametrize("at", [0, 2, 6])
def test_an_edit_that_keeps_size_mtime_and_inode_is_parsed_again(tmp_path, at):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n3,4\n")
    dataset.read_matrix(path)
    before = path.stat()
    with open(path, "r+b") as fh:  # one digit, in place
        fh.seek(at)
        fh.write(b"9")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino)
    expected = np.loadtxt(path, delimiter=",", ndmin=2)
    with parses() as parsed:
        assert read_outcome(path) == ((2, 2), expected.tobytes())
    assert parsed == ["m.csv"]
    with parses() as parsed:  # and kept for the new bytes
        assert read_outcome(path) == ((2, 2), expected.tobytes())
    assert parsed == []


# sidecar bytes -> bad sidecar bytes; offsets follow dataset.SIDECAR_FIELDS
# (magic 0, version 8, source digest 16, rows 48, cols 56; check digest 64)
BAD_SIDECARS = {
    "truncated": lambda raw: raw[:-1],
    "header_only": lambda raw: raw[:dataset.SIDECAR_HEADER],
    "empty": lambda raw: b"",
    "oversized": lambda raw: raw + bytes(8),
    "wrong_magic": lambda raw: b"X" + raw[1:],
    "wrong_version": lambda raw: raw[:8] + bytes([raw[8] + 1]) + raw[9:],
    "wrong_digest": lambda raw: raw[:16] + bytes([raw[16] ^ 1]) + raw[17:],
    # 3 x 2 for 2 x 3: the size and the payload still fit
    "swapped_shape": lambda raw: raw[:48] + raw[56:64] + raw[48:56] + raw[64:],
    "flipped_payload_bit": lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
}


@pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
def test_a_bad_sidecar_is_ignored_and_rewritten(tmp_path, case):
    path, M = tmp_path / "m.csv", np.arange(6.0).reshape(2, 3) / 7
    path.write_bytes(savetxt_bytes(M))
    dataset.read_matrix(path)
    sidecar = tmp_path / ".m.csv.parsed"
    good = sidecar.read_bytes()
    sidecar.write_bytes(BAD_SIDECARS[case](good))
    with parses() as parsed:
        assert read_outcome(path) == (M.shape, M.tobytes())
    assert parsed == ["m.csv"]
    assert sidecar.read_bytes() == good
    assert sorted(os.listdir(tmp_path)) == [".m.csv.parsed", "m.csv"]


class Hung(Exception):
    """Raised by the alarm of a read that waited too long; not an OSError,
    which the reader would take for a bad sidecar."""


def _hung(signum, frame):
    raise Hung


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_a_sidecar_that_is_no_regular_file_is_ignored(tmp_path, kind):
    path = tmp_path / "m.csv"
    M = np.arange(6.0).reshape(2, 3) / 7
    path.write_bytes(savetxt_bytes(M))
    sidecar = tmp_path / ".m.csv.parsed"
    if kind == "directory":
        sidecar.mkdir()
    else:
        os.mkfifo(sidecar)
    # opening the FIFO to read would wait for a writer: the alarm fails the
    # test instead of stalling the suite
    handler = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        with parses() as parsed:
            assert read_outcome(path) == (M.shape, M.tobytes())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert parsed == ["m.csv"]
    assert sorted(os.listdir(tmp_path)) == [".m.csv.parsed", "m.csv"]
    # a FIFO is replaced by the parse; a directory, which a rename cannot
    # replace, is left as it is
    assert sidecar.is_dir() if kind == "directory" else sidecar.is_file()


@SETTINGS
@given(M=matrices,
       edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=4))
@example(M=np.array([EXTREMES]), edits=[(55, 0x40)])  # 2**62 rows
@example(M=np.array([EXTREMES]), edits=[(63, 0x80)])  # negative cols
@example(M=np.array([EXTREMES]), edits=[(48, 5), (56, 1)])  # 5 x 1 for 1 x 5
@example(M=np.array([EXTREMES]), edits=[(8, 0)])  # version 0
def test_an_edited_sidecar_reads_as_the_parse(M, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(savetxt_bytes(M))
        dataset.read_matrix(path)
        sidecar = Path(tmp) / ".m.csv.parsed"
        raw = bytearray(sidecar.read_bytes())
        for pos, value in edits:
            raw[pos % len(raw)] = value
        sidecar.write_bytes(bytes(raw))
        assert read_outcome(path) == (M.shape, M.tobytes())


@pytest.mark.parametrize("refused", ["mkstemp", "replace"])
def test_an_unwritable_directory_keeps_no_sidecar(tmp_path, monkeypatch, refused):
    # refused by the file system, as a chmod of the directory would refuse
    # any user but root
    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(tempfile if refused == "mkstemp" else os, refused, refuse)
    path, M = tmp_path / "m.csv", np.arange(6.0).reshape(2, 3) / 7
    path.write_bytes(savetxt_bytes(M))
    for _ in range(2):
        with parses() as parsed:
            assert read_outcome(path) == (M.shape, M.tobytes())
        assert parsed == ["m.csv"]
        assert os.listdir(tmp_path) == ["m.csv"]


def _grown(path, before):
    with open(path, "ab") as fh:
        fh.write(b"7,8\n")


def _retimed(path, before):
    with open(path, "r+b") as fh:
        fh.write(b"9")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1))


def _replaced(path, before):
    other = path.with_name("other.csv")
    other.write_bytes(b"9" + path.read_bytes()[1:])
    os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(other, path)


@pytest.mark.parametrize("rewrite", [_grown, _retimed, _replaced],
                         ids=["size", "mtime", "inode"])
@pytest.mark.parametrize("parse", ["_loadtxt", "_read_forked"])
def test_a_file_rewritten_during_the_parse_is_not_kept(tmp_path, monkeypatch, rewrite,
                                                       parse):
    # each rewrite changes one of size, mtime and inode, after the parse
    # read the file; it is forked where the forked reader parses
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n3,4\n5,6\n")
    before, original = path.stat(), getattr(dataset, parse)

    def rewriting(*args, **kwargs):
        parsed = original(*args, **kwargs)
        rewrite(path, before)
        return parsed

    monkeypatch.setattr(dataset, parse, rewriting)
    with forked_io(3 if parse == "_read_forked" else 1):
        got = dataset.read_matrix(path)
    assert got.tobytes() == np.array([[1.0, 2], [3, 4], [5, 6]]).tobytes()
    assert os.listdir(tmp_path) == ["m.csv"]
    monkeypatch.undo()
    now = np.loadtxt(path, delimiter=",", ndmin=2)
    assert read_outcome(path) == (now.shape, now.tobytes())


@pytest.mark.parametrize("text", [b"", b"\n", b"# a comment\n"])
def test_a_file_without_data_gets_no_sidecar(tmp_path, text):
    # every read warns, as np.loadtxt does
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    for _ in range(2):
        with pytest.warns(UserWarning, match="input contained no data"):
            assert dataset.read_matrix(path).shape == (0, 1)
    assert os.listdir(tmp_path) == ["m.csv"]


@pytest.mark.parametrize("suffix", sorted(CODECS))
def test_a_compressed_file_gets_no_sidecar(tmp_path, suffix):
    M = np.arange(6.0).reshape(2, 3) / 7
    path = tmp_path / f"m.csv{suffix}"
    path.write_bytes(CODECS[suffix](savetxt_bytes(M)))
    for _ in range(2):
        assert read_outcome(path) == (M.shape, M.tobytes())
    assert os.listdir(tmp_path) == [path.name]
