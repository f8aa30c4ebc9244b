"""The forked matrix reader and writer give np.loadtxt's and np.savetxt's
results, bit for bit and byte for byte, and leave nothing behind."""

import io
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from forked import child_left, forked_io
from jcmspl import dataset
from jcmspl.errors import DatasetError

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.one_of(st.sampled_from(EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False)),
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
def test_forked_read_is_loadtxt_bit_for_bit(M, cores, newline, final_newline, extra_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(csv_text(M, newline, final_newline, extra_lines).encode())
        expected = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        with forked_io(cores) as forks:
            got = dataset.read_matrix(path)
        assert got.shape == expected.shape == M.shape
        assert got.tobytes() == expected.tobytes() == M.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert len(forks) >= (2 if M.shape[0] > 1 else 0)


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
