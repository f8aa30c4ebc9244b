"""Test-session settings.

jcmspl's matrix products are small, so a BLAS worker thread gains little
and, on a host whose cores are busy, makes each call wait for a core:
the timing test in ``test_acceptance.py`` then reads noise.  One BLAS
thread is pinned here, before numpy is first imported, as
``perfbench/run.py`` pins it for the benchmark.

Large matrix files are read and written by forked workers
(``jcmspl.dataset.PARALLEL_MIN_BYTES``).  Every test must leave no child
process and no part file beside a matrix it wrote.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from forked import child_left  # noqa: E402
from jcmspl import dataset  # noqa: E402


@pytest.fixture(autouse=True)
def no_worker_left_behind(monkeypatch):
    written = []
    write_matrix = dataset.write_matrix

    def recording_write_matrix(path, M):
        written.append(Path(path))
        write_matrix(path, M)

    monkeypatch.setattr(dataset, "write_matrix", recording_write_matrix)
    yield
    left = child_left()
    assert left is None, f"the test left a child process behind: waitpid gave {left}"
    parts = [part for path in written for part in path.parent.glob(f".{path.name}.*.part")]
    assert not parts, f"the test left part files behind: {parts}"
