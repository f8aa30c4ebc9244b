"""Helpers for tests of the forked matrix reader and writer."""

import contextlib
import os

import pytest

from jcmspl import dataset


@contextlib.contextmanager
def forked_io(cores: int = 2):
    """Within the block every matrix file of two lines or more, and every
    array of two rows or more, is split across up to ``cores`` forked
    workers, however small.  Yields a list that gets one entry per fork."""
    forks = []
    fork = dataset._fork

    def counting_fork(work, *args):
        forks.append(work.__name__)
        return fork(work, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "PARALLEL_MIN_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        mp.setattr(dataset, "_fork", counting_fork)
        yield forks


def child_left():
    """What ``waitpid`` reports of a child of this process; None when there
    is no child at all."""
    try:
        return os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
