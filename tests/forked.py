"""Helpers for tests of the forked matrix reader and writer, and of the
forked ``jcmspl ablate``."""

import contextlib
import os

import pytest

from jcmspl import dataset, workers


def _count_forks(mp, forks):
    fork = workers._fork

    def counting_fork(work, *args, **kwargs):
        forks.append(work.__name__)
        return fork(work, *args, **kwargs)

    mp.setattr(workers, "_fork", counting_fork)


@contextlib.contextmanager
def forked_io(cores: int = 2):
    """Within the block every matrix file of two lines or more, and every
    array of two rows or more, is split across up to ``cores`` forked
    workers, however small.  Yields a list that gets one entry per fork."""
    forks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "PARALLEL_MIN_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        _count_forks(mp, forks)
        yield forks


@contextlib.contextmanager
def forked_ablate(workers: int):
    """Within the block ``jcmspl ablate`` runs its variants in ``workers``
    processes, the caller and ``workers - 1`` forked children (1: serial),
    whatever the host's core count.  Yields a list that gets one entry per
    fork."""
    forks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        _count_forks(mp, forks)
        yield forks


def child_left():
    """What ``waitpid`` reports of a child of this process; None when there
    is no child at all."""
    try:
        return os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None


def drop_sidecars(directory):
    """Delete the sidecar of every matrix file in ``directory`` (a Path), so
    that the next read of each file parses it."""
    for path in directory.glob(".*.parsed"):
        path.unlink()
