"""The shared forked-worker lifecycle: where children run, and that a fork
that fails leaves every command as its serial run; and the contract of the
pinned helper thread, ``beside``."""

import errno
import os
import threading
import time

import numpy as np
import pytest

from forked import child_left, drop_sidecars, forked_ablate, forked_io
from jcmspl import workers
from jcmspl.cli import main


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no core placement")
def test_as_many_children_as_cores_cover_every_core_with_the_callers_last(monkeypatch):
    # a read forks one child per core while the caller waits: children
    # kept off the caller's core would share the others and run in turn
    usable = os.sched_getaffinity(0)
    current = max(usable)
    os.sched_setaffinity(0, {current})  # this thread now runs on `current`
    try:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(current + 3)))
        placed = workers.cores(current + 3)
        fewer = workers.cores(2)
    finally:
        os.sched_setaffinity(0, usable)
    others = [core for core in range(current + 3) if core != current]
    assert placed == [*others, current]
    assert fewer == others[:2]


def test_beside_returns_both_results_and_runs_there_on_a_pinned_thread():
    pinned = []

    def there():
        pinned.append(threading.current_thread() is not threading.main_thread()
                      and len(os.sched_getaffinity(0)) == 1)
        return "there"

    assert workers.beside(2, lambda: "here", there) == ("here", "there")
    assert pinned == [workers.count(2) == 2]


@pytest.mark.parametrize("no_thread", ["one_unit", "start_fails"])
def test_beside_runs_here_then_there_inline_without_a_thread(monkeypatch, no_thread):
    units = 1 if no_thread == "one_unit" else 2

    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    order = []
    assert workers.beside(units, lambda: order.append("here") or 1,
                          lambda: order.append(threading.current_thread()) or 2) == (1, 2)
    assert order == ["here", threading.main_thread()]


class Failed(Exception):
    pass


def test_an_error_in_there_is_raised_after_here_returns():
    before, failed, returned = threading.active_count(), threading.Event(), []

    def there():
        failed.set()
        raise Failed("there")

    def here():
        # on the helper thread, there has raised before here returns
        failed.wait(5 if workers.count(2) == 2 else 0)
        returned.append(True)

    with pytest.raises(Failed, match="there"):
        workers.beside(2, here, there)
    assert returned == [True]
    assert threading.active_count() == before


def test_an_error_in_here_propagates_after_the_join():
    before, ran_on = threading.active_count(), []

    def here():
        raise Failed("here")

    def there():
        time.sleep(0.1)
        ran_on.append(threading.current_thread())

    with pytest.raises(Failed, match="here"):
        workers.beside(2, here, there)
    assert threading.active_count() == before
    # a thread started ran to its end; inline, there never ran
    assert len(ran_on) == (1 if workers.count(2) == 2 else 0)


def test_there_sees_the_callers_errstate():
    with np.errstate(over="raise"):
        _, seen = workers.beside(2, lambda: None, lambda: np.geterr()["over"])
    assert seen == "raise"
    assert np.geterr()["over"] != "raise"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out)]) == 0
    return out


def run(capsys, argv, out):
    """Exit code, stdout, stderr and output files of ``main(argv)`` writing
    into ``out``, its path written as OUT."""
    out.mkdir()
    rc = main([*argv, "--out", str(out)])
    std = capsys.readouterr()
    files = {path.name: path.read_bytes().replace(str(out).encode(), b"OUT")
             for path in sorted(out.iterdir())}
    return rc, std.out.replace(str(out), "OUT"), std.err.replace(str(out), "OUT"), files


@pytest.mark.parametrize("failing", [1, 2])
@pytest.mark.parametrize("command", ["write", "read", "ablate"])
def test_a_failed_fork_gives_the_serial_run(synth_dir, capsys, tmp_path, monkeypatch,
                                            command, failing):
    # synth writes every matrix and eval reads every matrix on up to three
    # workers; ablate runs its variants on three.  The `failing`-th fork
    # raises EAGAIN, as when the process limit is reached.
    manifest = str(synth_dir / "manifest.json")
    argv, split = {
        "write": (["synth"], forked_io),
        "read": (["eval", "--model", str(synth_dir / "planted_model.bin"),
                  "--manifest", manifest], forked_io),
        "ablate": (["ablate", "--manifest", manifest, "--k", "40"], forked_ablate),
    }[command]
    # each run parses every matrix file: none finds a sidecar of a read before
    drop_sidecars(synth_dir)
    with forked_ablate(1):
        serial = run(capsys, argv, tmp_path / "serial")
    drop_sidecars(synth_dir)
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(failing)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    with split(3) as forks:
        forked = run(capsys, argv, tmp_path / "forked")
    assert len(calls) >= failing and len(forks) == len(calls)
    assert forked == serial
    assert serial[0] == 0
    assert child_left() is None
