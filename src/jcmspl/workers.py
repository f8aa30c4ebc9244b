"""Forked worker processes: how many to start, the core each runs on, and
one lifecycle for all of them; and one pinned helper thread.

Matrix reads and writes (``jcmspl.dataset``) and ``jcmspl ablate``
(``jcmspl.cli``) split their work with ``forked``; nothing else forks.
Each child sends its result through a pipe and leaves through
``os._exit``.  The caller does every item that no child took, and on
leaving ``forked`` every child not yet joined is killed and reaped.

``beside`` runs two functions at once, one of them on a pinned thread.
``jcmspl.trainer`` calls it for ``fit``'s statistics pass (``X X^T`` and
the per-class sums of X beside the draw of A, B and C0) and for every
sweep over column blocks, the second half of which goes to the thread.
Each function computes what it computes inline, so no output bit depends
on it.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import signal
import threading


# pids of the forked children not yet reaped
_alive: set[int] = set()


def count(units: int) -> int:
    """Forked workers for ``units`` pieces of work that can run apart: at most
    one per usable core and per unit, and 1 (serial) where there is no
    ``os.fork`` or while another Python thread runs, which could hold a lock
    the child would wait for."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, units))


def cores(children: int) -> list[int | None]:
    """A core for each of ``children`` forked children, round robin over the
    usable cores with the one this process runs on last; all None where the
    platform cannot tell.  As many children as cores cover every core, so a
    caller that waits for them leaves none idle, and fewer children run
    apart from the caller.  A child starts on its parent's core, and on a
    2-vCPU KVM guest the scheduler left both there for a whole 40 ms of
    fitting, each at 2.2x its solo time (1.1-1.3x with the child placed
    apart)."""
    try:
        with open("/proc/self/stat") as fh:  # field 39: the current core
            current = int(fh.read().rsplit(")", 1)[1].split()[36])
        usable = sorted(os.sched_getaffinity(0), key=lambda core: (core == current, core))
    except (AttributeError, OSError, IndexError, ValueError):
        usable = []
    return [usable[i % len(usable)] if usable else None for i in range(children)]


class Child:
    """A forked child: its pid and the unbuffered read end of its pipe."""

    def __init__(self, pid: int, fd: int):
        self.pid = pid
        self.pipe = open(fd, "rb", buffering=0)
        self.status: int | None = None
        _alive.add(pid)

    def join(self) -> bool:
        """Close the pipe and reap the child, once; True when it exited 0."""
        if self.status is None:
            self.pipe.close()
            self.status = os.waitpid(self.pid, 0)[1]
            _alive.discard(self.pid)
        return self.status == 0


def _fork(work, *args, core: int | None = None) -> Child:
    """Run ``work(pipe, *args)`` in a forked child, ``pipe`` being the binary
    write end of a new pipe, on ``core`` alone when given and available.
    The child prints nothing, and it always leaves through ``os._exit`` (0
    when ``work`` returns), so it flushes no inherited buffer.  It may call
    BLAS: OpenBLAS's at-fork handler stops its worker threads before the
    fork, and the child, like the parent, starts them again at its next
    threaded call."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            if core is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, {core})
            with open(write_end, "wb") as pipe:
                work(pipe, *args)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return Child(pid, read_end)


@contextlib.contextmanager
def forked(work, items: list, *args):
    """Yield a list of forked children, the i-th running
    ``work(pipe, items[i], *args)`` on ``cores``' i-th core.  The list stops
    short at the first fork or pipe that fails (as on EAGAIN or EMFILE), and
    the caller does the items left over.  On exit every child not yet
    joined is killed and reaped."""
    children = []
    try:
        for item, core in zip(items, cores(len(items))):
            try:
                children.append(_fork(work, item, *args, core=core))
            except OSError:
                break
        yield children
    finally:
        for child in children:
            if child.status is None:
                os.kill(child.pid, signal.SIGKILL)
                child.join()


def beside(units: int, here, there):
    """``(here(), there())``.  Where ``count(units)`` allows two workers and
    no forked child is alive (the thread would take its core), ``there``
    runs meanwhile on a thread pinned to a core apart from the caller's: an
    unpinned one stayed on the caller's core of a 2-vCPU KVM guest.  The
    thread runs in a copy of the caller's context (numpy's errstate, for
    one), and it is joined before this returns or raises, so none turns a
    later ``count`` serial; its error is raised after ``here`` returns.
    Otherwise, or where no thread can start, both run inline, ``here``
    first."""
    core = cores(1)[0] if count(units) >= 2 and not _alive else None
    if core is None:
        return here(), there()
    outcome, context = [], contextvars.copy_context()

    def run():
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {core})  # this thread only
        try:
            outcome.append((context.run(there), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=run)
    try:
        thread.start()
    except RuntimeError:  # no thread could be started
        return here(), there()
    try:
        first = here()
    finally:
        thread.join()
    second, exc = outcome.pop()
    if exc is not None:
        raise exc
    return first, second


def read_into(pipe, buffer) -> bool:
    """Fill the writable ``buffer`` from ``pipe``; False at an early end of
    file."""
    view = memoryview(buffer).cast("B")
    while view.nbytes:
        got = pipe.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True
