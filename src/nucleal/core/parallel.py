"""One fork map for every parallel run: `cpus` and `fork_map`.

`fork_map(share, k)` computes share(0), ..., share(k - 1): shares 1 ..
k - 1 in forked children, which pickle their results back through
pipes, and share 0 in this process.  `cli.run_suite` splits a suite's
jobs with it, and `harness._Runner.sweep` a large exhaustive sweep.

Nothing nests.  Inside a `fork_map`, in its children and during this
process's own share, `cpus()` is 1, so a sweep run by a suite job stays
serial.  nucleal starts no threads, and numpy's OpenBLAS pool stops
itself before a fork, so forking is safe.
"""

from __future__ import annotations

import os
import pickle

_inside = False  # true within a fork_map, in its children too


def cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or 1 inside
    a `fork_map`."""
    if _inside or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(share, w: int):
    """Fork a child that pickles share(w) into a pipe; returns (pid,
    read end of the pipe)."""
    r, wr = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(wr)
        raise
    if pid == 0:
        # the child never returns: os._exit runs no atexit handler and
        # flushes no buffer inherited from the parent, and a child that
        # fails before the dump ends with status 1
        status = 1
        try:
            os.close(r)
            with os.fdopen(wr, "wb") as out:
                pickle.dump(share(w), out)
            status = 0
        finally:
            os._exit(status)
    os.close(wr)
    return pid, r


def _collect(pid: int, fd: int):
    """What the child sent, and its wait status.  The pipe is read to
    its end before the wait, so a child blocked on a full pipe can
    finish."""
    with os.fdopen(fd, "rb") as src:
        data = src.read()
    return data, os.waitpid(pid, 0)[1]


def fork_map(share, k: int) -> list:
    """[share(0), ..., share(k - 1)], with share(w) for w >= 1 run in k - 1
    forked children and share(0) here.

    Every child is reaped before this returns or raises.  What share(0)
    raises is raised; a child that dies, raises or sends no complete
    result raises RuntimeError.  With k = 1 nothing is forked.
    """
    global _inside
    outer = _inside
    children = []
    _inside = True
    try:
        for w in range(1, k):
            children.append(_fork(share, w))
        out = [share(0)]
    finally:
        _inside = outer
        sent = [_collect(pid, fd) for pid, fd in children]
    for w, (data, status) in enumerate(sent, 1):
        if status != 0:
            raise RuntimeError(
                f"worker {w} of {k} ended with wait status {status} "
                "before sending its result"
            )
        out.append(pickle.loads(data))
    return out
