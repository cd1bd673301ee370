"""CPU-count patching, fork counting and the reaped-children check,
shared by the tests of `run_suite` and of the split sweeps."""

import os

import pytest


def cpus(monkeypatch, n):
    """Make `parallel.cpus()` see an affinity mask of n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def forks_counted(monkeypatch) -> list:
    """The pids this process forks, in order."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
