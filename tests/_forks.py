"""CPU-count patching and the reaped-children check, shared by the
tests of `run_suite` and of the split sweep."""

import os

import pytest


def cpus(monkeypatch, n):
    """Make `parallel.cpus()` see an affinity mask of n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
