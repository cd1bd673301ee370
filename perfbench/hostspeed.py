"""Host speed, sampled during each pass, to put the run's times on one scale.

The speed of the shared host drifts by a third and more over minutes,
and a run cannot outlast that drift (see the Noise section of
README.md).  So while a pass runs, a fixed reference computation of the
benchmark's own, which calls no nucleal code, is timed every
`PERIOD_S` seconds from a SIGALRM handler in the one thread.  Its mean
duration over the pass tells how fast the host ran the pass.  A time
measured in the pass is scaled by `REF_S / mean`: it then reads as the
time the pass would have taken on a host that runs the reference in
`REF_S`.  A change to nucleal moves the pass time and leaves the
reference alone, so the scaled time moves with it.

Time spent in the handler is kept out of the measurements: they read
`clock()`, which is `perf_counter()` minus the probe time so far.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

PERIOD_S = 0.1
BURST = 20  # probes right after a time measured outside a pass
# the scale's unit: about what `reference()` takes on the machine in README.md
# when its host is quiet.  Scaled times of two commits compare only while it
# stays the same.
REF_S = 0.0005


def reference() -> int:
    """Relation composition over frozensets of pairs, and dict sums: the
    kind of pure-Python work nucleal's kernels do, on fixed small inputs."""
    acc = 0
    rel = frozenset((i, (i * 7) % 13) for i in range(13))
    for _ in range(12):
        comp = frozenset((a, c) for a, b in rel for b2, c in rel if b == b2)
        sums: dict = {}
        for a, c in comp:
            sums[a] = sums.get(a, 0) + c
        acc += sum(sums.values())
        rel = comp | frozenset([(acc % 13, 1)])
    return acc


class HostSpeed:
    def __init__(self):
        self.spent = 0.0  # seconds spent in probes, over the whole run
        self.samples: list[float] = []  # probe durations of the current pass

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _probe(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[float]:
        """Stop probing; return the probe durations of the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


def burst(n: int = BURST) -> list[float]:
    """Durations of `n` back-to-back runs of the reference, for a time
    measured outside a pass, such as the set-up in a child process."""
    out = []
    for _ in range(n):
        t0 = perf_counter()
        reference()
        out.append(perf_counter() - t0)
    return out


def scale(samples: list[float], typical=fmean) -> float:
    """Factor that puts a time measured alongside `samples` on the REF_S scale.

    The mean of the probes of a pass is the host's time-averaged speed
    over it; a short burst is better summed up by its median, which one
    probe delayed by a context switch does not move."""
    return REF_S / typical(samples)
