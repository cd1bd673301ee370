"""Intern-table sizes after whole reports, shared by finrel's and xrel's tests.

One fresh process per seed (1 and 7) runs every job of
`suite_jobs("all", 200, seed)` twice and prints, after each run,
finrel's interned sets, then xrel's monoids, object shapes, memoized
tensor pairs and all interned objects.  The four runs are made once per
test session, however many tests read them.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import nucleal

SEEDS = (1, 7)

_CODE = (
    "from nucleal import cli, finrel, xrel\n"
    "for _ in range(2):\n"
    "    for job in cli.suite_jobs('all', 200, {seed}):\n"
    "        job()\n"
    "    pairs = sum(len(key) == 2 for key in xrel._SHAPES)\n"
    "    shapes = len(xrel._SHAPES) - pairs\n"
    "    print(len(finrel._INTERNED), len(xrel._MONOIDS), shapes, pairs,\n"
    "          len(xrel._INTERNED))\n"
)


def _start(seed: int) -> subprocess.Popen:
    # a fresh process, so that only these runs fill the intern tables;
    # every job of the report runs in it (`run_suite` would send some to
    # other processes, whose tables this one never sees)
    src = str(Path(nucleal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    ))
    return subprocess.Popen(
        [sys.executable, "-c", _CODE.format(seed=seed)],
        env=env, stdout=subprocess.PIPE, text=True,
    )


@functools.lru_cache(maxsize=None)
def counts() -> tuple:
    """Per seed, the two lines of counts (after one run, after two)."""
    runs = [_start(seed) for seed in SEEDS]
    outs = [p.communicate(timeout=300)[0].splitlines() for p in runs]
    assert all(p.returncode == 0 for p in runs)
    return tuple(
        tuple(tuple(int(n) for n in line.split()) for line in out)
        for out in outs
    )
