"""Whole-report runs in fresh processes, shared by several tests.

One fresh process per seed (1 and 7) runs every job of
`suite_jobs("all", 200, seed)` twice.  After the first run it prints the
sha256 of the ordered (law, cases, failures, flags) of its reports.
After each run it prints finrel's interned sets, then xrel's monoids,
object shapes, memoized tensor pairs and all interned objects, then the
entries of finrel's member table, of its op tables together and of its
tensor table alone.  The four runs are made once per test session,
however many tests read them.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import nucleal

SEEDS = (1, 7)

_CODE = (
    "import hashlib\n"
    "from nucleal import cli, finrel, xrel\n"
    "for run in range(2):\n"
    "    reports = [rep for job in cli.suite_jobs('all', 200, {seed})\n"
    "               for rep in job()]\n"
    "    if run == 0:\n"
    "        sig = [(r.law, r.cases, r.failures, r.flags) for r in reports]\n"
    "        print(hashlib.sha256(repr(sig).encode()).hexdigest())\n"
    "    pairs = sum(len(key) == 2 for key in xrel._SHAPES)\n"
    "    shapes = len(xrel._SHAPES) - pairs\n"
    "    rows = [row for ops in (finrel._COMPOSE, finrel._TENSOR) for row in ops.values()]\n"
    "    print(len(finrel._INTERNED), len(xrel._MONOIDS), shapes, pairs,\n"
    "          len(xrel._INTERNED), len(finrel._MEMBERS),\n"
    "          sum(map(len, rows)) + len(finrel._CONVERSE) + len(finrel._THETA),\n"
    "          sum(map(len, finrel._TENSOR.values())))\n"
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
def _outputs() -> tuple:
    """Per seed, the lines the process printed."""
    runs = [_start(seed) for seed in SEEDS]
    outs = [p.communicate(timeout=300)[0].splitlines() for p in runs]
    assert all(p.returncode == 0 for p in runs)
    return tuple(outs)


def signatures() -> tuple:
    """Per seed, the sha256 of the first run's report signature."""
    return tuple(out[0] for out in _outputs())


def counts() -> tuple:
    """Per seed, the two lines of counts (after one run, after two)."""
    return tuple(
        tuple(tuple(int(n) for n in line.split()) for line in out[1:])
        for out in _outputs()
    )
