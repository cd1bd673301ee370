"""Harness sub-law timings: whole law checks swept exhaustively.

The second rung of the benchmark ladder: `check_star_laws` and
`check_nuclear_axioms` on pinj over sets of size <= 2 and on finrel over
sets of size <= 1, at a budget that sweeps every enumerable sub-law.
This directory is outside the Tier-1 `testpaths`; run it with

    PYTHONPATH=src python -m pytest bench/test_sublaws.py --benchmark-only

and add `--benchmark-json FILE` to keep the numbers.
"""

import pytest

from nucleal import finrel, pinj
from nucleal.core import harness

BUDGET = 100_000  # above every exhaustive case count below
SEED = 1

MODELS = {"pinj": (pinj, 2), "finrel": (finrel, 1)}

CHECKS = {
    "star-laws": lambda inst, nuc, size: harness.check_star_laws(
        inst, BUDGET, SEED, max_size=size
    ),
    "nuclear": lambda inst, nuc, size: harness.check_nuclear_axioms(
        inst, nuc, BUDGET, SEED, max_size=size
    ),
}


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("model", MODELS)
def test_sublaws(benchmark, model, check):
    benchmark.group = check
    module, size = MODELS[model]
    inst, nuc, _ = module.structures()
    rep = benchmark(CHECKS[check], inst, nuc, size)
    # interchange has no enumerable stream and is sampled; no flag for it
    assert rep.ok and rep.flags
    assert all(flag.startswith("exhaustive:") for flag in rep.flags)
