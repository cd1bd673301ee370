"""Primitive-operation timings for finrel and pinj at fixed sizes.

The first rung of the benchmark ladder: compose, converse (the star),
tensor, theta and `mor_eq`, each on operands over 4-element sets.  This
directory is outside the Tier-1 `testpaths`; run it with

    PYTHONPATH=src python -m pytest bench/ --benchmark-only

and add `--benchmark-json FILE` to keep the numbers.
"""

import pytest

from nucleal import finrel, pinj
from nucleal.core.rng import Lcg

N = 4  # size of every set an operand runs between


def _finrel():
    inst, nuc, _ = finrel.structures(N)
    x = finrel.fin_set(N)
    rng = Lcg(7)
    f, g = inst.sample_hom(rng, x, x), inst.sample_hom(rng, x, x)
    return inst, nuc, f, g, f


def _pinj():
    inst, nuc, _ = pinj.structures(N)
    x = pinj.fin_set(N)
    f = pinj.PartialInjection(x, x, ((0, 1), (1, 3), (2, 0)))
    g = pinj.PartialInjection(x, x, ((0, 2), (1, 0), (3, 1)))
    h = pinj.PartialInjection(x, x, ((2, 3),))  # theta needs a one-point map
    return inst, nuc, f, g, h


MODELS = {"finrel": _finrel, "pinj": _pinj}

OPS = {
    "compose": lambda inst, nuc, f, g, h: (inst.compose, g, f),
    "converse": lambda inst, nuc, f, g, h: (inst.star, f),
    "tensor": lambda inst, nuc, f, g, h: (inst.tensor, f, g),
    "theta": lambda inst, nuc, f, g, h: (nuc.theta, h),
    # an equal value built separately, so the comparison runs in full
    "mor_eq": lambda inst, nuc, f, g, h: (
        inst.mor_eq, f, inst.compose(inst.identity(inst.source(f)), f)
    ),
}


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("model", MODELS)
def test_primitive(benchmark, model, op):
    benchmark.group = op
    fn, *args = OPS[op](*MODELS[model]())
    out = benchmark(fn, *args)
    if op == "mor_eq":
        assert out is True
