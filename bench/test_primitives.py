"""Primitive-operation timings for finrel, pinj, xrel and finstoch at
fixed sizes, and the samplers of every model the harness samples.

The first rung of the benchmark ladder: compose, converse (the star),
tensor, theta, the symmetry (braiding) and the tensor object on an
operand's source and target, and `mor_eq`, each on operands over
4-element sets; the xrel ones are crossed sets over Z2 with a
non-trivial action, built by the validating constructor and so not
interned.  The three relation models run on finrel's relation kernel,
which builds each structural isomorphism on interned sets once: the
finrel and pinj symmetry rungs read that memo, as the harness does.
Their identity and the transpose-of-tensor interleave (the `regroup` of
(a (x) b) (x) (c (x) d) onto (a (x) c) (x) (b (x) d), factors of 2
elements) are timed both ways: on interned sets (the memo) and on sets
from the validating `FinSet` constructor (a fresh build).  finhilb has
no closed-form braiding, so its symmetry rung times the generic
`CategoryInstance.symmetry`, a `regroup` of the swap.
The kernel keeps one canonical value per enumerated relation between
the sets `fin_set(n)` makes, and memoizes compose, tensor, converse and
theta on such values.  The finrel and pinj operands above are sampled
or validated, not canonical, so their rungs compute; pinj's compose and
tensor are also timed on the equal members of `enum_pinj`, a table hit,
and finrel's compose on the xrel operands, which are never canonical: a
miss that reads the compose table once.
The finstoch operands are exact joint measures on a 3-point space with
a null point, the shape its samplers draw.  The samplers the harness
calls most get rungs of their own: xrel's sampled objects and the
tensor of two of them (interned, so memoized), xrel's sampled relations
and nuclear relations between them, finstoch's sampled spaces and joint
measures, drelnum's sampled kernels on a 61-node pool interval, and
finhilb's random matrices.  Two more rungs time whole workloads of the
verify-all report: the enumeration of the lattices of at most 5
elements, which the cjsl suites run, and drelnum's fixture checks
(`fixture_reports` at the pinned 201 nodes), the drel-numeric suite.
One rung belongs to the third step of the ladder, the CLI.  It times
one `cli.main` call, parsing included, on files written once: a
finrel `compose` of the operands above to captured stdout, and a cjsl
`check-nuclear` of the identity on a 3-element chain.
This directory is outside the Tier-1 `testpaths`, which run it once
with `--benchmark-disable`; time it with

    PYTHONPATH=src python -m pytest bench/ --benchmark-only

and add `--benchmark-json FILE` to keep the numbers.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from nucleal import cjsl, cli, drelnum, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core.rng import Lcg

N = 4  # size of every set an operand runs between


def _finrel():
    inst, nuc, _ = finrel.structures()
    x = finrel.fin_set(N)
    rng = Lcg(7)
    f, g = inst.sample_hom(rng, x, x), inst.sample_hom(rng, x, x)
    return inst, nuc, f, g, f


def _pinj():
    inst, nuc, _ = pinj.structures()
    x = pinj.fin_set(N)
    f = pinj.PartialInjection(x, x, ((0, 1), (1, 3), (2, 0)))
    g = pinj.PartialInjection(x, x, ((0, 2), (1, 0), (3, 1)))
    h = pinj.PartialInjection(x, x, ((2, 3),))  # theta needs a one-point map
    return inst, nuc, f, g, h


def _xrel():
    inst, nuc, _ = xrel.structures(xrel.cyclic_monoid(2))
    # the generator swaps p with q and r with s; p, q have degree 0, r, s degree 1
    x = xrel.CrossedMSet(
        inst.monoid,
        xrel.FinSet(("p", "q", "r", "s")),
        ((0, 1, 2, 3), (1, 0, 3, 2)),
        (0, 0, 1, 1),
    )
    f = xrel.from_pairs(x, x, [(0, 0), (1, 1), (2, 3), (3, 2)])
    g = xrel.from_pairs(x, x, [(0, 1), (1, 0), (2, 2), (3, 3), (2, 3), (3, 2)])
    return inst, nuc, f, g, f  # over Z2 every relation is in the ideal


def _finstoch():
    inst, nuc, _ = finstoch.structures()
    x = finstoch.prob_space(("a", "b", "c"), (F(1, 4), F(0), F(3, 4)))
    o = F(0)
    f = finstoch.joint(x, x, ((F(1, 8), o, F(1, 8)), (o, o, o), (F(1, 4), o, F(1, 2))))
    g = finstoch.joint(x, x, ((o, o, F(1, 4)), (o, o, o), (F(1, 6), o, F(7, 12))))
    return inst, nuc, f, g, f  # every valid joint measure is nuclear


MODELS = {"finrel": _finrel, "pinj": _pinj, "xrel": _xrel, "finstoch": _finstoch}

OPS = {
    "compose": lambda inst, nuc, f, g, h: (inst.compose, g, f),
    "converse": lambda inst, nuc, f, g, h: (inst.star, f),
    "tensor": lambda inst, nuc, f, g, h: (inst.tensor, f, g),
    "theta": lambda inst, nuc, f, g, h: (nuc.theta, h),
    "symmetry": lambda inst, nuc, f, g, h: (
        inst.symmetry, inst.source(f), inst.target(f)
    ),
    "tensor_obj": lambda inst, nuc, f, g, h: (
        inst.tensor_obj, inst.source(f), inst.target(f)
    ),
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


SETS = {
    "interned": finrel.fin_set,
    "validated": lambda n: finrel.FinSet(range(n)),
}


def _structural(inst, sets, op):
    if op == "identity":
        return inst.identity, (SETS[sets](N),), {}
    a = SETS[sets](2)  # every factor; products of interned sets are interned
    interleave = ((("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")))
    return inst.regroup, interleave, dict(a=a, b=a, c=a, d=a)


@pytest.mark.parametrize("sets", SETS)
@pytest.mark.parametrize("op", ["identity", "interleave"])
@pytest.mark.parametrize("model", ["finrel", "pinj"])
def test_structural_iso(benchmark, model, op, sets):
    benchmark.group = f"{op} ({sets} sets)"
    fn, args, objs = _structural(MODELS[model]()[0], sets, op)
    first = fn(*args, **objs)
    assert (benchmark(fn, *args, **objs) is first) == (sets == "interned")


def test_generic_symmetry(benchmark):
    benchmark.group = "symmetry (generic, finhilb)"
    inst = finhilb.instance()
    got = benchmark(inst.symmetry, N, N)
    assert inst.mor_eq(inst.compose(got, got), inst.identity(N * N))


MEMBERS = {
    # the member of enum_pinj equal to each operand: composed once, then read
    "canonical": lambda f: next(m for m in pinj.enum_pinj(f.source, f.target) if m == f),
    "validated": lambda f: f,
}


def _members(members):
    inst, _, f, g, _ = _pinj()
    return inst, MEMBERS[members](f), MEMBERS[members](g)


def _kept(table: str, r, s) -> bool:
    """Whether finrel's op table `table` holds a result on (r, s)."""
    return id(s) in getattr(finrel, table).get(id(r), ())


@pytest.mark.parametrize("members", MEMBERS)
def test_pinj_compose_on_members(benchmark, members):
    benchmark.group = "compose (pinj members)"
    inst, f, g = _members(members)
    first = inst.compose(g, f)
    assert benchmark(inst.compose, g, f) == first
    assert _kept("_COMPOSE", f, g) == (members == "canonical")


@pytest.mark.parametrize("members", MEMBERS)
def test_pinj_tensor_on_members(benchmark, members):
    benchmark.group = "tensor (pinj members)"
    inst, f, g = _members(members)
    first = inst.tensor(f, g)
    assert (benchmark(inst.tensor, f, g) is first) == (members == "canonical")
    assert _kept("_TENSOR", f, g) == (members == "canonical")


def test_xrel_compose_misses_the_table(benchmark):
    benchmark.group = "compose (xrel, a table miss)"
    _, _, f, g, _ = _xrel()
    first = finrel.compose(f, g)
    assert benchmark(finrel.compose, f, g) == first
    assert id(f) not in finrel._COMPOSE


def _samplers():
    inst, nuc, _ = xrel.structures(xrel.cyclic_monoid(2))
    rng = Lcg(7)
    a, b = inst.sample_object(rng), inst.sample_object(rng)
    while not (a.size and b.size):  # so that some pair can be related
        a, b = inst.sample_object(rng), inst.sample_object(rng)
    p = finstoch.sample_space(rng)
    drel = drelnum.instance()
    box = drelnum.Interval(-1.0, 1.0, drel.sample_n)  # one of the instance's pool
    return {
        "xrel.sample_object": (inst.sample_object, rng),
        "xrel.tensor_obj": (inst.tensor_obj, a, b),
        "xrel.sample_hom": (inst.sample_hom, rng, a, b),
        "xrel.sample_nuclear": (nuc.sample_nuclear, rng, a, b),
        "finstoch.sample_space": (finstoch.sample_space, rng),
        "finstoch.sample_joint": (finstoch.sample_joint, rng, p, p),
        "drelnum.sample_hom": (drel.sample_hom, rng, box, box),
        "finhilb.random_matrix": (finhilb.random_matrix, rng, N, N),
    }


@pytest.mark.parametrize("sampler", list(_samplers()))
def test_sampler(benchmark, sampler):
    benchmark.group = "samplers"
    fn, *args = _samplers()[sampler]
    benchmark(fn, *args)


def test_enumerate_lattices(benchmark):
    benchmark.group = "enumeration"
    assert len(benchmark(cjsl.enumerate_lattices, 5)) == 10


def test_drelnum_fixture_reports(benchmark):
    benchmark.group = "fixture checks"
    assert all(r.ok for r in benchmark(drelnum.fixture_reports))


def _manifest(tmp_path, name, category, value) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"schema": cli.SCHEMA, "category": category, "value": value}))
    return str(path)


def _cli_call(tmp_path, command):
    """(argv, expected stdout) of one CLI call."""
    if command == "compose":
        inst, _, f, g, _ = _finrel()
        argv = ["compose", _manifest(tmp_path, "f.json", "finrel", finrel.to_json(f)),
                _manifest(tmp_path, "g.json", "finrel", finrel.to_json(g))]
        want = {"schema": cli.SCHEMA, "category": "finrel",
                "value": finrel.to_json(inst.compose(g, f))}
        return argv, json.dumps(want, indent=2) + "\n"
    ident = cjsl.supmap_to_json(cjsl.identity_sup(cjsl.chain(3)))
    argv = ["check-nuclear", _manifest(tmp_path, "c.json", "cjsl", ident)]
    return argv, "nuclear: yes (witness [0, 0, 1], sup-map)\n"


@pytest.mark.parametrize("command", ["compose", "check-nuclear"])
def test_cli_call(benchmark, tmp_path, command):
    benchmark.group = "cli.main (one call)"
    argv, want = _cli_call(tmp_path, command)

    def call():
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue()

    assert benchmark(call) == (0, want)
