"""Law-checking harness over the instance contracts.

Every check is a deterministic function of (instance, budget, seed).
Each one opens a `_Runner`, which owns the seeded generator, the budget,
the report and the clock, and sends every sub-law through its `sweep`;
tracedness too.  The helper checks in the model modules (cjsl, the
theta audit, Giry laws, mass loss, drelnum's fixtures) run the cases
they list through its `each`, so every report goes through a `_Runner`
and a raising case of any report is a witness, never a crash.  A
harness sub-law runs over case streams: one per object tuple
when the instance lists its objects, a single sampled stream otherwise.
A stream whose full case count fits into the remaining budget is swept
exhaustively, anything larger is sampled with the seeded generator,
and the report flags say which happened.

Every law is a pure function of its case: what a law needs at random
is drawn where its case is made (`_then`), never while it runs.  So
`sweep` only queues its sub-law, and `finish`, `each` and `finding`
first run the whole queue over k shares of one `parallel.fork_map`, one
CPU per `SPLIT_MIN // 2` cases the check sweeps at most; k = 1 is the
serial run.  Share w makes every queued case, in queue order, from its
own copy of the generator and runs the cases j = w, w + k, ..., counted
across the queue.  It sends back, per sub-law, its case count, whether
a case failed or raised, and its first witnesses keyed by j; they are
merged sub-law by sub-law in that order, so the report is the one-CPU
run's.  The run raises, naming the sub-law, if a law moved the runner's
own generator in any share.  Inside a `fork_map`, as under
`cli.run_suite`, k is 1.

A stream is (count, enum, sample): enum(rng) makes its count cases and
sample(rng) draws one; `_then` appends what a law needs at random to
the cases of both.  Tuples of morphisms come from one builder,
`_streams`, driven by specs (homs, i, j): each draws a morphism from
object slot i to slot j, where homs is (count, enum, sample) over the
instance's hom-sets or over its nuclear ideal.  Members over objects (states, trace-class members) come
from `_members`, listed where the structure lists them.  Streams over
explicitly listed cases come from `_listed` and sample by drawing among
their cases; the cases may be held as a family, such as finrel's
`Relations`, that makes an item only when it is indexed or iterated.
Every stream therefore has a sampler: none is dropped without a case
once the budget runs out.

Structural isomorphisms (unit introduction, regrouping, factor
permutations) come from the instance's `regroup`, which takes the two
tensor expressions over named leaves and builds the iso on the model's
`reindex` primitive, so no law computes a slot map of its own.

Nuclear factorization is decided by ideal membership alone:
`find_nuclear_factorization` asks `is_nuclear`, and takes the factors of
a distinguished morphism from the instance's closed-form `factorize`.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Optional, Sequence

from nucleal.core import parallel, scalars
from nucleal.core.errors import UnsupportedCheck
from nucleal.core.instance import (
    CategoryInstance,
    FactorizationResult,
    NuclearStructure,
    TraceStructure,
)
from nucleal.core.report import FAILURE_CAP, AxiomReport
from nucleal.core.rng import Lcg

Stream = tuple[Optional[int], Optional[Callable], Callable]

#: the fewest cases a check sweeps for its queue to split over CPUs.  A
#: fork round trip (fork, pickle a share's result back, reap) took 2.3 ms
#: in the median of 50 on a 2-CPU Linux host, and the cheapest sub-laws
#: take about 5 us a case, so half of 4096 such cases is about 10 ms,
#: four times it.  Each worker gets at least SPLIT_MIN // 2 swept cases,
#: so a check splits over at most swept // (SPLIT_MIN // 2) CPUs.
SPLIT_MIN = 4096


class _Runner:
    """One check invocation: its report, seeded generator, budget and clock.

    Each sampled sub-law draws `samples` cases, the budget capped at
    `cap`.  A check over cases it lists itself needs only the law: it
    runs them through `each`.
    """

    def __init__(self, law: str, budget: int = 0, seed: int = 0, cap: int = 0):
        self.report = AxiomReport(law, 0)
        self.remaining = budget
        self.samples = min(budget, cap)
        self.rng = Lcg(seed)
        self.failing: set[str] = set()  # sub-laws that returned a witness
        self.raised = False
        self.queue: list = []  # sub-laws not yet run: (name, fn, runs, n, swept)
        self.t0 = time.perf_counter()

    def finish(self) -> AxiomReport:
        self._run_queue()
        self.report.elapsed = time.perf_counter() - self.t0
        return self.report

    def finding(self, name: str, flag: str) -> None:
        """Flag `documented-finding:<flag>` when sub-law `name` is the only
        one with witnesses and no case raised, so that a finding, which
        does not fail the report, never hides a crash or another law."""
        self._run_queue()
        if self.failing == {name} and not self.raised:
            self.report.flags.append(f"documented-finding:{flag}")

    def each(self, name: str, cases, fn) -> None:
        """Run `fn` on every case, in order; sets no flag."""
        self._run_queue()
        for _, line in self._keyed(name, fn, ((None, case) for case in cases)):
            self.report.add_failure(line)

    def sweep(self, name: str, streams: list[Stream], fn, enabled=True, note=None):
        """Queue sub-law `name` over its streams, each swept exhaustively
        when its count fits into the remaining budget, sampled otherwise.

        The budget and the `skipped:` and `exhaustive:` flags are settled
        here; the cases run with the rest of the queue (`_run_queue`).
        """
        if not enabled:
            suffix = f" ({note})" if note else ""
            self.report.flags.append(f"skipped:{name}{suffix}")
            return
        n_streams = max(1, len(streams))
        per_samples = max(1, self.samples // n_streams) if n_streams > 1 else self.samples
        runs = []  # per stream, its cases made from a generator
        n = swept = 0  # cases, and those swept
        exhaustive = bool(streams)
        for count, enum, sample in streams:
            if count is not None and enum is not None and count <= self.remaining:
                self.remaining -= count
                swept += count
                n += count
                runs.append(enum)
            else:
                exhaustive = False
                n += per_samples
                runs.append(lambda rng, sample=sample:
                            (sample(rng) for _ in range(per_samples)))
        self.queue.append((name, fn, runs, n, swept))
        if exhaustive:
            self.report.flags.append(f"exhaustive:{name}")

    def _run_queue(self) -> None:
        """Run the queued sub-laws over the k shares of one fork map, as
        the module docstring describes; share 0's generator goes on as
        this runner's."""
        queue, self.queue = self.queue, []
        if not queue:
            return
        start = self.rng.state
        swept = sum(q[-1] for q in queue)
        k = max(1, min(parallel.cpus(), swept // (SPLIT_MIN // 2)))

        def share(w):
            rng = Lcg(start)
            out = []
            j = 0  # the queue-wide index of the sub-law's first case
            for name, fn, runs, n, _ in queue:
                part = _Runner(self.report.law)
                # lazy: each case is made as it runs, so none are held at once
                cases = enumerate(itertools.chain.from_iterable(run(rng) for run in runs), j)
                lines = part._keyed(name, fn, itertools.islice(cases, (w - j) % k, None, k))
                j += n
                moved = self.rng.state != start  # a law drew from this runner's generator
                out.append((part.report.cases, bool(part.failing), part.raised, lines, moved))
            return out, rng.state

        shares = parallel.fork_map(share, k)
        for i, (name, *_) in enumerate(queue):
            outcomes = [out[i] for out, _ in shares]
            if any(moved for *_, moved in outcomes):
                raise RuntimeError(f"{name}: a law drew from the runner's generator; "
                                   "draw in the case streams instead")
            lines = []
            for cases, failed, raised, part, _ in outcomes:
                self.report.cases += cases
                if failed:
                    self.failing.add(name)
                self.raised |= raised
                lines += part
            lines.sort(key=lambda kl: kl[0])
            for _, line in lines[:FAILURE_CAP + 1]:
                self.report.add_failure(line)
        self.rng.state = shares[0][1]

    def _keyed(self, name, fn, cases) -> list:
        """Run (key, case) pairs; the first FAILURE_CAP + 1 failure lines,
        each with its case's key, which is all `add_failure` can keep."""
        out = []
        for key, case in cases:
            for line in self._run(name, fn, case):
                if len(out) <= FAILURE_CAP:
                    out.append((key, line))
        return out

    def _run(self, name, fn, case) -> Sequence[str]:
        """Run one case; its failure lines: the witnesses, or the exception.

        The per-case hook: every case of every check runs through this
        one call, so a wrapper of it sees each case once, in order.
        """
        self.report.cases += 1
        try:
            out = fn(*case)
        except Exception as exc:  # a broken instance must yield a witness, not a crash
            self.raised = True
            return [f"{name}: exception {type(exc).__name__}: {exc}"]
        if not out:  # None, or no witness at all
            return ()
        lines = [f"{name}: {w}" for w in ([out] if isinstance(out, str) else out) if w]
        if lines:
            self.failing.add(name)
        return lines


# -- stream builders --------------------------------------------------------


def _single(sample) -> list[Stream]:
    return [(None, None, sample)]


def _listed(items: Sequence, *rest) -> Stream:
    """One case (item, *rest) per listed item; samples by drawing an item.

    `items` needs only a length, an index and iteration in index order,
    so it may be a family that makes an item when it is indexed."""
    return (
        len(items),
        lambda rng: ((x, *rest) for x in items),
        lambda rng: (rng.choice(items), *rest),
    )


def _streams(inst, objs, n_objs: int, specs) -> list[Stream]:
    """Tuples of morphisms between `n_objs` object slots, one per spec.

    A spec (homs, i, j) draws a morphism from slot i to slot j, where
    homs is (count, enum, sample) over one family of hom-sets.  Listed
    objects give one stream per object tuple; otherwise the objects are
    sampled first and then the morphisms in spec order.
    """
    def draw(rng, xs):
        return tuple(sample(rng, xs[i], xs[j]) for (_, _, sample), i, j in specs)

    if objs is None:
        return _single(
            lambda rng: draw(rng, [inst.sample_object(rng) for _ in range(n_objs)])
        )
    out = []
    for xs in itertools.product(objs, repeat=n_objs):
        counts = [count(xs[i], xs[j]) for (count, _, _), i, j in specs]

        def enum(rng, xs=xs):
            return itertools.product(
                *(enum_hom(xs[i], xs[j]) for (_, enum_hom, _), i, j in specs)
            )

        out.append(
            (None if None in counts else math.prod(counts), enum,
             lambda rng, xs=xs: draw(rng, xs))
        )
    return out


def _streams_obj(inst, objs) -> list[Stream]:
    if objs is None:
        return _single(lambda rng: (inst.sample_object(rng),))
    return [_listed([a]) for a in objs]


def _then(streams: list[Stream], draw) -> list[Stream]:
    """The streams with the values draw(rng, *case) returns appended to
    each case, drawn as the case is made, so that the law stays a
    function of its case alone."""
    def extend(rng, case):
        return (*case, *draw(rng, *case))

    return [
        (count,
         enum and (lambda rng, enum=enum: (extend(rng, c) for c in enum(rng))),
         lambda rng, sample=sample: extend(rng, sample(rng)))
        for count, enum, sample in streams
    ]


def _members(inst, objs, n_objs: int, enum, sample) -> list[Stream]:
    """Cases (m, *xs): a member m over a tuple xs of `n_objs` objects.

    Listed objects give one stream per tuple, over the members enum(*xs)
    lists, or drawn by sample(rng, *xs) where enum returns None.
    Unlisted objects are drawn first and then the member.
    """
    def draw(rng, xs):
        return (sample(rng, *xs), *xs)

    if objs is None:
        return _single(
            lambda rng: draw(rng, [inst.sample_object(rng) for _ in range(n_objs)])
        )
    out = []
    for xs in itertools.product(objs, repeat=n_objs):
        it = enum(*xs)
        out.append((None, None, lambda rng, xs=xs: draw(rng, xs)) if it is None
                   else _listed(list(it), *xs))
    return out


# -- the checks -------------------------------------------------------------


def check_star_laws(
    inst: CategoryInstance,
    budget: int,
    seed: int,
    *,
    max_size: Optional[int] = None,
) -> AxiomReport:
    """Category, symmetric tensor, star, and conjugation laws."""
    run = _Runner(f"star-laws[{inst.name}]", budget, seed, 500)
    objs = inst.objects(max_size)
    eq = inst.mor_eq
    d = inst.describe
    hom = (inst.count_hom, inst.enum_hom, inst.sample_hom)
    mor = _streams(inst, objs, 2, [(hom, 0, 1)])
    indep = _streams(inst, objs, 4, [(hom, 0, 1), (hom, 2, 3)])

    def unary(f):
        out = []
        if not eq(inst.star(inst.star(f)), f):
            out.append(f"star-involution broken for f={d(f)}")
        if not eq(inst.conj(inst.conj(f)), f):
            out.append(f"conj-involution broken for f={d(f)}")
        if not eq(inst.conj(inst.star(f)), inst.star(inst.conj(f))):
            out.append(f"conj/star do not commute for f={d(f)}")
        return out

    run.sweep("unary", mor, unary)

    def antihomo(f, g):
        out = []
        gf = inst.compose(g, f)
        if not eq(inst.star(gf), inst.compose(inst.star(f), inst.star(g))):
            out.append(f"(g.f)* != f*.g* for f={d(f)} g={d(g)}")
        if not eq(inst.conj(gf), inst.compose(inst.conj(g), inst.conj(f))):
            out.append(f"conj not functorial for f={d(f)} g={d(g)}")
        return out

    run.sweep("antihomomorphism", _streams(inst, objs, 3, [(hom, 0, 1), (hom, 1, 2)]),
              antihomo)

    def identities(a):
        out = []
        ida = inst.identity(a)
        if not eq(inst.star(ida), ida):
            out.append(f"id* != id on {inst.describe_obj(a)}")
        if not eq(inst.conj(ida), ida):
            out.append(f"conj(id) != id on {inst.describe_obj(a)}")
        return out

    run.sweep("identities", _streams_obj(inst, objs), identities,
              enabled=inst.has_identity, note="no identities")

    def unit_laws(f):
        out = []
        a, b = inst.source(f), inst.target(f)
        if not eq(inst.compose(f, inst.identity(a)), f):
            out.append(f"f.id != f for f={d(f)}")
        if not eq(inst.compose(inst.identity(b), f), f):
            out.append(f"id.f != f for f={d(f)}")
        return out

    run.sweep("unit-laws", mor, unit_laws,
              enabled=inst.has_identity, note="no identities")

    def assoc(f, g, h):
        lhs = inst.compose(h, inst.compose(g, f))
        rhs = inst.compose(inst.compose(h, g), f)
        if not eq(lhs, rhs):
            return f"associativity broken for f={d(f)} g={d(g)} h={d(h)}"

    run.sweep("associativity",
              _streams(inst, objs, 4, [(hom, 0, 1), (hom, 1, 2), (hom, 2, 3)]), assoc)

    def tensor_star(f, h):
        out = []
        fh = inst.tensor(f, h)
        if not eq(inst.star(fh), inst.tensor(inst.star(f), inst.star(h))):
            out.append(f"(f(x)h)* != f*(x)h* for f={d(f)} h={d(h)}")
        if not eq(inst.conj(fh), inst.tensor(inst.conj(f), inst.conj(h))):
            out.append(f"conj not monoidal for f={d(f)} h={d(h)}")
        return out

    run.sweep("tensor-star", indep, tensor_star,
              enabled=inst.has_tensor, note="no tensor")

    def interchange(case1, case2):
        f, g = case1
        h, k = case2
        lhs = inst.tensor(inst.compose(g, f), inst.compose(k, h))
        rhs = inst.compose(inst.tensor(g, k), inst.tensor(f, h))
        if not eq(lhs, rhs):
            return "tensor/compose interchange broken"

    def interchange_sample(rng):
        a, b, c = (inst.sample_object(rng) for _ in range(3))
        a2, b2, c2 = (inst.sample_object(rng) for _ in range(3))
        return (
            (inst.sample_hom(rng, a, b), inst.sample_hom(rng, b, c)),
            (inst.sample_hom(rng, a2, b2), inst.sample_hom(rng, b2, c2)),
        )

    run.sweep("interchange", _single(interchange_sample), interchange,
              enabled=inst.has_tensor, note="no tensor")

    def symmetry(f, h):
        out = []
        a, b = inst.source(f), inst.target(f)
        c, dd = inst.source(h), inst.target(h)
        lhs = inst.compose(inst.symmetry(b, dd), inst.tensor(f, h))
        rhs = inst.compose(inst.tensor(h, f), inst.symmetry(a, c))
        if not eq(lhs, rhs):
            out.append(f"symmetry not natural for f={d(f)} h={d(h)}")
        back = inst.compose(inst.symmetry(c, a), inst.symmetry(a, c))
        if not eq(back, inst.identity(inst.tensor_obj(a, c))):
            out.append(f"symmetry not involutive on {inst.describe_obj(a)},{inst.describe_obj(c)}")
        return out

    run.sweep("symmetry", indep, symmetry,
              enabled=inst.has_tensor, note="no tensor")

    def scalar_square(s):
        # star on unit endomorphisms agrees with conjugation through iota
        iota = inst.iota()
        lhs = inst.star(s)
        rhs = inst.compose(inst.star(iota), inst.compose(inst.conj(s), iota))
        if not inst.scalar_eq(inst.scalar_of(lhs), inst.scalar_of(rhs)):
            return f"scalar star != conj for s={d(s)}"

    run.sweep("scalar-star",
              _streams(inst, [inst.unit()], 1, [(hom, 0, 0)]) if inst.has_unit else [],
              scalar_square, enabled=inst.has_unit and inst.has_identity,
              note="no unit object")

    return run.finish()


def check_nuclear_axioms(
    inst: CategoryInstance,
    nuc: NuclearStructure,
    budget: int,
    seed: int,
    *,
    max_size: Optional[int] = None,
) -> AxiomReport:
    """Ideal closure, transpose bijectivity, naturality, compactness."""
    run = _Runner(f"nuclear[{inst.name}]", budget, seed, 500)
    objs = inst.objects(max_size)
    eq = inst.mor_eq
    d = inst.describe
    theta_ok = inst.has_tensor and inst.has_unit
    hom = (inst.count_hom, inst.enum_hom, inst.sample_hom)
    nhom = (nuc.count_nuclear, nuc.enum_nuclear, nuc.sample_nuclear)
    # a distinguished h: A -> B with arbitrary f: A -> C and g: B -> D
    nat = _streams(inst, objs, 4, [(nhom, 0, 1), (hom, 0, 2), (hom, 1, 3)])
    nuclear = _streams(inst, objs, 2, [(nhom, 0, 1)])
    indep = _streams(inst, objs, 4, [(nhom, 0, 1), (nhom, 2, 3)])
    lam = inst.regroup("I", ("I", "I")) if theta_ok else None  # I -> I (x) I

    def closure_compose(h, f, g):
        # h: A -> B distinguished, f: A -> C, g: B -> D arbitrary
        out = []
        if not nuc.is_nuclear(inst.compose(g, h)):
            out.append(f"post-composition leaves the ideal: h={d(h)} g={d(g)}")
        if not nuc.is_nuclear(inst.compose(h, inst.star(f))):
            out.append(f"pre-composition leaves the ideal: h={d(h)} f={d(f)}")
        return out

    run.sweep("closure-compose", nat, closure_compose)

    def closure_star(f):
        out = []
        if not nuc.is_nuclear(inst.star(f)):
            out.append(f"star leaves the ideal: f={d(f)}")
        if not nuc.is_nuclear(inst.conj(f)):
            out.append(f"conjugation leaves the ideal: f={d(f)}")
        return out

    run.sweep("closure-star-conj", nuclear, closure_star)

    def closure_tensor(f, g):
        if not nuc.is_nuclear(inst.tensor(f, g)):
            return f"tensor leaves the ideal: f={d(f)} g={d(g)}"

    run.sweep("closure-tensor", indep, closure_tensor,
              enabled=inst.has_tensor, note="no tensor")

    def roundtrip(f):
        a, b = inst.source(f), inst.target(f)
        m = nuc.theta(f)
        back = nuc.theta_inv(m, a, b)
        if not eq(back, f):
            return f"transpose round trip broken for f={d(f)}"

    run.sweep("transpose-roundtrip", nuclear, roundtrip,
              enabled=theta_ok, note="no transpose")

    def onto(m, a, b):
        f = nuc.theta_inv(m, a, b)
        out = []
        if not nuc.is_nuclear(f):
            out.append(f"state maps outside the ideal: m={d(m)}")
        elif not eq(nuc.theta(f), m):
            out.append(f"transpose not onto states: m={d(m)}")
        return out

    run.sweep("transpose-onto",
              _members(inst, objs, 2, nuc.enum_states, nuc.sample_state), onto,
              enabled=theta_ok and nuc.theta_onto,
              note="surjectivity audited separately" if not nuc.theta_onto else "no transpose")

    def transpose_tensor(f, g):
        a, b = inst.source(f), inst.target(f)
        c, dd = inst.source(g), inst.target(g)
        lhs = nuc.theta(inst.tensor(f, g))
        pair = inst.tensor(nuc.theta(f), nuc.theta(g))
        # (A* (x) B) (x) (C* (x) D) -> (A* (x) C*) (x) (B (x) D), and (A (x) C)* = A* (x) C*
        interleave = inst.regroup(
            (("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")),
            a=inst.conj_obj(a), b=b, c=inst.conj_obj(c), d=dd,
        )
        rhs = inst.compose(interleave, inst.compose(pair, lam))
        if not eq(lhs, rhs):
            return f"transpose of a tensor mismatches: f={d(f)} g={d(g)}"

    run.sweep("transpose-tensor", indep, transpose_tensor,
              enabled=theta_ok, note="no transpose")

    def transpose_conj(f):
        a, b = inst.source(f), inst.target(f)
        out = []
        lhs = nuc.theta(inst.conj(f))
        via_star = inst.compose(
            inst.symmetry(inst.conj_obj(b), a), nuc.theta(inst.star(f))
        )
        if not eq(lhs, via_star):
            out.append(f"conj transpose != braided star transpose for f={d(f)}")
        via_conj = inst.compose(inst.conj(nuc.theta(f)), inst.iota())
        if not eq(lhs, via_conj):
            out.append(f"conj transpose != conjugated transpose for f={d(f)}")
        return out

    run.sweep("transpose-conj", nuclear, transpose_conj,
              enabled=theta_ok and inst.has_identity, note="no transpose")

    def naturality(h, f, g):
        # h: A -> B distinguished, f: A -> C, g: B -> D
        lhs = nuc.theta(inst.compose(g, inst.compose(h, inst.star(f))))
        rhs = inst.compose(inst.tensor(inst.conj(f), g), nuc.theta(h))
        if not eq(lhs, rhs):
            return f"transpose naturality broken: h={d(h)} f={d(f)} g={d(g)}"

    run.sweep("transpose-naturality", nat, naturality,
              enabled=theta_ok, note="no transpose")

    def compactness(f, g):
        # f: A -> B, g: B -> C distinguished; recover g o f from transposes
        a, b, c = inst.source(f), inst.target(f), inst.target(g)
        intro = inst.regroup("a", ("I", "a"), a=a)
        step1 = inst.tensor(nuc.theta(g), inst.identity(a))
        perm = inst.regroup((("b", "c"), "a"), ("c", ("b", "a")),
                            a=a, b=inst.conj_obj(b), c=c)
        step2 = inst.tensor(inst.identity(c), inst.star(nuc.theta(inst.star(f))))
        elim = inst.regroup(("c", "I"), "c", c=c)
        chain = inst.compose(
            elim, inst.compose(step2, inst.compose(perm, inst.compose(step1, intro)))
        )
        if not eq(chain, inst.compose(g, f)):
            return f"compactness chain mismatches composite: f={d(f)} g={d(g)}"

    run.sweep("compactness", _streams(inst, objs, 3, [(nhom, 0, 1), (nhom, 1, 2)]),
              compactness,
              enabled=theta_ok and inst.has_identity, note="no transpose")

    return run.finish()


def check_sliding(
    inst: CategoryInstance,
    nuc: NuclearStructure,
    budget: int,
    seed: int,
    *,
    max_size: Optional[int] = None,
) -> AxiomReport:
    """Transpose pairing is symmetric in its two distinguished factors."""
    run = _Runner(f"sliding[{inst.name}]", budget, seed, 500)
    objs = inst.objects(max_size)

    def slide(f, g):
        lhs = nuc.derived_trace(f, g)
        rhs = nuc.derived_trace(g, f)
        if not inst.scalar_eq(lhs, rhs):
            return (
                f"pairing asymmetry: f={inst.describe(f)} g={inst.describe(g)} "
                f"lhs={scalars.render(inst.scalar_kind, lhs)} "
                f"rhs={scalars.render(inst.scalar_kind, rhs)}"
            )

    nhom = (nuc.count_nuclear, nuc.enum_nuclear, nuc.sample_nuclear)
    run.sweep("sliding", _streams(inst, objs, 2, [(nhom, 0, 1), (nhom, 1, 0)]), slide)
    return run.finish()


def derive_trace(inst: CategoryInstance, nuc: NuclearStructure, f, g):
    """Scalar trace of g o f computed from the transposes of f and g.

    f: A -> B and g: B -> A must both be distinguished.
    """
    if not nuc.is_nuclear(f):
        raise UnsupportedCheck("first factor is not in the distinguished ideal")
    if not nuc.is_nuclear(g):
        raise UnsupportedCheck("second factor is not in the distinguished ideal")
    return nuc.derived_trace(f, g)


def check_tracedness(
    inst: CategoryInstance,
    nuc: NuclearStructure,
    tr: TraceStructure,
    budget: int,
    seed: int,
) -> AxiomReport:
    """The derived trace is independent of the chosen factorization."""
    run = _Runner(f"traced[{inst.name}]", budget, seed, 300)
    rend = lambda x: scalars.render(inst.scalar_kind, x)

    def tracedness(fg, fg2):
        (f, g), (f2, g2) = fg, fg2
        h1 = inst.compose(g, f)
        if not inst.mor_eq(h1, inst.compose(g2, f2)):
            return "sampler produced unequal composites"
        if not (nuc.is_nuclear(f) and nuc.is_nuclear(g)
                and nuc.is_nuclear(f2) and nuc.is_nuclear(g2)):
            return "sampler produced non-distinguished factors"
        v1 = nuc.derived_trace(f, g)
        v2 = nuc.derived_trace(f2, g2)
        if not inst.scalar_eq(v1, v2):
            return (f"factorizations disagree {rend(v1)} vs {rend(v2)} "
                    f"for h={inst.describe(h1)}")
        if tr.in_trace_class(h1):
            v3 = tr.trace(h1)
            if not inst.scalar_eq(v1, v3):
                return f"direct trace disagrees with derived {rend(v3)} vs {rend(v1)}"

    run.sweep("tracedness", _single(tr.sample_equal_factorizations), tracedness)
    return run.finish()


def check_trace_axioms(
    inst: CategoryInstance,
    nuc: NuclearStructure,
    tr: TraceStructure,
    budget: int,
    seed: int,
    *,
    max_size: Optional[int] = None,
) -> AxiomReport:
    """Two-sided ideal, dinaturality, vanishing, tensor, star, conjugation."""
    run = _Runner(f"trace-axioms[{inst.name}]", budget, seed, 300)
    seq = inst.scalar_eq
    rend = lambda x: scalars.render(inst.scalar_kind, x)
    hom = (inst.count_hom, inst.enum_hom, inst.sample_hom)
    members = _members(inst, inst.objects(max_size), 1, tr.enum_members, tr.sample_member)

    def ideal(h, a, k):
        out = []
        if not tr.in_trace_class(inst.compose(k, h)):
            out.append(f"k.h leaves the trace class: h={inst.describe(h)} k={inst.describe(k)}")
        if not tr.in_trace_class(inst.compose(h, k)):
            out.append(f"h.k leaves the trace class: h={inst.describe(h)} k={inst.describe(k)}")
        return out

    run.sweep("ideal", _then(members, lambda rng, h, a: (inst.sample_hom(rng, a, a),)),
              ideal)

    def dinaturality_sample(rng):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        return tr.sample_dinat_pair(rng, a, b)

    def dinaturality(f, g):
        gf = inst.compose(g, f)
        if not tr.in_trace_class(gf):
            return None
        fg = inst.compose(f, g)
        if not tr.in_trace_class(fg):
            return f"g.f traced but f.g not: f={inst.describe(f)} g={inst.describe(g)}"
        if not seq(tr.trace(gf), tr.trace(fg)):
            return (
                f"trace not dinatural: tr(gf)={rend(tr.trace(gf))} "
                f"tr(fg)={rend(tr.trace(fg))}"
            )

    run.sweep("dinaturality", _single(dinaturality_sample), dinaturality)

    def vanishing_unit(s):
        out = []
        if not tr.in_trace_class(s):
            out.append("unit endomorphism outside the trace class")
        elif not seq(tr.trace(s), inst.scalar_of(s)):
            out.append(
                f"trace on the unit is not the scalar: {rend(tr.trace(s))} "
                f"vs {rend(inst.scalar_of(s))}"
            )
        return out

    run.sweep("vanishing-unit",
              _streams(inst, [inst.unit()], 1, [(hom, 0, 0)]) if inst.has_unit else [],
              vanishing_unit, enabled=inst.has_unit, note="no unit object")

    def vanishing_tensor(h, a):
        padded = inst.tensor(h, inst.identity(inst.unit()))
        out = []
        if not tr.in_trace_class(padded):
            out.append("padding by the unit identity leaves the trace class")
        elif not seq(tr.trace(padded), tr.trace(h)):
            out.append(
                f"padding changes the trace: {rend(tr.trace(padded))} vs {rend(tr.trace(h))}"
            )
        return out

    run.sweep("vanishing-tensor", members, vanishing_tensor,
              enabled=inst.has_tensor and inst.has_unit and inst.has_identity,
              note="no tensor/unit")

    def tensor_mult(h, a, k):
        hk = inst.tensor(h, k)
        if not tr.in_trace_class(hk):
            return "tensor of traced members is not traced"
        want = scalars.mul(inst.scalar_kind, tr.trace(h), tr.trace(k))
        if not seq(tr.trace(hk), want):
            return (
                f"trace not multiplicative: tr(h(x)k)={rend(tr.trace(hk))} "
                f"tr(h)tr(k)={rend(want)}"
            )

    # k is a member over a drawn object
    member = lambda rng, h, a: (tr.sample_member(rng, inst.sample_object(rng)),)
    run.sweep("tensor", _then(members, member), tensor_mult,
              enabled=inst.has_tensor, note="no tensor")

    def star_conj(h, a):
        out = []
        want = scalars.star(inst.scalar_kind, tr.trace(h))
        hs = inst.star(h)
        if not tr.in_trace_class(hs):
            out.append("star leaves the trace class")
        elif not seq(tr.trace(hs), want):
            out.append(f"tr(h*)={rend(tr.trace(hs))} != tr(h)*={rend(want)}")
        hc = inst.conj(h)
        if not tr.in_trace_class(hc):
            out.append("conjugation leaves the trace class")
        elif not seq(tr.trace(hc), want):
            out.append(f"tr(conj h)={rend(tr.trace(hc))} != tr(h)*={rend(want)}")
        return out

    run.sweep("star-conj", members, star_conj)

    return run.finish()


def check_param_trace_axioms(
    inst: CategoryInstance,
    tr: TraceStructure,
    budget: int,
    seed: int,
    *,
    max_size: Optional[int] = None,
) -> AxiomReport:
    """Axioms for the parametrized trace over a chosen parameter object."""
    if not tr.has_param:
        raise UnsupportedCheck(f"{inst.name}: no parametrized trace structure")
    objs = inst.objects(max_size)
    if objs is None:
        raise UnsupportedCheck(f"{inst.name}: the parametrized trace needs listed objects")
    run = _Runner(f"param-trace[{inst.name}]", budget, seed, 300)
    eq = inst.mor_eq
    i_obj = inst.unit()
    pick = inst.sample_object

    # each object triple's members, held once as the structure gives them
    # (a list, or a family that makes a member when it is indexed):
    # `listed` sweeps them and `framed` draws one with two more objects
    # to frame it by
    members = [(aub, tr.enum_param_members(*aub))
               for aub in itertools.product(objs, repeat=3)]
    listed = [_listed(ms, *aub) for aub, ms in members]
    framed = [
        (None, None,
         lambda rng, ms=ms, aub=aub: (rng.choice(ms), *aub, pick(rng), pick(rng)))
        for aub, ms in members
    ]

    def closure_draws(rng, f, a, u, b):
        h = inst.sample_hom(rng, u, u)
        c, dd = pick(rng), pick(rng)
        return h, c, dd, inst.sample_hom(rng, b, c), inst.sample_hom(rng, dd, a)

    def ideal_closure(f, a, u, b, h, c, dd, g, k):
        out = []
        left = inst.compose(inst.tensor(inst.identity(b), h), f)
        if not tr.in_param_class(left, a, u, b):
            out.append("post-composition by id(x)h leaves the class")
        right = inst.compose(f, inst.tensor(inst.identity(a), h))
        if not tr.in_param_class(right, a, u, b):
            out.append("pre-composition by id(x)h leaves the class")
        framed = inst.compose(
            inst.tensor(g, inst.identity(u)),
            inst.compose(f, inst.tensor(k, inst.identity(u))),
        )
        if not tr.in_param_class(framed, dd, u, c):
            out.append("framing by g, k leaves the class")
        return out

    run.sweep("ideal-closure", _then(listed, closure_draws), ideal_closure)

    def vanishing_unit_sample(rng):
        a, b = pick(rng), pick(rng)
        f = inst.sample_hom(
            rng, inst.tensor_obj(a, i_obj), inst.tensor_obj(b, i_obj)
        )
        return f, a, b

    def vanishing_unit(f, a, b):
        if not tr.in_param_class(f, a, i_obj, b):
            return "unit-parameter class is not everything"
        runit_b = inst.regroup(("b", "I"), "b", b=b)
        runit_a = inst.regroup("a", ("a", "I"), a=a)
        want = inst.compose(runit_b, inst.compose(f, runit_a))
        got = tr.param_trace(f, a, i_obj, b)
        if not eq(got, want):
            return f"unit-parameter trace differs from f itself: f={inst.describe(f)}"

    run.sweep("vanishing-unit", _single(vanishing_unit_sample), vanishing_unit)

    def vanishing_tensor_sample(rng):
        a, u, v, b = pick(rng), pick(rng), pick(rng), pick(rng)
        uv = inst.tensor_obj(u, v)
        f = inst.sample_hom(rng, inst.tensor_obj(a, uv), inst.tensor_obj(b, uv))
        return f, a, u, v, b

    def vanishing_tensor(f, a, u, v, b):
        uv = inst.tensor_obj(u, v)
        au, bu = inst.tensor_obj(a, u), inst.tensor_obj(b, u)
        to_nested = inst.regroup((("a", "u"), "v"), ("a", ("u", "v")), a=a, u=u, v=v)
        from_nested = inst.regroup(("b", ("u", "v")), (("b", "u"), "v"), b=b, u=u, v=v)
        regrouped = inst.compose(from_nested, inst.compose(f, to_nested))
        whole = tr.in_param_class(f, a, uv, b)
        inner = tr.in_param_class(regrouped, au, v, bu)
        if inner:
            partial = tr.param_trace(regrouped, au, v, bu)
            stepwise = inner and tr.in_param_class(partial, a, u, b)
        else:
            stepwise = False
        if whole != stepwise:
            return (
                f"iterated membership mismatch: whole={whole} stepwise={stepwise} "
                f"f={inst.describe(f)}"
            )
        if whole:
            lhs = tr.param_trace(f, a, uv, b)
            rhs = tr.param_trace(partial, a, u, b)
            if not eq(lhs, rhs):
                return f"iterated trace mismatch for f={inst.describe(f)}"

    run.sweep("vanishing-tensor", _single(vanishing_tensor_sample), vanishing_tensor)

    def superposing(f, a, u, b, c, dd, g):
        ca, db = inst.tensor_obj(c, a), inst.tensor_obj(dd, b)
        to_nested = inst.regroup((("c", "a"), "u"), ("c", ("a", "u")), c=c, a=a, u=u)
        from_nested = inst.regroup(("d", ("b", "u")), (("d", "b"), "u"), d=dd, b=b, u=u)
        m = inst.compose(from_nested, inst.compose(inst.tensor(g, f), to_nested))
        if not tr.in_param_class(m, ca, u, db):
            return "superposed morphism leaves the class"
        lhs = tr.param_trace(m, ca, u, db)
        rhs = inst.tensor(g, tr.param_trace(f, a, u, b))
        if not eq(lhs, rhs):
            return f"superposing broken: f={inst.describe(f)} g={inst.describe(g)}"

    run.sweep("superposing",
              _then(framed, lambda rng, f, a, u, b, c, dd: (inst.sample_hom(rng, c, dd),)),
              superposing)

    def yanking_sample(rng):
        a, u, b = pick(rng), pick(rng), pick(rng)
        nuc_like = rng.below(2) == 0
        f = inst.sample_hom(rng, a, u)
        g = inst.sample_hom(rng, u, b)
        if nuc_like and tr.nuclear is not None:
            f = tr.nuclear.sample_nuclear(rng, a, u)
            g = tr.nuclear.sample_nuclear(rng, u, b)
        return f, g, a, u, b

    def yanking(f, g, a, u, b):
        m = inst.compose(inst.symmetry(u, b), inst.tensor(f, g))
        if not tr.in_param_class(m, a, u, b):
            return None
        got = tr.param_trace(m, a, u, b)
        if not eq(got, inst.compose(g, f)):
            return f"yanking broken: f={inst.describe(f)} g={inst.describe(g)}"

    run.sweep("yanking", _single(yanking_sample), yanking)

    def sliding_sample(rng):
        a, u, v, b = pick(rng), pick(rng), pick(rng), pick(rng)
        f = inst.sample_hom(rng, inst.tensor_obj(a, u), inst.tensor_obj(b, v))
        w = inst.sample_hom(rng, v, u)
        return f, w, a, u, v, b

    def sliding(f, w, a, u, v, b):
        m1 = inst.compose(inst.tensor(inst.identity(b), w), f)
        m2 = inst.compose(f, inst.tensor(inst.identity(a), w))
        in1 = tr.in_param_class(m1, a, u, b)
        in2 = tr.in_param_class(m2, a, v, b)
        if in1 != in2:
            return f"sliding membership mismatch: {in1} vs {in2} f={inst.describe(f)}"
        if in1 and not eq(tr.param_trace(m1, a, u, b), tr.param_trace(m2, a, v, b)):
            return f"sliding trace mismatch: f={inst.describe(f)} w={inst.describe(w)}"

    run.sweep("sliding", _single(sliding_sample), sliding)

    def tightening(f, a, u, b, c, dd, g, k):
        m = inst.compose(
            inst.tensor(g, inst.identity(u)),
            inst.compose(f, inst.tensor(k, inst.identity(u))),
        )
        if not tr.in_param_class(m, dd, u, c):
            return "tightened morphism leaves the class"
        lhs = tr.param_trace(m, dd, u, c)
        rhs = inst.compose(g, inst.compose(tr.param_trace(f, a, u, b), k))
        if not eq(lhs, rhs):
            return f"tightening broken: f={inst.describe(f)} g={inst.describe(g)} k={inst.describe(k)}"

    run.sweep("tightening",
              _then(framed, lambda rng, f, a, u, b, c, dd:
                    (inst.sample_hom(rng, b, c), inst.sample_hom(rng, dd, a))),
              tightening)

    return run.finish()


def find_nuclear_factorization(
    inst: CategoryInstance,
    nuc: NuclearStructure,
    h,
) -> FactorizationResult:
    """Factor h = g o f with both factors in the distinguished ideal.

    The ideal absorbs composition, so h factors through it exactly when
    h is itself distinguished; the instance's closed form then supplies
    the factors.
    """
    if not nuc.is_nuclear(h):
        return FactorizationResult(False)
    return nuc.factorize(h)
