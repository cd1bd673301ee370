"""Generic law-checking harness, exercised on real and sabotaged instances."""

import hashlib
import os

import numpy as np
import pytest

import _forks
import _intern_counts
from nucleal import cli, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core import harness, parallel
from nucleal.core.errors import UnsupportedCheck
from nucleal.core.instance import TraceStructure
from nucleal.core.report import AxiomReport
from nucleal.core.rng import Lcg


class BrokenStarPinj(pinj.PInjInstance):
    """Swaps endpoints without flipping the graph: a wrong involution."""

    def star(self, f):
        return pinj.PartialInjection(f.target, f.source, f.pairs)

    def sample_object(self, rng):
        return pinj.fin_set(2)

    def objects(self, max_size=None):
        return [pinj.fin_set(2)]


def test_star_check_catches_sabotage():
    rep = harness.check_star_laws(BrokenStarPinj(), 2000, 5)
    assert rep.cases > 0
    assert not rep.ok


def test_star_check_passes_honest_instance():
    rep = harness.check_star_laws(pinj.instance(), 2000, 5, max_size=2)
    assert rep.ok and rep.cases > 0


def test_determinism_modulo_elapsed():
    a = harness.check_star_laws(pinj.instance(), 400, 9).to_dict()
    b = harness.check_star_laws(pinj.instance(), 400, 9).to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def test_zero_budget_never_fails():
    rep = harness.check_star_laws(pinj.instance(), 0, 1)
    assert rep.ok


def test_factorization_two_point_domain_conclusively_absent():
    inst, nuc, _ = pinj.structures()
    two = pinj.fin_set(2)
    res = harness.find_nuclear_factorization(inst, nuc, pinj.identity(two))
    assert not res.found


def test_factorization_empty_map_found():
    inst, nuc, _ = pinj.structures()
    two = pinj.fin_set(2)
    h = pinj.empty(two, two)
    res = harness.find_nuclear_factorization(inst, nuc, h)
    assert res.found
    assert inst.mor_eq(inst.compose(res.right, res.left), h)
    assert nuc.is_nuclear(res.left) and nuc.is_nuclear(res.right)


def test_factorization_matrix_and_derived_trace():
    inst, nuc, _ = finhilb.structures()
    h = finhilb.from_rows([[1.0, 2.0], [0.5, -1.0j]])
    res = harness.find_nuclear_factorization(inst, nuc, h)
    assert res.found
    back = inst.compose(res.right, res.left)
    assert finhilb.max_abs_diff(back, h) < 1e-10
    derived = harness.derive_trace(inst, nuc, res.left, res.right)
    assert abs(derived - finhilb.trace(h)) < 1e-8


def _factorization_cases(mod):
    inst, _, _ = mod.structures()
    objs = inst.objects(2)
    if objs is not None:
        return [h for a in objs for b in objs for h in inst.enum_hom(a, b)]
    rng = Lcg(3)
    cases = []
    for _ in range(40):
        a, b = inst.sample_object(rng), inst.sample_object(rng)
        cases.append(inst.sample_hom(rng, a, b))
        cases.append(inst.sample_hom(rng, a, a))
    return cases


@pytest.mark.parametrize(
    "mod",
    [finrel, pinj, finstoch, finhilb, xrel],
    ids=["finrel", "pinj", "finstoch", "finhilb", "xrel"],
)
def test_factorization_matches_ideal(mod):
    inst, nuc, _ = mod.structures()
    found = 0
    for h in _factorization_cases(mod):
        res = harness.find_nuclear_factorization(inst, nuc, h)
        assert res.found == nuc.is_nuclear(h)
        if not res.found:
            continue
        found += 1
        assert nuc.is_nuclear(res.left) and nuc.is_nuclear(res.right)
        assert inst.obj_eq(inst.target(res.left), res.middle)
        assert inst.mor_eq(inst.compose(res.right, res.left), h)
    assert found > 0


def test_derive_trace_scaled_identity():
    inst, nuc, _ = finhilb.structures()
    s = 1 / np.sqrt(2)
    f = finhilb.from_rows([[s, 0.0], [0.0, s]])
    got = harness.derive_trace(inst, nuc, f, f)
    assert abs(got - 1.0) < 1e-10


def test_derive_trace_partial_injections():
    inst, nuc, _ = pinj.structures()
    two = pinj.fin_set(2)
    f = pinj.from_map(two, two, {0: 1})
    loop = pinj.from_map(two, two, {1: 0})
    stray = pinj.from_map(two, two, {0: 0})
    assert harness.derive_trace(inst, nuc, f, loop) is True
    assert harness.derive_trace(inst, nuc, f, stray) is False


def test_derive_trace_rejects_wide_factors():
    inst, nuc, _ = pinj.structures()
    two = pinj.fin_set(2)
    with pytest.raises(UnsupportedCheck):
        harness.derive_trace(inst, nuc, pinj.identity(two), pinj.empty(two, two))


def test_sliding_on_matrices():
    inst, nuc, _ = finhilb.structures()
    rep = harness.check_sliding(inst, nuc, 150, 11)
    assert rep.ok and rep.cases > 0


def test_report_failure_cap():
    rep = AxiomReport("demo", 0)
    for i in range(25):
        rep.add_failure(f"witness {i}")
    assert len(rep.failures) == 21
    assert rep.failures[-1] == "... further failures suppressed"
    assert not rep.ok


def test_report_summary_verdicts():
    ok = AxiomReport("demo", 3)
    assert ok.summary().startswith("PASS")
    bad = AxiomReport("demo", 3, failures=["x"])
    assert bad.summary().startswith("FAIL")
    noted = AxiomReport("demo", 3, flags=["documented-finding:example"])
    assert noted.summary().startswith("FINDING")
    assert noted.is_finding


def test_report_dict_round_trip():
    rep = AxiomReport("demo", 7, failures=["a"], elapsed=0.25, flags=["f"])
    assert AxiomReport.from_dict(rep.to_dict()) == rep


# -- case-stream pin ---------------------------------------------------------

#: sha256 of every case the runs below pass to a law, in order; recorded
#: on the per-shape stream builders this harness had before its single
#: spec-driven `_streams`, so any reordering or change of RNG draws shows
CASE_STREAM_DIGEST = (
    22464, "200ab1e770f0e9046231dd100747614c0ca1885293dd327ffa6d4130bb8c2675"
)


def _case_log(monkeypatch):
    # on one CPU, so that every case runs through this process's `_run`
    _forks.cpus(monkeypatch, 1)
    log = []
    run = harness._Runner._run

    def logged(self, name, fn, case):
        log.append(f"{name}:{case!r}")
        return run(self, name, fn, case)

    monkeypatch.setattr(harness._Runner, "_run", logged)
    return log


def test_case_streams_are_pinned(monkeypatch):
    log = _case_log(monkeypatch)
    for mod in (pinj, finrel):
        inst, nuc, _ = mod.structures()
        # exhaustive: every listed stream fits the budget
        harness.check_star_laws(inst, 100_000, 3, max_size=2)
        # mixed: some object tuples are swept, the rest sampled
        harness.check_nuclear_axioms(inst, nuc, 300, 3, max_size=3)
        harness.check_sliding(inst, nuc, 300, 3, max_size=3)
    for inst, nuc, _ in (finstoch.structures(), xrel.structures(xrel.cyclic_monoid(2))):
        # sampled: no object list at all
        harness.check_star_laws(inst, 60, 3)
        harness.check_nuclear_axioms(inst, nuc, 60, 3)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert (len(log), digest) == CASE_STREAM_DIGEST


#: the same pin over the trace checks; it logs only each case's first
#: entry (the member or first morphism), so the listed objects that
#: follow it may change shape without moving the digest
TRACE_CASE_STREAM_DIGEST = (
    6594, "60f30076ca762a665862de532515f24f1771a82508fbf9c2468752838f6857bd"
)


def test_trace_case_streams_are_pinned(monkeypatch):
    _forks.cpus(monkeypatch, 1)
    log = []
    run = harness._Runner._run

    def logged(self, name, fn, case):
        log.append(f"{name}:{case[0]!r}")
        return run(self, name, fn, case)

    monkeypatch.setattr(harness._Runner, "_run", logged)
    for mod in (pinj, finrel):
        inst, nuc, tr = mod.structures()
        harness.check_trace_axioms(inst, nuc, tr, 300, 3, max_size=2)
        harness.check_param_trace_axioms(inst, tr, 300, 3, max_size=2)
    for inst, nuc, tr in (finstoch.structures(), xrel.structures(xrel.cyclic_monoid(2))):
        harness.check_trace_axioms(inst, nuc, tr, 60, 3)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert (len(log), digest) == TRACE_CASE_STREAM_DIGEST


#: sha256 of the ordered (law, cases, failures, flags) of every report of
#: `suite_jobs("all", 200, seed)`, the signature of `nucleal report
#: --budget 200`, per seed.  Every report passes but the documented
#: findings, so the two seeds agree; the case-stream pins above see the
#: draws.  ROADMAP item 1's unbiased `below` changes the signature and
#: must re-record this pin, with the new signature in CHANGES.  Recorded
#: once every report ran through `_Runner`, which prefixes the Z4
#: theta audit's witness with its sub-law, "onto: ".
REPORT_SIGNATURE_DIGESTS = {
    1: "94516fa95c7b649fea2813c5ae9efa4fc57bec2060c9d9727dca0488623990b2",
    7: "94516fa95c7b649fea2813c5ae9efa4fc57bec2060c9d9727dca0488623990b2",
}


def test_report_signatures_are_pinned():
    got = dict(zip(_intern_counts.SEEDS, _intern_counts.signatures()))
    assert got == REPORT_SIGNATURE_DIGESTS


# -- no listed stream is dropped once the budget runs out --------------------


def _sublaw_cases(monkeypatch) -> dict:
    """Cases run per enabled sub-law by the checks called after this, on
    one CPU."""
    _forks.cpus(monkeypatch, 1)
    cases = {}
    sweep, run = harness._Runner.sweep, harness._Runner._run

    def swept(self, name, streams, fn, enabled=True, note=None):
        if enabled:
            cases.setdefault(name, [])
        return sweep(self, name, streams, fn, enabled, note)

    def logged(self, name, fn, case):
        cases[name].append(case)
        return run(self, name, fn, case)

    monkeypatch.setattr(harness._Runner, "sweep", swept)
    monkeypatch.setattr(harness._Runner, "_run", logged)
    return cases


@pytest.mark.parametrize("model", [pinj, finrel], ids=["pinj", "finrel"])
def test_star_sublaws_run_past_the_budget(monkeypatch, model):
    cases = _sublaw_cases(monkeypatch)
    inst = model.instance()
    harness.check_star_laws(inst, 200, 1)
    assert [name for name, run in cases.items() if not run] == []
    assert {a.size for (a,) in cases["identities"]} == {a.size for a in inst.objects()}


def test_param_trace_sublaws_run_past_the_budget(monkeypatch):
    cases = _sublaw_cases(monkeypatch)
    inst, _, tr = finrel.structures()
    harness.check_param_trace_axioms(inst, tr, 200, 1, max_size=2)
    assert [name for name, run in cases.items() if not run] == []
    # every (a, u, b) among sets of size <= 2 has members, the empty relation;
    # the maps drawn to frame each member follow in the case
    reached = {tuple(x.size for x in case[1:4]) for case in cases["ideal-closure"]}
    assert len(reached) == 3 ** 3


@pytest.mark.parametrize("seed", [1, 7])
def test_param_trace_makes_only_the_relations_it_runs(monkeypatch, seed):
    # a triple of sets of size 2 holds 2^16 relations; the check draws from
    # each hom-set family and so makes a few relations per case, not all
    _forks.cpus(monkeypatch, 1)
    made = []
    from_mask = finrel._from_mask

    def counted(source, target, mask):
        made.append(mask)
        return from_mask(source, target, mask)

    monkeypatch.setattr(finrel, "_from_mask", counted)
    inst, _, tr = finrel.structures()
    rep = harness.check_param_trace_axioms(inst, tr, 200, seed, max_size=2)
    assert rep.cases == 1260
    assert len(made) < 3 * rep.cases


# -- a broken model yields a witness, not a crash ----------------------------


class RaisingTraceFinRel(finrel.FinRelTrace):
    def trace(self, h):
        raise RuntimeError("seeded trace fault")


def test_tracedness_reports_a_raising_trace():
    inst, nuc, _ = finrel.structures()
    rep = harness.check_tracedness(inst, nuc, RaisingTraceFinRel(inst, nuc), 50, 1)
    assert rep.law == "traced[finrel]" and rep.cases > 0 and not rep.ok
    assert rep.failures[0] == "tracedness: exception RuntimeError: seeded trace fault"


def test_a_finding_needs_its_own_witnesses_and_no_crash():
    missing = lambda: "state outside the image"
    crash = lambda: 1 / 0

    def is_finding(*sublaws):
        run = harness._Runner("demo")
        for name, fn in sublaws:
            run.each(name, [()], fn)
        run.finding("onto", "demo")
        return run.finish().is_finding

    assert is_finding(("roundtrip", lambda: None), ("onto", missing))
    assert not is_finding(("onto", lambda: None))
    assert not is_finding(("roundtrip", missing), ("onto", missing))
    assert not is_finding(("roundtrip", crash), ("onto", missing))
    assert not is_finding(("onto", crash))


class NoFactorizationsTrace(TraceStructure):
    def trace(self, h):
        return finrel.trace_endo(h)


def test_tracedness_needs_a_factorization_sampler():
    # a model that forgets the sampler fails loudly, not with a vacuous pass
    inst, nuc, _ = finrel.structures()
    with pytest.raises(NotImplementedError):
        harness.check_tracedness(inst, nuc, NoFactorizationsTrace(inst, nuc), 50, 1)


class UnlistedFinRel(finrel.FinRelInstance):
    def objects(self, max_size=None):
        return None


def test_param_trace_needs_listed_objects():
    inst = UnlistedFinRel()
    tr = finrel.FinRelTrace(inst, finrel.FinRelNuclear(inst))
    assert tr.has_param
    with pytest.raises(UnsupportedCheck):
        harness.check_param_trace_axioms(inst, tr, 100, 1)


# -- large exhaustive sweeps split over CPUs ---------------------------------


def _faulty(mod):
    """The model's structures with a seeded compose fault: it raises on
    maps out of a one-point set into a two-point one, and transposes
    composites between two-point sets."""
    inst, nuc, _ = mod.structures()

    class FaultyCompose(type(inst)):
        def compose(self, g, f):
            if f.source.size == 1 and g.target.size == 2:
                raise RuntimeError(f"seeded compose fault on f={self.describe(f)}")
            out = super().compose(g, f)
            if f.source.size == 2 and g.target.size == 2:
                return self.star(out)
            return out

    faulty = FaultyCompose()
    return faulty, type(nuc)(faulty)


def _exhaustive_reports(inst, nuc, size):
    return [
        harness.check_star_laws(inst, 400_000, 1, max_size=size),
        harness.check_nuclear_axioms(inst, nuc, 400_000, 1, max_size=size),
    ]


def _sig(reports):
    return [(r.law, r.cases, r.failures, r.flags) for r in reports]


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("mod,size", [(pinj, 3), (finrel, 2)], ids=["pinj", "finrel"])
def test_split_sweeps_give_the_one_cpu_reports(monkeypatch, mod, size, fault):
    inst, nuc = _faulty(mod) if fault else mod.structures()[:2]
    _forks.cpus(monkeypatch, 2)
    pids = _forks.forks_counted(monkeypatch)
    split = _exhaustive_reports(inst, nuc, size)
    assert pids  # some sweep was split
    _forks.no_child_left()
    _forks.cpus(monkeypatch, 1)
    assert _sig(split) == _sig(_exhaustive_reports(inst, nuc, size))
    if fault:
        nuclear = split[1]
        # the first sub-law is split, and its witnesses fill the cap
        assert len(nuclear.failures) == 21
        assert nuclear.failures[0].startswith("closure-compose: exception RuntimeError")
    else:
        assert all(r.ok for r in split)


def _demo_law(x):
    if x % 1000 == 999:
        raise ValueError(f"case {x}")
    if x % 601 == 0 or x % 1499 == 0:
        return [f"first of {x}", f"second of {x}"]


def _demo_sweep(fn=_demo_law, sampled=True, draw=None) -> harness._Runner:
    """6000 listed cases in two streams, with a sampled stream between
    them when `sampled`, each case followed by what `draw` draws."""
    run = harness._Runner("demo", 10_000, 1, 30)
    sample = (None, None, lambda rng: (rng.below(6000),))
    streams = [harness._listed(list(range(3000))), harness._listed(list(range(3000, 6000)))]
    if sampled:
        streams.insert(1, sample)
    run.sweep("demo", harness._then(streams, draw) if draw else streams, fn)
    return run


def _outcome(run):
    rep = run.finish()
    return rep.cases, rep.failures, rep.flags, run.failing, run.raised, run.rng.state


@pytest.mark.parametrize("sampled", [False, True], ids=["swept", "mixed"])
def test_split_merges_witnesses_in_case_order(monkeypatch, sampled):
    _forks.cpus(monkeypatch, 1)
    want = _outcome(_demo_sweep(sampled=sampled))
    _forks.cpus(monkeypatch, 2)
    pids = _forks.forks_counted(monkeypatch)
    got = _outcome(_demo_sweep(sampled=sampled))
    assert len(pids) == 1
    _forks.no_child_left()
    assert got == want
    # witnesses of both workers (odd and even cases) and a raising case
    # are kept, and the cap is reached
    assert {"demo: first of 0", "demo: first of 601"} <= set(got[1])
    assert any("exception ValueError" in f for f in got[1])
    assert got[1][-1] == "... further failures suppressed"


def test_draws_made_with_the_cases_split_as_on_one_cpu(monkeypatch):
    # one draw per case, swept or sampled: every share makes the same
    # cases, and the runner's generator ends where the one-CPU run's does
    draw = lambda rng, x: (rng.below(1000),)
    law = lambda x, r: _demo_law(x + r)
    _forks.cpus(monkeypatch, 1)
    want = _outcome(_demo_sweep(law, draw=draw))
    _forks.cpus(monkeypatch, 2)
    pids = _forks.forks_counted(monkeypatch)
    got = _outcome(_demo_sweep(law, draw=draw))
    assert len(pids) == 1
    _forks.no_child_left()
    assert got == want
    assert got[-1] != _outcome(_demo_sweep())[-1]  # the draws moved the generator


def test_one_worker_can_reach_the_cap_alone(monkeypatch):
    # witnesses of the even cases 0 .. 40 only, all in worker 0 of 2:
    # its 21st is what adds the suppression line
    def law(x):
        if x % 2 == 0 and x <= 40:
            return f"case {x}"

    _forks.cpus(monkeypatch, 1)
    want = _outcome(_demo_sweep(law, sampled=False))
    _forks.cpus(monkeypatch, 2)
    assert _outcome(_demo_sweep(law, sampled=False)) == want
    assert want[1][-1] == "... further failures suppressed"


def test_a_worker_that_dies_mid_sweep_raises(monkeypatch):
    here = os.getpid()

    def law(x):
        if os.getpid() != here and x > 3000:
            os._exit(3)

    _forks.cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="before sending its result"):
        _demo_sweep(law).finish()
    _forks.no_child_left()


def test_sweeps_inside_run_suite_stay_serial(monkeypatch):
    here = os.getpid()
    fork = os.fork

    def first_level_only():
        if os.getpid() != here:
            raise AssertionError("a worker forked")
        return fork()

    def job():
        return [_demo_sweep().finish()]

    _forks.cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", first_level_only)
    pids = _forks.forks_counted(monkeypatch)
    monkeypatch.setattr(cli, "suite_jobs", lambda *args: [job, job, job])
    reports = cli.run_suite("all")
    assert len(pids) == 2  # k workers for the jobs, none for the sweeps
    _forks.no_child_left()
    assert len({(r.cases, tuple(r.failures)) for r in reports}) == 1


def test_fork_map_runs_openblas_on_one_thread():
    get_threads = parallel._openblas_threads("get")
    if get_threads is None:
        pytest.skip("no OpenBLAS loaded")

    def share(w):
        np.ones((400, 400)) @ np.ones((400, 400))  # large enough to split
        return get_threads(), len(os.listdir("/proc/self/task"))

    got = parallel.fork_map(share, 2)
    _forks.no_child_left()
    assert [threads for threads, _ in got] == [1, 1]
    assert got[1][1] == 1  # the child started no BLAS thread


def test_a_sweep_forks_nothing_on_one_cpu(monkeypatch):
    def fork():
        raise AssertionError("forked on one CPU")

    _forks.cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", fork)
    assert _demo_sweep().finish().cases == 6010


def test_a_sweep_splits_over_no_more_cpus_than_its_cases_fill(monkeypatch):
    # 6000 cases fill two workers of SPLIT_MIN // 2, not eight
    _forks.cpus(monkeypatch, 8)
    pids = _forks.forks_counted(monkeypatch)
    assert _demo_sweep().finish().cases == 6010
    assert len(pids) == 1
    _forks.no_child_left()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_law_that_draws_trips_the_guard(monkeypatch, n_cpus):
    # on 2 CPUs only the forked worker runs the odd cases that draw
    run = harness._Runner("demo", 10_000, 1, 30)

    def law(x):
        if x % 2:
            run.rng.below(2)

    _forks.cpus(monkeypatch, n_cpus)
    with pytest.raises(RuntimeError, match="demo: a law drew from the runner's generator"):
        run.sweep("demo", [harness._listed(list(range(6000)))], law)
        run.finish()
    _forks.no_child_left()


@pytest.mark.parametrize("check", ["star-laws", "nuclear"])
def test_a_check_forks_once_for_all_its_sweeps(monkeypatch, check):
    # the check's sweeps, large and small, share one fork map
    inst, nuc, _ = pinj.structures()

    def report():
        if check == "star-laws":
            return harness.check_star_laws(inst, 400_000, 1, max_size=3)
        return harness.check_nuclear_axioms(inst, nuc, 400_000, 1, max_size=3)

    _forks.cpus(monkeypatch, 1)
    want = _sig([report()])
    _forks.cpus(monkeypatch, 2)
    pids = _forks.forks_counted(monkeypatch)
    got = _sig([report()])
    assert len(pids) == 1
    _forks.no_child_left()
    assert got == want


def _first(x):
    if x % 211 == 0:
        return f"first of {x}"


def _second(x):
    if x % 307 == 0:
        return f"second of {x}"


def _queue_two(run, second=_second) -> harness._Runner:
    """Queue two sub-laws of 3000 listed cases each on `run`: "first"
    leaves 15 witnesses, and `_second` 10."""
    run.sweep("first", [harness._listed(list(range(3000)))], _first)
    run.sweep("second", [harness._listed(list(range(3000, 6000)))], second)
    return run


def test_queued_sublaws_merge_in_queue_order(monkeypatch):
    _forks.cpus(monkeypatch, 1)
    want = _outcome(_queue_two(harness._Runner("demo", 10_000, 1, 30)))
    _forks.cpus(monkeypatch, 2)
    pids = _forks.forks_counted(monkeypatch)
    got = _outcome(_queue_two(harness._Runner("demo", 10_000, 1, 30)))
    assert len(pids) == 1
    _forks.no_child_left()
    assert got == want
    # the report-wide cap of 20 falls inside the second sub-law
    assert got[1] == ([f"first: first of {x}" for x in range(0, 3000, 211)]
                      + [f"second: second of {x}" for x in range(3070, 4605, 307)]
                      + ["... further failures suppressed"])
    assert got[3] == {"first", "second"}
    assert got[2] == ["exhaustive:first", "exhaustive:second"]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_the_guard_names_the_queued_sublaw_that_drew(monkeypatch, n_cpus):
    run = harness._Runner("demo", 10_000, 1, 30)

    def law(x):
        if x % 2:
            run.rng.below(2)

    _forks.cpus(monkeypatch, n_cpus)
    _queue_two(run, law)
    with pytest.raises(RuntimeError, match="^second: a law drew from the runner's generator"):
        run.finish()
    _forks.no_child_left()


def test_trace_checks_run_under_a_five_argument_sweep_wrapper(monkeypatch):
    # a wrapper with `sweep`'s signature, as a profiler installs one, sees
    # every sweep of the checks whose cases carry drawn maps, and changes
    # no report
    sweep = harness._Runner.sweep
    names = []
    flagged = []  # (report, sub-law) whose exhaustive flag was set on return

    def counted(runner, name, streams, fn, enabled=True, note=None):
        names.append(name)
        out = sweep(runner, name, streams, fn, enabled, note)
        if f"exhaustive:{name}" in runner.report.flags:
            flagged.append((runner.report.law, name))
        return out

    def reports():
        return [r for mod in (pinj, finrel) for inst, nuc, tr in [mod.structures()]
                for r in (harness.check_trace_axioms(inst, nuc, tr, 300, 3, max_size=2),
                          harness.check_param_trace_axioms(inst, tr, 300, 3, max_size=2))]

    _forks.cpus(monkeypatch, 2)
    want = _sig(reports())
    monkeypatch.setattr(harness._Runner, "sweep", counted)
    got = reports()
    assert _sig(got) == want
    assert {"ideal", "tensor", "ideal-closure", "superposing", "tightening"} <= set(names)
    assert flagged and flagged == [(r.law, f.removeprefix("exhaustive:"))
                                   for r in got for f in r.flags
                                   if f.startswith("exhaustive:")]
