"""Safety net for the trusted builders of finrel, pinj and xrel.

Model operations build their results through private builders that
skip constructor validation.  These tests swap each builder for one
that goes through the validating constructor and also demands the
constructor's normal form, then rerun the law checks: the verdicts must
not change, and one invalid or unnormalised value fails the run.
"""

import dataclasses

from nucleal import cli, finrel, pinj, xrel
from nucleal.core import harness
from nucleal.core.errors import InvariantViolation

BUILDERS = (
    (finrel, "_mk", finrel.Relation),
    (finrel, "_mk_set", finrel.FinSet),
    (pinj, "_mk", pinj.PartialInjection),
    (xrel, "_mk", xrel.XRelMorphism),
    (xrel, "_mk_obj", xrel.CrossedMSet),
)

# large enough that every enumerable sub-law on sets of size <= 2 is swept
EXHAUSTIVE_BUDGET = 400_000
SMALL_BUDGET = 40


def _validating(cls):
    names = [f.name for f in dataclasses.fields(cls)]

    def build(*values):
        value = cls(*values)
        if tuple(getattr(value, n) for n in names) != values:
            raise InvariantViolation(
                f"{cls.__name__} built outside its normal form: {values!r}"
            )
        return value

    return build


def _validate_builders(monkeypatch):
    for module, name, cls in BUILDERS:
        monkeypatch.setattr(module, name, _validating(cls))


def _all_checks(structures, budget, max_size=None):
    inst, nuc, tr = structures
    reps = [
        harness.check_star_laws(inst, budget, 1, max_size=max_size),
        harness.check_nuclear_axioms(inst, nuc, budget, 1, max_size=max_size),
        harness.check_sliding(inst, nuc, SMALL_BUDGET, 1),
        harness.check_tracedness(inst, nuc, tr, SMALL_BUDGET, 1),
        harness.check_trace_axioms(inst, nuc, tr, SMALL_BUDGET, 1),
    ]
    if tr.has_param:
        reps.append(
            harness.check_param_trace_axioms(inst, tr, SMALL_BUDGET, 1, max_size=2)
        )
    return reps


def _reports():
    reps = []
    for mod in (pinj, finrel):
        reps += _all_checks(mod.structures(), EXHAUSTIVE_BUDGET, max_size=2)
    for nmod in (2, 3, 4):
        reps += _all_checks(xrel.structures(xrel.cyclic_monoid(nmod)), SMALL_BUDGET)
    reps += cli._xrel_audit_reports()
    return reps


def _signature(reps):
    return [(r.law, r.cases, r.failures, r.flags) for r in reps]


def test_validated_builders_change_no_verdict(monkeypatch):
    trusted = _reports()
    _validate_builders(monkeypatch)
    checked = _reports()
    assert not [
        f for r in checked for f in r.failures if "InvariantViolation" in f
    ]
    assert all(r.ok or r.is_finding for r in checked)
    assert _signature(checked) == _signature(trusted)
    assert any(r.is_finding for r in checked)  # the Z4 audit still finds its gap


def test_validated_builders_catch_unsorted_converse(monkeypatch):
    def converse(f):  # seeded fault: the pairs are not re-sorted
        return pinj._mk(f.target, f.source, tuple((j, i) for i, j in f.pairs))

    monkeypatch.setattr(pinj, "converse", converse)
    _validate_builders(monkeypatch)
    inst, _, _ = pinj.structures()
    rep = harness.check_star_laws(inst, EXHAUSTIVE_BUDGET, 1, max_size=2)
    assert any("InvariantViolation" in f for f in rep.failures)
