"""Command-line front end.

Morphism files are JSON manifests {"schema", "category", "value"} or
bare module documents accompanied by --category.  Exit codes: 0 success
(documented findings included), 1 verification failures, 2 parse errors
or unknown suites, 3 shape mismatches, 4 invariant violations, 5
operations outside the distinguished or trace class.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from nucleal import cjsl, drelnum, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core import harness, parallel, scalars
from nucleal.core.errors import (
    InvariantViolation,
    ParseError,
    ShapeMismatch,
    TraceClassError,
    UnsupportedCheck,
)

SCHEMA = "nucleal/1"
REPORT_SCHEMA = "nucleal-report/1"

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_INVARIANT = 4
EXIT_CLASS = 5


class Category:
    """Per-instance hooks for file parsing and structure access."""

    def __init__(self, name, parse, dump, parse_obj, make):
        self.name = name
        self.parse = parse
        self.dump = dump
        self.parse_obj = parse_obj
        self.make = make
        self._made = None

    def structures(self):
        if self._made is None:
            self._made = self.make()
        return self._made


def _xrel_parse_obj(data):
    if not isinstance(data, dict) or "monoid" not in data or "object" not in data:
        raise ParseError("crossed-set object document needs monoid and object")
    mon = xrel.monoid_from_json(data["monoid"])
    return xrel.object_from_json(data["object"], mon)


def _hilb_parse_obj(data):
    if not isinstance(data, int) or isinstance(data, bool) or data < 0:
        raise ParseError("a dimension object must be a nonnegative integer")
    return data


CATEGORIES = {
    "finrel": Category(
        "finrel", finrel.from_json, finrel.to_json,
        finrel.finset_from_json, finrel.structures,
    ),
    "pinj": Category(
        "pinj", pinj.from_json, pinj.to_json,
        finrel.finset_from_json, pinj.structures,
    ),
    "xrel": Category(
        "xrel", xrel.from_json, xrel.to_json,
        _xrel_parse_obj, xrel.structures,
    ),
    "finhilb": Category(
        "finhilb", finhilb.from_json, finhilb.to_json,
        _hilb_parse_obj, finhilb.structures,
    ),
    "finstoch": Category(
        "finstoch", finstoch.from_json, finstoch.to_json,
        finstoch.space_from_json, finstoch.structures,
    ),
    "drelnum": Category(
        "drelnum", drelnum.from_json, drelnum.to_json,
        drelnum.interval_from_json, drelnum.structures,
    ),
    "cjsl": Category(
        "cjsl", cjsl.supmap_from_json, cjsl.supmap_to_json,
        cjsl.lattice_from_json, None,
    ),
}

SUITES = (
    "star-laws", "nuclear", "sliding", "traced", "trace-axioms",
    "param-trace", "cjsl-hr", "xrel-audit", "stoch-monad", "drel-numeric",
    "all",
)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _category_of(doc, flag_value):
    name = None
    if isinstance(doc, dict) and "category" in doc:
        name = doc["category"]
        if not isinstance(name, str):
            raise ParseError(f"category must be a string, not {name!r}")
        if flag_value and flag_value != name:
            raise ParseError(
                f"file says category {name!r} but --category is {flag_value!r}"
            )
    else:
        name = flag_value
    if name is None:
        raise ParseError("no category: pass --category or use a manifest file")
    if name not in CATEGORIES:
        raise ParseError(f"unknown category {name!r}")
    return CATEGORIES[name]


def _payload(doc):
    if isinstance(doc, dict) and "value" in doc:
        return doc["value"]
    return doc


def _decode(cat: Category, parse, doc):
    # a field of the wrong JSON type can reach arithmetic or iteration
    # before the parser's own checks name it
    try:
        return parse(_payload(doc))
    except TypeError as exc:
        raise ParseError(f"malformed {cat.name} document: {exc}") from exc


def _read_morphism(path, flag_value):
    doc = _load_json(path)
    cat = _category_of(doc, flag_value)
    return cat, _decode(cat, cat.parse, doc)


def _read_object(path, cat: Category):
    return _decode(cat, cat.parse_obj, _load_json(path))


def _write_out(doc, out):
    text = json.dumps(doc, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    _write_file(out, text)


def _write_file(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _manifest(cat: Category, value) -> dict:
    return {"schema": SCHEMA, "category": cat.name, "value": value}


def _render_trace(kind: str, value) -> str:
    # boolean traces print as the unit scalar they denote
    if kind == scalars.BOOL:
        return "id" if value else "0"
    return scalars.render(kind, value)


def _fixture(name: str):
    return _load_json(str(resources.files("nucleal") / "fixtures" / name))


# -- commands ---------------------------------------------------------------


def cmd_compose(args) -> int:
    cat, f = _read_morphism(args.f, args.category)
    cat2, g = _read_morphism(args.g, args.category or cat.name)
    if cat2 is not cat:
        raise ParseError("the two morphisms live in different categories")
    if cat.name == "cjsl":
        out = cjsl.compose_sup(f, g)
        _write_out(_manifest(cat, cat.dump(out)), args.out)
        return 0
    inst, _, _ = cat.structures()
    if not inst.obj_eq(inst.target(f), inst.source(g)):
        raise ShapeMismatch(
            "cannot compose: first target is "
            f"{inst.describe_obj(inst.target(f))}, second source is "
            f"{inst.describe_obj(inst.source(g))}"
        )
    out = inst.compose(g, f)
    _write_out(_manifest(cat, cat.dump(out)), args.out)
    return 0


def cmd_trace(args) -> int:
    cat, h = _read_morphism(args.h, args.category)
    if cat.name == "cjsl":
        raise UnsupportedCheck("the lattice instance carries no trace operator")
    inst, _, tr = cat.structures()
    if not inst.obj_eq(inst.source(h), inst.target(h)):
        raise ShapeMismatch(
            f"trace needs an endomorphism: source is "
            f"{inst.describe_obj(inst.source(h))}, target is "
            f"{inst.describe_obj(inst.target(h))}"
        )
    if not tr.in_trace_class(h):
        # the trace class is the ideal the nuclear maps generate, so
        # nothing outside it factors through nuclear maps either
        raise TraceClassError(
            "endomorphism is outside the trace class: "
            "no nuclear factorization exists"
        )
    print(_render_trace(inst.scalar_kind, tr.trace(h)))
    return 0


def cmd_transpose(args) -> int:
    cat, m = _read_morphism(args.m, args.category)
    if cat.name in ("cjsl", "drelnum"):
        raise UnsupportedCheck(
            f"the {cat.name} instance has no transpose (no unit object)"
        )
    inst, nuc, _ = cat.structures()
    if args.inverse:
        if not args.left or not args.right:
            raise ParseError("--inverse needs --left and --right object files")
        a = _read_object(args.left, cat)
        b = _read_object(args.right, cat)
        out = nuc.theta_inv(m, a, b)
    else:
        if not nuc.is_nuclear(m):
            raise UnsupportedCheck(
                "morphism is not in the distinguished ideal; no transpose"
            )
        out = nuc.theta(m)
    _write_out(_manifest(cat, cat.dump(out)), args.out)
    return 0


def cmd_check_nuclear(args) -> int:
    cat, f = _read_morphism(args.f, args.category)
    if cat.name == "cjsl":
        res = cjsl.hr_nuclear(f)
        if res.nuclear:
            # the least witness always preserves sups (see the cjsl docstring)
            print(f"nuclear: yes (witness {list(res.witness_values)}, sup-map)")
        else:
            print("nuclear: no (exhaustive witness search)")
        return 0
    inst, nuc, _ = cat.structures()
    if nuc.is_nuclear(f):
        print("nuclear: yes")
        return 0
    print("nuclear: no")
    if inst.obj_eq(inst.source(f), inst.target(f)):
        # the ideal absorbs composition, so no factorization through it exists
        print("and it admits no nuclear factorization")
    return 0


def cmd_disintegrate(args) -> int:
    cat, m = _read_morphism(args.m, args.category or "finstoch")
    if cat.name != "finstoch":
        raise ParseError("disintegrate applies to the stochastic instance only")
    q1, q2 = finstoch.disintegrate(m)
    doc = {
        "schema": SCHEMA,
        "category": "finstoch",
        "forward": finstoch.kernel_to_json(q1),
        "backward": finstoch.kernel_to_json(q2),
    }
    _write_out(doc, args.out)
    return 0


# -- verification suites ----------------------------------------------------


def _suite_instances():
    out = [finrel.structures(), pinj.structures()]
    for nmod in (2, 3, 4):
        out.append(xrel.structures(xrel.cyclic_monoid(nmod)))
    out.append(finhilb.structures())
    out.append(finstoch.structures())
    out.append(drelnum.structures())
    return out


def _xrel_audit_reports():
    doc = _fixture("z4_audit.json")
    mon = xrel.monoid_from_json(doc["monoid"])
    left = xrel.object_from_json(doc["left"], mon)
    right = xrel.object_from_json(doc["right"], mon)
    reports = [xrel.theta_bijectivity_report(left, right)]
    z2 = xrel.cyclic_monoid(2)
    small = [xrel.trivial_object(z2, ("p",), (d,)) for d in (0, 1)]
    small.append(xrel.trivial_object(z2, ("p", "q"), (0, 1)))
    for a in small:
        for b in small:
            reports.append(xrel.theta_bijectivity_report(a, b))
    return reports


def _stoch_monad_reports(budget, seed):
    doc = _fixture("massloss.json")
    f = finstoch.from_json(doc["first"])
    g = finstoch.from_json(doc["second"])
    return [
        finstoch.check_giry_laws(budget, seed),
        finstoch.mass_loss_report(f, g),
    ]


def _one(check, *args, **kwargs):
    """A job that runs one check and returns its report."""
    return lambda: [check(*args, **kwargs)]


def _cjsl_reports():
    lats = cjsl.enumerate_lattices(5)
    return [
        cjsl.check_characterization(5, lats),
        cjsl.check_closure_lemma(4, lats),
        cjsl.check_hr_wellformed(4, lats),
        cjsl.check_galois(5, lats),
    ]


#: (suite, harness check, the slots of (inst, nuc, tr) it takes), in
#: report order; each gives one job per suite instance
_HARNESS_SUITES = (
    ("star-laws", "check_star_laws", (0,)),
    ("nuclear", "check_nuclear_axioms", (0, 1)),
    ("sliding", "check_sliding", (0, 1)),
    ("traced", "check_tracedness", (0, 1, 2)),
    ("trace-axioms", "check_trace_axioms", (0, 1, 2)),
    ("param-trace", "check_param_trace_axioms", (0, 2)),
)


def suite_jobs(name, budget=200, seed=1):
    """The suite as zero-argument jobs, in report order.

    Each job returns a list of reports and shares no state with the
    others that its reports depend on: every check seeds its own
    generator, so a job gives the same reports in whichever process,
    and after whichever other jobs, it runs.
    """
    jobs = []
    instances = _suite_instances()
    for suite, check_name, slots in _HARNESS_SUITES:
        if name not in (suite, "all"):
            continue
        # looked up here, so that a check swapped on `harness` is the one run
        check = getattr(harness, check_name)
        for structures in instances:
            args = [structures[i] for i in slots]
            if suite != "param-trace":
                jobs.append(_one(check, *args, budget, seed))
            elif structures[2].has_param:
                # exhaustive member streams explode above two-element sets
                jobs.append(_one(check, *args, budget, seed, max_size=2))
    if name in ("cjsl-hr", "all"):
        jobs.append(_cjsl_reports)
    if name in ("xrel-audit", "all"):
        jobs.append(_xrel_audit_reports)
    if name in ("stoch-monad", "all"):
        jobs.append(lambda: _stoch_monad_reports(budget, seed))
    if name in ("drel-numeric", "all"):
        jobs.append(drelnum.fixture_reports)
    return jobs


def _run_share(jobs, w, k) -> dict:
    """Outcomes of jobs w, w + k, ... by index: a list of reports, or the
    exception the job raised.  Stops at the first exception, since no
    later job of the share can come first in job order."""
    out = {}
    for i in range(w, len(jobs), k):
        try:
            out[i] = jobs[i]()
        except Exception as exc:
            out[i] = exc
            break
    return out


def run_suite(name, budget=200, seed=1):
    """The suite's reports, in job order, computed on every CPU this
    process may run on.

    With k CPUs (at most one per job), `parallel.fork_map` runs jobs w,
    w + k, ... in worker w, worker 0 being this process.  The split is a
    fixed function of the job list and k, so each process does the same
    work on every run, and the sweeps of the jobs stay serial.  If jobs
    raise, the exception of the first of them in job order is raised,
    as a serial run would; a child that dies or sends no complete result
    raises RuntimeError.
    """
    jobs = suite_jobs(name, budget, seed)
    k = max(1, min(parallel.cpus(), len(jobs)))
    outcomes = {}
    for share in parallel.fork_map(lambda w: _run_share(jobs, w, k), k):
        outcomes.update(share)
    reports = []
    for i in range(len(jobs)):
        out = outcomes[i]
        if isinstance(out, Exception):
            raise out
        reports += out
    return reports


def _emit_reports(reports, fmt, out=None, extra=None):
    failed = [r for r in reports if not r.ok and not r.is_finding]
    if fmt == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "reports": [r.to_dict() for r in reports],
            "failures": len(failed),
        }
        if extra:
            doc.update(extra)
        _write_out(doc, out)
    else:
        for r in reports:
            print(r.summary())
        findings = sum(1 for r in reports if r.is_finding)
        print(
            f"{len(reports)} reports, {len(failed)} failed, "
            f"{findings} documented findings"
        )
    return EXIT_FAIL if failed else 0


def _check_bounds(budget) -> None:
    """A negative budget would pass vacuously, so it is an input error."""
    if budget < 0:
        raise ParseError(f"--budget must be nonnegative, not {budget}")


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}"
        )
    _check_bounds(args.budget)
    t0 = time.perf_counter()
    reports = run_suite(args.suite, args.budget, args.seed)
    code = _emit_reports(reports, args.format)
    if args.format == "text":
        print(f"total time {time.perf_counter() - t0:.1f}s")
    return code


def cmd_report(args) -> int:
    _check_bounds(args.budget)
    if args.out:
        # an --out that cannot be written fails before the run, not after it
        _write_file(args.out, "")
    reports = run_suite("all", args.budget, args.seed)
    return _emit_reports(
        reports, "json", args.out,
        extra={"budget": args.budget, "seed": args.seed},
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nucleal",
        description="compose, trace, transpose, and verify categorical models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cat_flag(p):
        p.add_argument("--category", choices=sorted(CATEGORIES), default=None)

    p = sub.add_parser("compose", help="compose two morphism files")
    cat_flag(p)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("trace", help="trace of an endomorphism")
    cat_flag(p)
    p.add_argument("h")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("transpose", help="transpose a distinguished morphism")
    cat_flag(p)
    p.add_argument("m")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--left", default=None, help="left object file (inverse)")
    p.add_argument("--right", default=None, help="right object file (inverse)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_transpose)

    p = sub.add_parser("check-nuclear", help="membership in the distinguished ideal")
    cat_flag(p)
    p.add_argument("f")
    p.set_defaults(fn=cmd_check_nuclear)

    p = sub.add_parser("disintegrate", help="conditional kernels of a joint measure")
    cat_flag(p)
    p.add_argument("m")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_disintegrate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="write the full JSON verification report")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeMismatch as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (TraceClassError, UnsupportedCheck) as exc:
        print(f"outside the supported class: {exc}", file=sys.stderr)
        return EXIT_CLASS
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
