"""Traced runs: per-layer time and counts, measured from outside the program.

Nothing under `src/` is edited.  Calls into each layer are timed by
wrapping the objects and module attributes through which callers reach
that layer:

* model calls go through proxies of the `(inst, nuc, tr)` triples;
  `nuc.inst` and `tr.nuclear` hand out proxies too, otherwise model time
  spent behind the harness's `_NucView` would be charged to the harness;
* the harness checks, `find_nuclear_factorization`, each suite and each
  `cli.main` call are spans;
* model and cjsl module functions called by the CLI, and the `parse` and
  `dump` hooks of `cli.CATEGORIES`, are leaf calls.

A leaf call made while another leaf call runs is charged to the outer
one only.  Leaf calls are summed per (layer, group); their time is also
charged to the innermost open span, so a span's self time is its
duration minus its children.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

MODELS = ("finrel", "pinj", "xrel", "finhilb", "finstoch", "drelnum")
GROUPS = ("compose", "star", "tensor", "eq", "transpose", "trace", "enum", "sample")
_GROUP_OF = {
    "compose": "compose",
    "star": "star", "conj": "star",
    "tensor": "tensor", "tensor_obj": "tensor", "symmetry": "tensor",
    "reindex": "tensor",
    "mor_eq": "eq", "scalar_eq": "eq",
    "theta": "transpose", "theta_inv": "transpose", "is_nuclear": "transpose",
    "trace": "trace", "in_trace_class": "trace", "derived_trace": "trace",
    "param_trace": "trace", "in_param_class": "trace",
}
_CJSL_GROUP_OF = {"check_galois": "galois", "hr_nuclear": "hr_nuclear"}
_CHECKS = (
    "check_star_laws", "check_nuclear_axioms", "check_sliding",
    "check_tracedness", "check_trace_axioms", "check_param_trace_axioms",
)


def model_group(name: str) -> str:
    if name in _GROUP_OF:
        return _GROUP_OF[name]
    if name.startswith(("enum_", "count_")):
        return "enum"
    if name.startswith("sample_"):
        return "sample"
    return "other"


def suite_names(cli) -> list[str]:
    """The suites that `nucleal report` runs, in its order."""
    return [name for name in cli.SUITES if name != "all"]


def per_layer_names(suites) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric `Tracer.end_pass` reports."""
    out = []
    for model in MODELS:
        out.append((f"{model}.busy_s", "s", "lower"))
        for group in GROUPS:
            out.append((f"{model}.{group}.busy_s", "s", "lower"))
            out.append((f"{model}.{group}.calls", "count", "lower"))
    out += [
        ("harness.self_s", "s", "lower"),
        ("harness.cases", "count", "higher"),
        ("harness.exhaustive_frac", "ratio", "higher"),
        ("harness.sample_yield", "ratio", "higher"),
        ("harness.factor_search.busy_s", "s", "lower"),
        ("harness.factor_search.calls", "count", "lower"),
        ("harness.factor_search.found_frac", "ratio", "higher"),
        ("cli.self_s", "s", "lower"),
        ("cli.parse.busy_s", "s", "lower"),
        ("cli.dump.busy_s", "s", "lower"),
        ("cjsl.busy_s", "s", "lower"),
        ("cjsl.galois.busy_s", "s", "lower"),
        ("cjsl.hr_nuclear.busy_s", "s", "lower"),
        ("cjsl.hr_nuclear.calls", "count", "lower"),
    ]
    out += [(f"suite.{name}.s", "s", "lower") for name in suites]
    out.append(("trace.wall_s", "s", "lower"))
    return out


class _TimedIter:
    """Iterator whose every `next()` is charged to one leaf key."""

    __slots__ = ("_tracer", "_key", "_it")

    def __init__(self, tracer, key, it):
        self._tracer, self._key, self._it = tracer, key, it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.leaf(self._key, self._it.__next__, (), {}, count=False)


class _Proxy:
    """Forwards attribute access; public methods come back timed."""

    def __init__(self, tracer, target, layer, group_of, **links):
        d = self.__dict__
        d["_tracer"], d["_target"] = tracer, target
        d["_layer"], d["_group_of"] = layer, group_of
        d.update(links)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        key = (self._layer, self._group_of(name))
        tracer = self._tracer

        def timed(*args, **kwargs):
            return tracer.leaf(key, value, args, kwargs)

        self.__dict__[name] = timed
        return timed

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent, child_s]
        self._open: list[int] = []
        self._in_leaf = False
        self._pass_start = 0
        self.suites: list[str] = []
        self.busy: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording ----------------------------------------------------------

    def leaf(self, key, fn, args, kwargs, count=True):
        if self._in_leaf:
            return fn(*args, **kwargs)
        self._in_leaf = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._in_leaf = False
            self.busy[key] += dt
            if count:
                self.calls[key] += 1
            if self._open:
                self.spans[self._open[-1]][5] += dt
        if count:
            if key[1] == "sample" and out is not None:
                self.counts["sample_ok"] += 1
            if hasattr(out, "__next__"):
                return _TimedIter(self, key, out)
        return out

    def span(self, layer, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        rec = [layer, name, perf_counter(), 0.0, parent, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent][5] += rec[3] - rec[2]

    # -- wrapping -----------------------------------------------------------

    def triple(self, structures):
        inst, nuc, tr = structures
        model = type(inst).__module__.rsplit(".", 1)[-1]
        pinst = _Proxy(self, inst, model, model_group)
        pnuc = _Proxy(self, nuc, model, model_group, inst=pinst)
        ptr = _Proxy(self, tr, model, model_group, inst=pinst, nuclear=pnuc)
        return pinst, pnuc, ptr

    def check(self, name, fn):
        def timed(*args, **kwargs):
            rep = self.span("harness", name, fn, *args, **kwargs)
            self.counts["cases"] += rep.cases
            return rep

        return timed

    def factor_search(self, fn):
        def timed(*args, **kwargs):
            found = self.span("harness", "factor_search", fn, *args, **kwargs)
            self.counts["factor_found"] += bool(found.found)
            return found

        return timed

    def count_sweeps(self, runner_cls):
        """Count sub-laws run and those swept exhaustively."""
        sweep = runner_cls.sweep
        tracer = self

        def counted(runner, name, streams, fn, enabled=True, note=None):
            before = len(runner.report.flags)
            out = sweep(runner, name, streams, fn, enabled, note)
            if enabled:
                tracer.counts["sublaws"] += 1
                if f"exhaustive:{name}" in runner.report.flags[before:]:
                    tracer.counts["exhaustive"] += 1
            return out

        runner_cls.sweep = counted

    def install(self, cli, harness):
        """Route every layer the CLI and the harness reach through this tracer."""
        self.suites = suite_names(cli)
        for name in _CHECKS:
            setattr(harness, name, self.check(name, getattr(harness, name)))
        harness.find_nuclear_factorization = self.factor_search(
            harness.find_nuclear_factorization
        )
        runner = getattr(harness, "_Runner", None)
        if runner is not None:
            self.count_sweeps(runner)
        for model in MODELS:
            setattr(cli, model, _Proxy(self, getattr(cli, model), model, model_group))
        cli.cjsl = _Proxy(
            self, cli.cjsl, "cjsl", lambda name: _CJSL_GROUP_OF.get(name, "other")
        )
        suite_instances = cli._suite_instances
        cli._suite_instances = lambda: [self.triple(t) for t in suite_instances()]
        for cat in cli.CATEGORIES.values():
            cat.parse = self._hook(("cli", "parse"), cat.parse)
            cat.parse_obj = self._hook(("cli", "parse"), cat.parse_obj)
            cat.dump = self._hook(("cli", "dump"), cat.dump)
            if cat.make is not None:
                cat.make = lambda make=cat.make: self.triple(make())

    def _hook(self, key, fn):
        return lambda *args, **kwargs: self.leaf(key, fn, args, kwargs)

    # -- reporting ----------------------------------------------------------

    def end_pass(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass since the last call; resets sums."""
        busy, calls, counts = self.busy, self.calls, self.counts
        spans = self.spans[self._pass_start:]
        self._pass_start = len(self.spans)
        m = {}
        for model in MODELS:
            m[f"{model}.busy_s"] = sum(v for k, v in busy.items() if k[0] == model)
            for group in GROUPS:
                m[f"{model}.{group}.busy_s"] = busy[(model, group)]
                m[f"{model}.{group}.calls"] = calls[(model, group)]

        def self_time(layer):
            return sum(s[3] - s[2] - s[5] for s in spans if s[0] == layer)

        searches = [s for s in spans if s[1] == "factor_search"]
        sample_calls = sum(v for k, v in calls.items() if k[1] == "sample")
        m.update({
            "harness.self_s": self_time("harness"),
            "harness.cases": counts["cases"],
            "harness.exhaustive_frac": _ratio(counts["exhaustive"], counts["sublaws"]),
            "harness.sample_yield": _ratio(counts["sample_ok"], sample_calls),
            "harness.factor_search.busy_s": sum(s[3] - s[2] for s in searches),
            "harness.factor_search.calls": len(searches),
            "harness.factor_search.found_frac": _ratio(
                counts["factor_found"], len(searches)
            ),
            "cli.self_s": self_time("cli"),
            "cli.parse.busy_s": busy[("cli", "parse")],
            "cli.dump.busy_s": busy[("cli", "dump")],
            "cjsl.busy_s": sum(v for k, v in busy.items() if k[0] == "cjsl"),
            "cjsl.galois.busy_s": busy[("cjsl", "galois")],
            "cjsl.hr_nuclear.busy_s": busy[("cjsl", "hr_nuclear")],
            "cjsl.hr_nuclear.calls": calls[("cjsl", "hr_nuclear")],
        })
        for name in self.suites:
            m[f"suite.{name}.s"] = sum(
                s[3] - s[2] for s in spans if s[1] == f"suite.{name}"
            )
        m["trace.wall_s"] = wall_s
        self.busy, self.calls, self.counts = defaultdict(float), Counter(), Counter()
        return m

    def write(self, path) -> None:
        """Dump every span as JSON lines: layer, name, start, end, parent, child_s."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def exact_counts(metrics: dict) -> dict:
    """The counts a fixed seed must reproduce exactly, pass after pass."""
    return {
        k: v for k, v in metrics.items()
        if k.endswith(".calls") or k == "harness.cases"
    }
