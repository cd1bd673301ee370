"""Command-line interface, driven in process."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import _forks
import nucleal
from nucleal import cjsl, cli, finhilb, finrel, finstoch, pinj, xrel
from nucleal.core.errors import ParseError, ShapeMismatch

X = pinj.FinSet(("x",))
XY = pinj.FinSet(("x", "y"))
XYZ = pinj.FinSet(("x", "y", "z"))


def dump(tmp_path, name, payload, category=None):
    doc = payload
    if category is not None:
        doc = {"schema": "nucleal/1", "category": category, "value": payload}
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def pinj_file(tmp_path, name, f):
    return dump(tmp_path, name, pinj.to_json(f), "pinj")


def test_compose_happy_path(tmp_path, capsys):
    f = pinj.from_map(XY, XYZ, {"x": "y"})
    g = pinj.from_map(XYZ, X, {"y": "x"})
    out = tmp_path / "out.json"
    code = cli.main(
        ["compose", pinj_file(tmp_path, "f.json", f),
         pinj_file(tmp_path, "g.json", g), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nucleal/1" and doc["category"] == "pinj"
    assert pinj.from_json(doc["value"]) == pinj.from_map(XY, X, {"x": "x"})


def test_compose_shape_mismatch(tmp_path, capsys):
    f = pinj.from_map(XY, XYZ, {"x": "y"})
    g = pinj.from_map(XY, X, {"x": "x"})
    code = cli.main(
        ["compose", pinj_file(tmp_path, "f.json", f),
         pinj_file(tmp_path, "g.json", g)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "shape mismatch" in err
    # both endpoint summaries appear in the message
    assert "['x', 'y', 'z']" in err and "['x', 'y']" in err


def test_trace_single_loop(tmp_path, capsys):
    h = pinj.from_map(XY, XY, {"x": "x"})
    assert cli.main(["trace", pinj_file(tmp_path, "h.json", h)]) == 0
    assert capsys.readouterr().out.strip() == "id"


def test_trace_empty_endo(tmp_path, capsys):
    h = pinj.empty(XY, XY)
    assert cli.main(["trace", pinj_file(tmp_path, "h.json", h)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_trace_matrix(tmp_path, capsys):
    payload = {
        "rows": 2, "cols": 2,
        "re": [[1, 2], [3, 4]], "im": [[0, 0], [0, 0]],
    }
    path = dump(tmp_path, "m.json", payload, "finhilb")
    assert cli.main(["trace", path]) == 0
    assert "5+0i" in capsys.readouterr().out


def test_trace_outside_class(tmp_path, capsys):
    h = pinj.identity(XY)
    code = cli.main(["trace", pinj_file(tmp_path, "h.json", h)])
    assert code == 5
    err = capsys.readouterr().err
    assert "outside the supported class" in err
    assert "no nuclear factorization exists" in err


def test_trace_refused_on_lattices(tmp_path, capsys):
    path = dump(
        tmp_path, "f.json", cjsl.supmap_to_json(cjsl.identity_sup(cjsl.chain(2))),
        "cjsl",
    )
    assert cli.main(["trace", path]) == 5


def test_transpose_round_trip(tmp_path, capsys):
    f = pinj.from_map(XY, XYZ, {"x": "z"})
    state = tmp_path / "state.json"
    assert cli.main(
        ["transpose", pinj_file(tmp_path, "f.json", f), "--out", str(state)]
    ) == 0
    back = tmp_path / "back.json"
    assert cli.main(
        ["transpose", str(state), "--inverse",
         "--left", dump(tmp_path, "a.json", ["x", "y"]),
         "--right", dump(tmp_path, "b.json", ["x", "y", "z"]),
         "--out", str(back)]
    ) == 0
    doc = json.loads(back.read_text())
    assert pinj.from_json(doc["value"]) == f


def test_bare_payloads_with_category_flag(tmp_path, capsys):
    r = finrel.from_pairs(finrel.fin_set(2), finrel.fin_set(2), [(0, 1), (1, 1)])
    path = dump(tmp_path, "r.json", finrel.to_json(r))
    out = tmp_path / "rr.json"
    assert cli.main(
        ["compose", path, path, "--category", "finrel", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["category"] == "finrel"
    assert finrel.from_json(doc["value"]) == finrel.compose(r, r)
    # without the flag a bare payload names no category
    assert cli.main(["compose", path, path]) == 2
    assert "no category" in capsys.readouterr().err


def test_compose_lattice_maps(tmp_path):
    f = cjsl.identity_sup(cjsl.m3())
    g = cjsl.const_bottom(cjsl.m3(), cjsl.chain(2))
    out = tmp_path / "gf.json"
    assert cli.main(
        ["compose", dump(tmp_path, "f.json", cjsl.supmap_to_json(f), "cjsl"),
         dump(tmp_path, "g.json", cjsl.supmap_to_json(g), "cjsl"), "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["category"] == "cjsl"
    assert cjsl.supmap_from_json(doc["value"]).values == g.values


@pytest.mark.parametrize("category", ["pinj", "finrel", "finhilb"])
def test_check_nuclear_yes_outside_lattices(tmp_path, capsys, category):
    f = {
        "pinj": lambda: pinj.to_json(pinj.from_map(XY, XYZ, {"x": "z"})),
        "finrel": lambda: finrel.to_json(finrel.identity(finrel.fin_set(2))),
        "finhilb": lambda: finhilb.to_json(finhilb.from_rows([[1, 2j], [0, 1]])),
    }[category]()
    assert cli.main(["check-nuclear", dump(tmp_path, "f.json", f, category)]) == 0
    assert capsys.readouterr().out == "nuclear: yes\n"


def _transpose_round_trip(tmp_path, category, f, left, right):
    """The morphism document `transpose --inverse` gives back for f."""
    state = tmp_path / "state.json"
    assert cli.main(
        ["transpose", dump(tmp_path, "f.json", f, category), "--out", str(state)]
    ) == 0
    back = tmp_path / "back.json"
    assert cli.main(
        ["transpose", str(state), "--inverse",
         "--left", dump(tmp_path, "a.json", left),
         "--right", dump(tmp_path, "b.json", right), "--out", str(back)]
    ) == 0
    return json.loads(back.read_text())["value"]


def test_transpose_inverse_crossed_sets(tmp_path):
    z2 = xrel.cyclic_monoid(2)
    a = xrel.trivial_object(z2, ("p", "q"), (0, 1))
    b = xrel.trivial_object(z2, ("r",), (1,))
    f = xrel.from_pairs(a, b, [(1, 0)])
    obj = lambda x: {"monoid": xrel.monoid_to_json(z2), "object": xrel.object_to_json(x)}
    back = _transpose_round_trip(tmp_path, "xrel", xrel.to_json(f), obj(a), obj(b))
    assert xrel.from_json(back) == f


def test_transpose_inverse_matrices(tmp_path):
    f = finhilb.from_rows([[1, 2j], [0, -1], [0.5, 1j]])  # C^2 -> C^3
    back = _transpose_round_trip(tmp_path, "finhilb", finhilb.to_json(f), 2, 3)
    assert finhilb.max_abs_diff(finhilb.from_json(back), f) <= 1e-12


def test_check_nuclear_lattice_ids(tmp_path, capsys):
    m3 = dump(
        tmp_path, "m3.json", cjsl.supmap_to_json(cjsl.identity_sup(cjsl.m3())),
        "cjsl",
    )
    assert cli.main(["check-nuclear", m3]) == 0
    assert "nuclear: no" in capsys.readouterr().out
    c2 = dump(
        tmp_path, "c2.json", cjsl.supmap_to_json(cjsl.identity_sup(cjsl.chain(2))),
        "cjsl",
    )
    assert cli.main(["check-nuclear", c2]) == 0
    assert "nuclear: yes" in capsys.readouterr().out


def test_check_nuclear_lattice_answers_large_bound_at_once(tmp_path, capsys):
    path = dump(
        tmp_path, "c12.json",
        cjsl.supmap_to_json(cjsl.identity_sup(cjsl.chain(12))), "cjsl",
    )
    t0 = time.perf_counter()
    assert cli.main(["check-nuclear", path]) == 0
    assert time.perf_counter() - t0 < 5.0
    witness = [0, *range(11)]
    assert capsys.readouterr().out == (
        f"nuclear: yes (witness {witness}, sup-map)\n"
    )


def test_check_nuclear_partial_injection(tmp_path, capsys):
    wide = pinj.identity(XY)
    assert cli.main(["check-nuclear", pinj_file(tmp_path, "w.json", wide)]) == 0
    assert "nuclear: no" in capsys.readouterr().out


def _z4_degree_one_identity(tmp_path):
    # degree 1 squares to 2 in Z4, so the identity lies outside the ideal
    obj = xrel.trivial_object(xrel.cyclic_monoid(4), ("p", "q"), (1, 1))
    return dump(tmp_path, "h.json", xrel.to_json(xrel.identity(obj)), "xrel")


def test_trace_outside_class_crossed_sets(tmp_path, capsys):
    assert cli.main(["trace", _z4_degree_one_identity(tmp_path)]) == 5
    assert capsys.readouterr().err == (
        "outside the supported class: endomorphism is outside the trace "
        "class: no nuclear factorization exists\n"
    )


def test_check_nuclear_crossed_sets(tmp_path, capsys):
    assert cli.main(["check-nuclear", _z4_degree_one_identity(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "nuclear: no\nand it admits no nuclear factorization\n"
    )


def test_disintegrate_diagonal(tmp_path, capsys):
    half = Fraction(1, 2)
    zero = Fraction(0)
    m = finstoch.joint(
        finstoch.uniform_space(("a", "b")),
        finstoch.uniform_space(("a", "b")),
        ((half, zero), (zero, half)),
    )
    path = dump(tmp_path, "m.json", finstoch.to_json(m), "finstoch")
    out = tmp_path / "kernels.json"
    assert cli.main(["disintegrate", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"forward", "backward"}
    fwd = doc["forward"]["rows"]
    assert fwd[0] == ["1", "0"] and fwd[1] == ["0", "1"]


@pytest.mark.parametrize("command", ["compose", "transpose", "disintegrate", "report"])
def test_unwritable_out_exits_parse(tmp_path, capsys, command):
    f = pinj_file(tmp_path, "f.json", pinj.from_map(XY, XY, {"x": "x"}))
    m = dump(tmp_path, "m.json", finstoch.to_json(finstoch.joint(
        finstoch.uniform_space(("a",)), finstoch.uniform_space(("a",)),
        ((Fraction(1),),),
    )), "finstoch")
    argv = {
        "compose": ["compose", f, f],
        "transpose": ["transpose", f],
        "disintegrate": ["disintegrate", m],
        "report": ["report", "--budget", "0"],
    }[command]
    out = tmp_path / "missing" / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot write {out}")
    assert "Traceback" not in err


def test_report_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def run_suite(*args):
        raise AssertionError("the suite ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {out}")


def test_finrel_duplicate_labels_exit_invariant(tmp_path, capsys):
    doc = {"source": ["a", "a"], "target": ["b"], "pairs": [[True], [False]]}
    assert cli.main(["trace", dump(tmp_path, "r.json", doc, "finrel")]) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_pinj_non_injective_graph_exits_parse(tmp_path, capsys):
    doc = {"source": ["x", "y"], "target": ["z"], "graph": {"x": "z", "y": "z"}}
    assert cli.main(["trace", dump(tmp_path, "f.json", doc, "pinj")]) == 2
    assert "not injective" in capsys.readouterr().err


def _xrel_doc():
    z2 = xrel.cyclic_monoid(2)
    swap = xrel.CrossedMSet(z2, xrel.FinSet(("p", "q")), ((0, 1), (1, 0)), (0, 0))
    point = xrel.trivial_object(z2, ("r",))
    return xrel.to_json(xrel.from_pairs(swap, point, [(0, 0), (1, 0)]))


@pytest.mark.parametrize(
    "path, value",
    [
        (("pairs",), 5),
        (("pairs",), [5, 6]),
        (("source", "action"), 3),
        (("source", "degree"), 3),
        (("source", "action", "0"), 7),
        (("monoid", "table"), 5),
        (("monoid", "table"), [["a", 1], [1, 0]]),
    ],
)
def test_xrel_malformed_document_exits_parse(tmp_path, capsys, path, value):
    doc = _xrel_doc()
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    assert cli.main(["trace", dump(tmp_path, "f.json", doc, "xrel")]) == 2
    assert "parse error" in capsys.readouterr().err


def _hilb_doc(**fields):
    return {"rows": 1, "cols": 1, "re": [[0]], "im": [[0]], **fields}


def _stoch_doc(**fields):
    space = {"points": ["a"], "mass": {"a": "1"}}
    return {"source": space, "target": space, "weight": [["1"]], **fields}


def _lattice_doc(**fields):
    return {"elements": [0, 1], "leq": [[1, 1], [0, 1]], **fields}


def _supmap_doc(**fields):
    lat = _lattice_doc()
    return {"source": lat, "target": lat, "values": [0, 1], **fields}


@pytest.mark.parametrize(
    "category, doc",
    [
        ("finhilb", _hilb_doc(re=5)),
        ("finhilb", _hilb_doc(re=[5])),
        ("finhilb", _hilb_doc(re=[["a"]])),
        ("pinj", {"source": [{"a": 1}], "target": ["x"], "graph": {}}),
        ("finstoch", _stoch_doc(weight=[5])),
        ("cjsl", _supmap_doc(source=_lattice_doc(leq=5))),
        ("cjsl", _supmap_doc(source=_lattice_doc(leq=[5]))),
        ("cjsl", _supmap_doc(values=5)),
        (["pinj"], _stoch_doc()),
        (5, _stoch_doc()),
        ({"name": "finstoch"}, _stoch_doc()),
    ],
)
def test_malformed_document_exits_parse(tmp_path, capsys, category, doc):
    assert cli.main(["check-nuclear", dump(tmp_path, "f.json", doc, category)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "star-laws", "--budget", "-5"],
        ["report", "--budget", "-1"],
    ],
    ids=["verify-budget", "report-budget"],
)
def test_negative_budget_exits_parse(capsys, argv):
    assert cli.main(argv) == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--n", "3"], ["--tol", "1e-9"]], ids=["n", "tol"])
def test_verify_has_no_grid_size_option(capsys, flag):
    # drel-numeric runs on its pinned fixture's grid and tolerance; a
    # user-set size would cost n^3 with no cap
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "drel-numeric", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_category_flag_conflicts_with_envelope(tmp_path, capsys):
    f = pinj.from_map(XY, XY, {"x": "x"})
    path = pinj_file(tmp_path, "f.json", f)
    assert cli.main(["trace", path, "--category", "finrel"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_verify_audit_reports_finding(capsys):
    assert cli.main(["verify", "xrel-audit", "--budget", "100"]) == 0
    out = capsys.readouterr().out
    assert "FINDING" in out


def test_verify_json_format(capsys):
    assert cli.main(
        ["verify", "star-laws", "--budget", "120", "--seed", "3",
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "nucleal-report/1"
    assert doc["failures"] == 0
    assert all(r["law"].startswith("star") for r in doc["reports"])


def test_report_command(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(
        ["report", "--budget", "100", "--seed", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nucleal-report/1"
    assert doc["failures"] == 0
    assert len(doc["reports"]) > 30


# -- the suite runner -------------------------------------------------------

SUITES = [name for name in cli.SUITES if name != "all"]


def _signature(reports):
    return [(r.law, r.cases, r.failures, r.flags) for r in reports]


def _jobs(monkeypatch, jobs):
    monkeypatch.setattr(cli, "suite_jobs", lambda *args: jobs)


@pytest.mark.parametrize("seed", [1, 7])
def test_run_suite_matches_every_job_run_in_process(monkeypatch, seed):
    # three workers, so that children also inherit each other's pipes
    _forks.cpus(monkeypatch, 3)
    want = {
        name: _signature(
            [rep for job in cli.suite_jobs(name, 20, seed) for rep in job()]
        )
        for name in SUITES
    }
    for name in SUITES:
        assert _signature(cli.run_suite(name, 20, seed)) == want[name]
    got = _signature(cli.run_suite("all", 20, seed))
    assert got == [sig for name in SUITES for sig in want[name]]
    _forks.no_child_left()


def _fail(exc):
    def job():
        raise exc

    return job


@pytest.mark.parametrize(
    "first,later", [(1, 2), (2, 3), (0, 4)], ids=["1", "2", "0-4"]
)
def test_run_suite_raises_the_first_failing_job(monkeypatch, first, later):
    # jobs are dealt last first, so the later failing job is taken before
    # the first one, by either worker; job 4 is dealt first of all and
    # job 0 last
    jobs = [lambda: [] for _ in range(5)]
    jobs[first] = _fail(ParseError(f"job {first}"))
    jobs[later] = _fail(ShapeMismatch(f"job {later}"))
    _forks.cpus(monkeypatch, 2)
    _jobs(monkeypatch, jobs)
    with pytest.raises(ParseError, match=f"^job {first}$"):
        cli.run_suite("all")
    _forks.no_child_left()


def _ran(log: int, i: int):
    """A job that writes its index to the pipe `log` and returns
    [(index, pid)]."""
    def job():
        os.write(log, bytes([i]))
        return [(i, os.getpid())]

    return job


def _read_log(log_r: int, log_w: int) -> list:
    os.close(log_w)
    with os.fdopen(log_r, "rb") as log:
        return sorted(log.read())


@pytest.mark.parametrize("n_cpus", [2, 3])
def test_run_suite_runs_each_job_once_and_none_here(monkeypatch, n_cpus):
    log_r, log_w = os.pipe()
    _forks.cpus(monkeypatch, n_cpus)
    _jobs(monkeypatch, [_ran(log_w, i) for i in range(12)])
    got = cli.run_suite("all")
    _forks.no_child_left()
    assert _read_log(log_r, log_w) == list(range(12))
    assert [i for i, _ in got] == list(range(12))
    pids = {pid for _, pid in got}
    assert os.getpid() not in pids
    assert len(pids) <= n_cpus


def test_run_suite_runs_every_job_after_one_raises(monkeypatch):
    log_r, log_w = os.pipe()
    jobs = [_ran(log_w, i) for i in range(6)]
    jobs[1] = _fail(ParseError("job 1"))  # dealt before job 0
    _forks.cpus(monkeypatch, 2)
    _jobs(monkeypatch, jobs)
    with pytest.raises(ParseError, match="^job 1$"):
        cli.run_suite("all")
    _forks.no_child_left()
    assert _read_log(log_r, log_w) == [0, 2, 3, 4, 5]


@pytest.mark.parametrize("fault", ["dies", "unpicklable"])
def test_run_suite_raises_when_a_child_sends_no_result(monkeypatch, fault):
    here = os.getpid()

    def job():
        if os.getpid() == here:
            return []
        if fault == "dies":
            os._exit(3)
        return [lambda: None]  # the child cannot pickle this

    _forks.cpus(monkeypatch, 2)
    _jobs(monkeypatch, [job, job])
    with pytest.raises(RuntimeError, match="before sending its result"):
        cli.run_suite("all")
    _forks.no_child_left()


def test_run_suite_forks_nothing_on_one_cpu(monkeypatch):
    def fork():
        raise AssertionError("forked on one CPU")

    _forks.cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", fork)
    want = [rep for job in cli.suite_jobs("star-laws", 20, 1) for rep in job()]
    assert _signature(cli.run_suite("star-laws", 20, 1)) == _signature(want)


def test_verify_all_prints_each_summary_once():
    src = str(Path(nucleal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    ))
    out = subprocess.run(
        [sys.executable, "-m", "nucleal.cli", "verify", "all", "--budget", "50"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # 63 summaries, then the totals; a child that printed or flushed
    # anything would add lines
    assert len(lines) == 65
    assert all(line.startswith(("PASS", "FINDING")) for line in lines[:-2])
    assert lines[-2] == "63 reports, 0 failed, 2 documented findings"
    assert lines[-1].startswith("total time ")


# -- the parser, built once per process -------------------------------------


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Argv lists over every command, each a call the next one may follow:
    flags set in one are missing in another, and the usage errors end in
    SystemExit.  `{out}` marks the --out file, read after each call."""
    d = tmp_path_factory.mktemp("calls")
    f = pinj.from_map(XY, XYZ, {"x": "z"})
    r = finrel.from_pairs(finrel.fin_set(2), finrel.fin_set(2), [(0, 1), (1, 1)])
    half, zero = Fraction(1, 2), Fraction(0)
    m = finstoch.joint(
        finstoch.uniform_space(("a", "b")), finstoch.uniform_space(("a", "b")),
        ((half, zero), (zero, half)),
    )
    pf = pinj_file(d, "f.json", f)
    ph = pinj_file(d, "h.json", pinj.from_map(XY, XY, {"x": "x"}))
    wide = pinj_file(d, "w.json", pinj.identity(XY))
    state = pinj_file(d, "state.json", pinj.theta(f))
    left, right = dump(d, "a.json", ["x", "y"]), dump(d, "b.json", ["x", "y", "z"])
    fr = dump(d, "r.json", finrel.to_json(r), "finrel")
    bare = dump(d, "bare.json", finrel.to_json(r))
    cj = dump(d, "c.json", cjsl.supmap_to_json(cjsl.identity_sup(cjsl.chain(3))), "cjsl")
    mf = dump(d, "m.json", finstoch.to_json(m), "finstoch")
    unwritable = str(d / "missing" / "out.json")
    argvs = [
        ["compose", fr, fr],
        ["compose", fr, fr, "--out", "{out}"],
        ["compose", bare, bare, "--category", "finrel"],
        ["compose", bare, bare],
        ["compose", pf, pf],
        ["trace", ph],
        ["trace", fr, "--category", "pinj"],
        ["trace", str(d / "absent.json")],
        ["transpose", pf, "--out", "{out}"],
        ["transpose", pf],
        ["transpose", wide],
        ["transpose", state, "--inverse", "--left", left, "--right", right],
        ["transpose", state, "--inverse", "--left", left],
        ["transpose", state, "--inverse"],
        ["check-nuclear", pf],
        ["check-nuclear", ph, "--category", "pinj"],
        ["check-nuclear", cj],
        ["disintegrate", mf, "--out", "{out}"],
        ["disintegrate", mf],
        ["verify", "xrel-audit", "--budget", "10", "--format", "json"],
        ["verify", "xrel-audit", "--budget", "10"],
        ["verify", "nonsense"],
        ["report", "--budget", "0", "--out", unwritable],
        ["report", "--budget", "-1"],
        [],
        ["frobnicate"],
        ["compose", fr],
        ["trace", ph, "--category", "nope"],
        ["verify", "star-laws", "--budget", "abc"],
        ["-h"],
        ["transpose", "-h"],
    ]
    return d / "out.json", argvs


# the times a report prints are the only output that differs between runs
_TIMES = re.compile(r'("elapsed": |total time )[0-9.e-]+|\(\d+\.\d+s\)')


def _outcome(argv, out: Path):
    """(exit code or SystemExit code, stdout, stderr, --out file) of one
    `cli.main` call, with its times masked."""
    argv = [str(out) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    written = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    texts = (stdout.getvalue(), stderr.getvalue(), written)
    return (code, *(_TIMES.sub(r"\1T", t) for t in texts))


def _cached_and_fresh(argvs, out):
    """The outcomes of `argvs` run in turn through the parser `cli.main`
    keeps, and through a parser built afresh for every call."""
    cached = [_outcome(argv, out) for argv in argvs]
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = [_outcome(argv, out) for argv in argvs]
    return cached, fresh


def test_kept_parser_answers_every_call_as_a_fresh_one(calls):
    out, argvs = calls
    cached, fresh = _cached_and_fresh(argvs, out)
    assert cached == fresh
    # each call reaches the outcome it is there for
    usage = ("SystemExit", 2)
    assert [c[0] for c in cached] == [
        0, 0, 0, 2, 3, 0, 2, 2, 0, 0, 5, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2,
        usage, usage, usage, usage, usage, ("SystemExit", 0), ("SystemExit", 0),
    ]
    assert [i for i, c in enumerate(cached) if c[3]] == [1, 8, 17]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_kept_parser_answers_any_sequence_as_a_fresh_one(calls, data):
    out, argvs = calls
    seq = data.draw(st.lists(st.sampled_from(argvs), min_size=1, max_size=8))
    cached, fresh = _cached_and_fresh(seq, out)
    assert cached == fresh


def test_fifty_calls_build_the_parser_once(calls, monkeypatch):
    out, argvs = calls
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.__wrapped__()
    per_build = len(built)  # the top parser and one per command
    built.clear()
    cli.build_parser.cache_clear()
    for i in range(50):
        _outcome(argvs[i % len(argvs)], out)
        assert len(built) == per_build


def test_import_builds_no_parser():
    src = str(Path(nucleal.__file__).resolve().parent.parent)
    script = (
        "import argparse\n"
        "n = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    n.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import nucleal.cli\n"
        "print(len(n))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    ))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
