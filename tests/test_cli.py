"""Command-line interface, driven in process."""

import json
import time
from fractions import Fraction

from nucleal import cjsl, cli, finstoch, pinj

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
    assert cli.main(["check-nuclear", path, "--bound", "12"]) == 0
    assert time.perf_counter() - t0 < 5.0
    witness = [0, *range(11)]
    assert capsys.readouterr().out == (
        f"nuclear: yes (witness {witness}, sup-map)\n"
    )


def test_check_nuclear_partial_injection(tmp_path, capsys):
    wide = pinj.identity(XY)
    assert cli.main(["check-nuclear", pinj_file(tmp_path, "w.json", wide)]) == 0
    assert "nuclear: no" in capsys.readouterr().out


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


def test_finrel_duplicate_labels_exit_invariant(tmp_path, capsys):
    doc = {"source": ["a", "a"], "target": ["b"], "pairs": [[True], [False]]}
    assert cli.main(["trace", dump(tmp_path, "r.json", doc, "finrel")]) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_pinj_non_injective_graph_exits_parse(tmp_path, capsys):
    doc = {"source": ["x", "y"], "target": ["z"], "graph": {"x": "z", "y": "z"}}
    assert cli.main(["trace", dump(tmp_path, "f.json", doc, "pinj")]) == 2
    assert "not injective" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2


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
