"""End-to-end runs of the command line, through a real subprocess unless
a builtin table is patched for the run."""

import json
import os
import subprocess
import sys

import pytest

import wf.cli
from wf.base_ring import BaseRingSpec
from wf.bounds import gsp_order
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, GluedScheme,
                       Overlap, SchemeMorphism, weierstrass_in_p2)


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("WF_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "wf.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def run_json(*args, code=0, env_extra=None):
    proc = run_cli(*args, env_extra=env_extra)
    assert proc.returncode == code, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_witt_worked_values():
    data = run_json("witt", "--p", "2", "--op", "add", "--a", "1,0",
                    "--b", "1,0")
    assert data["schema"] == "wf-report/1"
    assert data["command"] == "witt"
    assert data["result"] == [2, -1]
    data = run_json("witt", "--p", "2", "--op", "mul", "--a", "1,1",
                    "--b", "1,1")
    assert data["result"] == [1, 4]
    data = run_json("witt", "--p", "3", "--op", "ghost", "--a", "2,5")
    assert data["result"] == [2, 23]


def test_witt_delta_and_mod():
    assert run_json("witt", "--p", "2", "--op", "delta",
                    "--a", "3")["result"] == -3
    data = run_json("witt", "--p", "3", "--op", "add", "--a", "80,1",
                    "--b", "2,1", "--mod", "4")
    assert data["coefficients"] == "Z/3^4"
    assert data["result"][0] == (80 + 2) % 81


def test_witt_rejects_composite():
    proc = run_cli("witt", "--p", "6", "--op", "add", "--a", "1,0",
                   "--b", "1,0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "WfError"


def test_di_rejects_composite_with_large_factors():
    proc = run_cli("di", "a1", "--p", str(1009 * 1013))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "WfError"


def test_big_integers_become_decimal_strings():
    big = str(10 ** 12)
    data = run_json("witt", "--p", "5", "--op", "mul",
                    "--a", big + ",0", "--b", big + ",0")
    assert data["result"][0] == str(10 ** 24)
    assert data["result"][1] == 0
    rep = run_json("bounds", "--g", "4", "--p", "2", "--d", "1")
    want = gsp_order(4, 5)
    assert want > 2 ** 53
    assert rep["gsp_order"] == str(want)
    assert rep["g"] == 4


def test_prolong_worked_value():
    data = run_json("prolong", "x^2", "--p", "2", "--at", "3")
    assert data["value"] == -36
    assert data["delta_of_value"] == -36
    assert data["result"] == "2*x^2*x_dot + 2*x_dot^2"
    assert data["jet_at"] == [-3]


def test_parse_error_reports_position():
    proc = run_cli("prolong", "x^^2", "--p", "3")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "ParseError"
    assert err["position"] == 2


def test_di_expectations():
    data = run_json("di", "p1", "--p", "3", "--expect-zero")
    assert data["vanishes"] is True
    assert data["witness"]
    proc = run_cli("di", "genus2", "--p", "3", "--expect-zero")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["vanishes"] is False


def test_di_inconclusive_exit_three():
    proc = run_cli("di", "genus2", "--p", "3", "--pole-bound", "4")
    assert proc.returncode == 3
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "Inconclusive"
    assert err["bound"] == 4
    assert err["threshold"] == 18


def test_lift_ladder_refusal_exit_three():
    for args, message in (
            (("lift", "weierstrass"),
             "no admissible lift on Eaff with coefficients of degree <= 1"),
            (("compat", "weierstrass_in_p2"),
             "no compatible lifts with coefficients of degree <= 1")):
        proc = run_cli(*args, "--p", "3", "--deg-bound", "1", "--max-deg", "1")
        assert proc.returncode == 3
        err = json.loads(proc.stdout)["error"]
        assert err == {"type": "NoSolutionAtBound", "bound": 1,
                       "message": message}


def test_lift_ladder_from_degree_zero_terminates():
    # a ladder doubling from 0 never moved; one starting below 0 ran away
    for args, message in (
            (("lift", "weierstrass"),
             "no admissible lift on Einf with coefficients of degree <= 5"),
            (("compat", "weierstrass_in_p2"),
             "no compatible lifts with coefficients of degree <= 5")):
        proc = run_cli(*args, "--p", "3", "--deg-bound", "0", "--max-deg", "5",
                       timeout=60)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        err = json.loads(proc.stdout)["error"]
        assert err == {"type": "NoSolutionAtBound", "bound": 5,
                       "message": message}
        proc = run_cli(*args, "--p", "3", "--deg-bound", "-1", "--max-deg", "5",
                       timeout=60)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["error"] == {
            "type": "WfError",
            "message": "start degree must be an integer >= 0, got -1"}
    data = run_json("lift", "a1", "--p", "3", "--deg-bound", "0")
    assert data["lifts"][0]["degree"] == 0


def test_max_deg_is_the_ceiling_everywhere():
    # a start above the ceiling is lowered to it, and the independent
    # compat lifts stop at the ceiling like the constructed ones
    for args, bound, message in (
            (("lift", "weierstrass", "--patch", "Eaff", "--deg-bound", "4"), 2,
             "no admissible lift on Eaff with coefficients of degree <= 2"),
            (("compat", "weierstrass_in_p2", "--deg-bound", "9"), 2,
             "no compatible lifts with coefficients of degree <= 2"),
            (("compat", "weierstrass_in_p2", "--independent",
              "--deg-bound", "1"), 1,
             "no admissible lift on Eaff with coefficients of degree <= 1")):
        proc = run_cli(*args, "--p", "3", "--max-deg", str(bound))
        assert proc.returncode == 3, (args, proc.stdout + proc.stderr)
        assert json.loads(proc.stdout)["error"] == {
            "type": "NoSolutionAtBound", "bound": bound, "message": message}


def refused_document(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    return json.loads(proc.stdout)["error"]


LINE = {"name": "A1", "ring": {"p": 3},
        "patches": [{"name": "A1", "vars": ["x"]}]}


def test_scheme_document_without_patches_is_input_error(tmp_path):
    doc = {k: v for k, v in LINE.items() if k != "patches"}
    assert refused_document(tmp_path, "di", doc) == {
        "type": "ParseError", "message": "scheme document has no 'patches'"}


def test_overlap_outside_the_patches_is_input_error(tmp_path):
    doc = dict(LINE, overlaps=[{"i": 0, "j": 3, "invert_i": "x",
                                "invert_j": "x", "to_j": {"x": "x"},
                                "to_i": {"x": "x"}}])
    assert refused_document(tmp_path, "di", doc) == {
        "type": "WfError",
        "message": "overlap (0,3) names a patch outside 0..0"}


def test_chart_target_outside_the_patches_is_input_error(tmp_path):
    doc = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3)).to_json()
    doc["charts"][1]["target"] = 7
    assert refused_document(tmp_path, "compat", doc) == {
        "type": "WfError",
        "message": "chart 1 maps to target patch 7, outside 0..2"}


def test_document_values_of_the_wrong_type_are_input_errors(tmp_path):
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring).to_json()
    doc = json.loads(json.dumps(p1))
    doc["overlaps"][0].update(i="0", j="1")
    assert refused_document(tmp_path, "di", doc) == {
        "type": "ParseError",
        "message": "overlap index i must be an integer, got '0'"}
    doc = json.loads(json.dumps(p1))
    doc["overlaps"][0]["to_j"] = {"x": 3}
    assert refused_document(tmp_path, "di", doc) == {
        "type": "ParseError", "message": "expected polynomial text, got 3"}
    doc = BUILTIN_SCHEMES["weierstrass"](ring).to_json()
    doc["patches"][0]["relations"] = [5]
    assert refused_document(tmp_path, "di", doc) == {
        "type": "ParseError", "message": "expected polynomial text, got 5"}
    doc = BUILTIN_MORPHISMS["weierstrass_in_p2"](ring).to_json()
    doc["charts"][1]["target"] = True
    assert refused_document(tmp_path, "compat", doc) == {
        "type": "ParseError",
        "message": "chart target must be an integer, got True"}
    # a string was decoded again as a JSON document
    doc = BUILTIN_MORPHISMS["weierstrass_in_p2"](ring).to_json()
    doc["source"] = json.dumps(doc["source"])
    assert refused_document(tmp_path, "compat", doc)["message"].startswith(
        "morphism source must be an object, got '{")
    # a negative genus gave a negative completeness threshold
    doc = dict(BUILTIN_SCHEMES["weierstrass"](ring).to_json(), genus=-1)
    assert refused_document(tmp_path, "di", doc) == {
        "type": "WfError", "message": "genus must be an integer >= 0, got -1"}


@pytest.mark.parametrize("path, value, message", [
    (("patches",), 5, "scheme patches must be a list, got 5"),
    (("overlaps",), 5, "scheme overlaps must be a list, got 5"),
    (("patches", 0, "inverted"), 5, "patch inverted must be a list, got 5"),
    (("ring",), 3, "ring must be an object, got 3"),
    (("ring",), "3", "ring must be an object, got '3'"),
    (("ring", "precision"), "4", "ring precision must be an integer, got '4'"),
    (("ring", "eisenstein"), [None, 1],
     "eisenstein coefficient must be an integer, got None"),
    (("genus",), "1", "genus must be an integer, got '1'"),
    # strings were read one character per name or relation
    (("patches", 0, "vars"), "xy", "patch vars must be a list, got 'xy'"),
    (("patches", 0, "relations"), "x",
     "patch relations must be a list, got 'x'"),
])
def test_wrong_typed_scheme_values_are_parse_errors(tmp_path, path, value,
                                                    message):
    doc = BUILTIN_SCHEMES["p1"](BaseRingSpec(3)).to_json()
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    assert refused_document(tmp_path, "di", doc) == {
        "type": "ParseError", "message": message}


def test_builtins_are_validated_like_documents(tmp_path):
    # x -> x^2 is not étale at p = 2, whether named or read from a file
    proc = run_cli("compat", "gm_square", "--p", "2")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    err = json.loads(proc.stdout)["error"]
    doc = BUILTIN_MORPHISMS["gm_square"](BaseRingSpec(2)).to_json()
    assert err["type"] == "NotEtale"
    assert refused_document(tmp_path, "compat", doc) == err


def test_reglued_builtin_morphism_is_refused(monkeypatch, capsys):
    # y -> z_inv, w -> x*y_inv, z -> y_inv is a valid gluing of the curve,
    # but the chart maps into P2 no longer agree on the overlap
    def reglued(ring):
        m = weierstrass_in_p2(ring)
        ov = Overlap(0, 1, "y", "z", to_j={"x": "w*z_inv", "y": "z_inv"},
                     to_i={"w": "x*y_inv", "z": "y_inv"})
        curve = GluedScheme(m.source.name, ring, m.source.patches, [ov],
                            genus=1, family="weierstrass")
        return SchemeMorphism(m.name, curve, m.target, m.charts, kind=m.kind)

    monkeypatch.setitem(BUILTIN_MORPHISMS, "weierstrass_in_p2", reglued)
    monkeypatch.delenv("WF_THREADS", raising=False)
    assert wf.cli.main(["compat", "weierstrass_in_p2", "--p", "3"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "TransitionError"
    assert "pullbacks of 'b' disagree" in err["message"]


def test_ring_parameters_checked_alike():
    # every ring constructor refuses these; no traceback, and no q = 1
    for args, message in (
            (("witt", "--p", "3", "--m", "-1", "--op", "add", "--a", "1,0",
              "--b", "1,0"), "frob_power must be an integer >= 1, got -1"),
            (("witt", "--p", "3", "--mod", "-1", "--op", "add", "--a", "1,0",
              "--b", "1,0"), "k must be an integer >= 1, got -1"),
            (("prolong", "--p", "3", "--m", "-1", "x^2"),
             "frob_power must be an integer >= 1, got -1"),
            (("witt", "--p", "3", "--m", "0", "--op", "add", "--a", "1,0",
              "--b", "1,0"), "frob_power must be an integer >= 1, got 0"),
            (("prolong", "--p", "3", "--m", "0", "x^2"),
             "frob_power must be an integer >= 1, got 0"),
            (("di", "a1", "--p", "3", "--m", "0"),
             "frob_power must be an integer >= 1, got 0"),
            (("prolong", "--p", "4", "x^2"), "p must be prime, got 4")):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.stdout + proc.stderr)
        assert json.loads(proc.stdout)["error"] == {"type": "WfError",
                                                    "message": message}


def test_di_genus2_p7_decides():
    # rewriting high powers of y by y^2 -> x^5 + 2 term by term, without
    # merging like terms, took too many steps to decide this class
    data = run_json("di", "genus2", "--p", "7")
    assert data["vanishes"] is False


def test_compat_weierstrass_in_p2_p11_decides():
    data = run_json("compat", "weierstrass_in_p2", "--p", "11")
    assert data["compatible"] is True


def test_nonsmooth_is_input_error():
    proc = run_cli("di", "weierstrass", "--p", "2")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "NonSmooth"


def test_builtin_without_p_is_input_error():
    proc = run_cli("di", "p1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "WfError"


def test_compat_modes_and_expectation():
    data = run_json("compat", "weierstrass_in_p2", "--p", "3",
                    "--expect-compatible")
    assert data["compatible"] is True
    assert data["mode"] == "constructed"
    proc = run_cli("compat", "weierstrass_in_p2", "--p", "3",
                   "--independent", "--expect-compatible")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["compatible"] is False
    assert data["mode"] == "independent"


def test_bounds_values():
    rep = run_json("bounds", "--g", "1", "--p", "3", "--d", "1")
    assert rep["e"] == 480
    assert rep["r_bound"] == 960
    assert rep["n"] == {"base": 3, "exponent": 960, "decimal": None}


def test_scheme_file_and_ring_override(tmp_path):
    # a hand-written file with symbolic coefficients stays meaningful
    # under a --p override; serialized builtins would not, since their
    # coefficient texts are residues of one specific modulus
    path = tmp_path / "curve.json"
    doc = {
        "name": "E",
        "ring": {"p": 5, "eisenstein": [-5, 1], "precision": 4,
                 "frob_power": 1},
        "patches": [
            {"name": "Eaff", "vars": ["x", "y"], "inverted": [],
             "relations": ["y^2 - x^3 - x"]},
            {"name": "Einf", "vars": ["w", "z"], "inverted": [],
             "relations": ["w^3 - z + w*z^2"]},
        ],
        "overlaps": [
            {"i": 0, "j": 1, "invert_i": "y", "invert_j": "z",
             "to_j": {"x": "w*z_inv", "y": "-z_inv"},
             "to_i": {"w": "-x*y_inv", "z": "-y_inv"}},
        ],
        "genus": 1,
    }
    path.write_text(json.dumps(doc))
    data = run_json("di", str(path))
    assert data["vanishes"] is True
    # the same equations read at p = 3 give the supersingular verdict
    data = run_json("di", str(path), "--p", "3")
    assert data["vanishes"] is False


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("di", "p1", "--p", "3", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    data = json.loads(out.read_text())
    assert data["schema"] == "wf-report/1"
    assert data["vanishes"] is True


def test_thread_env_reported_not_parallel():
    data = run_json("bounds", "--g", "1", "--p", "3", "--d", "1",
                    env_extra={"WF_THREADS": "4"})
    assert data["threads"] == 4
    data = run_json("bounds", "--g", "1", "--p", "3", "--d", "1",
                    env_extra={"WF_THREADS": "junk"})
    assert data["threads"] == 1
    data = run_json("bounds", "--g", "1", "--p", "3", "--d", "1",
                    env_extra={"WF_THREADS": "-2"})
    assert data["threads"] == 1


def test_corpus_byte_determinism():
    a = run_cli("corpus", "--seed", "7")
    b = run_cli("corpus", "--seed", "7")
    c = run_cli("corpus", "--seed", "8")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout
