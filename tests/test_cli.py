"""End-to-end runs of the command line, through a real subprocess unless
a builtin table is patched for the run."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import wf.cli
import wf.di
from wf.base_ring import BaseRingSpec, IntModRing
from wf.bounds import gsp_order
from wf.errors import TransitionError, WfError
from wf.poly import MvPoly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, GluedScheme,
                       Overlap, SchemeMorphism, validate_morphism,
                       weierstrass_in_p2)


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


def test_witt_ghost_mod():
    # 5^3 + 3 * 7 = 146 = 11 mod 27
    data = run_json("witt", "--p", "3", "--mod", "3", "--op", "ghost",
                    "--a", "5,7")
    assert data["result"] == [5, 11]


def test_witt_rejects_composite():
    proc = run_cli("witt", "--p", "6", "--op", "add", "--a", "1,0",
                   "--b", "1,0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "WfError"


@pytest.mark.parametrize("argv", [
    ["witt", "--op", "add", "--a", "3,0", "--b", "1,0"],
    ["witt", "--op", "mul", "--a", "1,0", "--b", "3,0"],
    ["witt", "--op", "delta", "--a", "3"],
    ["prolong", "x", "--at", "3"],
], ids=lambda argv: argv[2] if argv[0] == "witt" else argv[0])
def test_exact_powers_past_the_bound_exit_three(argv, capsys):
    # 524309, the first prime past 2^19, times bit_length(3) = 2 passes
    # 2^20.  Unchecked, such a power takes a fraction of a second, so a
    # missing check fails this test rather than hanging it.
    code, out, _ = run_main(argv + ["--p", "524309"], capsys)
    assert code == 3, out
    err = json.loads(out)["error"]
    assert (err["type"], err["bound"]) == ("Inconclusive", 2 ** 20)
    assert err["message"] == (
        "a 2-bit integer to the power 524309 could have up to 1048618 "
        "bits, past the bound of 1048576 bits on an exact integer power")


@pytest.mark.parametrize("p", [1031, 16411])
def test_prolong_sum_powers_past_the_size_bound_exit_three(p, capsys):
    # (x + y)^q has q + 1 terms of at most q + 1 bits: 1022^2 bits stay
    # inside 2^20 at p = 1021, and 1032^2 pass it at p = 1031, the next prime.
    # Unchecked, p = 1031 finishes in about a second, so a missing check
    # fails this test rather than hanging it.
    code, out, _ = run_main(["prolong", "x+y", "--vars", "x,y", "--p", str(p)],
                            capsys)
    assert code == 3, out[:200]
    err = json.loads(out)["error"]
    assert (err["type"], err["bound"]) == ("Inconclusive", 2 ** 20)


def test_exact_powers_of_small_values_pass_the_bound(capsys):
    code, out, _ = run_main(["witt", "--op", "ghost", "--a=-1,5",
                             "--p", str(2 ** 61 - 1)], capsys)
    assert code == 0
    assert json.loads(out)["result"] == [-1, str(-1 + 5 * (2 ** 61 - 1))]


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


@pytest.mark.parametrize("name, p, threshold, digest", [
    ("p2", "3", 9,
     "211d61b7c81a6959562b8e45d0053b958a83266ce3ba794e440a97a426e79a77"),
    ("weierstrass", "5", 20,
     "7bbdcb7a09ee0a3600ceb4c014ccdbead070248d773307b9fc743cbb5f8a80a7"),
])
def test_zero_cocycle_below_threshold_vanishes(name, p, threshold, digest):
    # a zero cocycle is decided by the zero witness at any pole bound,
    # below the threshold too, with the bytes the solved witness gave
    proc = run_cli("di", name, "--p", p, "--pole-bound", "0")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
    data = json.loads(proc.stdout)
    assert (data["pole_bound"], data["threshold"]) == (0, threshold)
    assert data["vanishes"] is True
    assert {g for sec in data["witness"] for g in sec.values()} == {"0"}


def test_negative_pole_bound_is_an_input_error():
    # refused before any witness search; a nonnegative bound under the
    # threshold still exits 3 (test_di_inconclusive_exit_three)
    for args, bound in ((("p1", "--expect-zero"), -5),
                        (("weierstrass",), -1)):
        proc = run_cli("di", *args, "--p", "3", "--pole-bound", str(bound))
        assert proc.returncode == 2, proc.stdout
        assert json.loads(proc.stdout)["error"] == {
            "type": "WfError",
            "message": "pole bound must be an integer >= 0, got %d" % bound}


def test_pole_bound_refused_before_any_lift(monkeypatch, capsys):
    # q = 49: a lift search here would take most of a second
    def no_lift(*args, **kwargs):
        raise AssertionError("a lift was searched")

    monkeypatch.setattr(wf.di, "local_frobenius_lift", no_lift)
    message = "pole bound must be an integer >= 0, got -1"
    scheme = BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(7, frob_power=2))
    with pytest.raises(WfError) as exc:
        wf.di.compute_di_class(scheme, pole_bound=-1)
    assert str(exc.value) == message
    assert wf.cli.main(["di", "weierstrass", "--p", "7", "--m", "2",
                        "--pole-bound", "-1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "WfError", "message": message}


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


@pytest.mark.parametrize("genus", [2, 2 ** 70])
def test_genus_past_the_plane_curve_bound_is_refused_at_load(tmp_path, genus):
    # y^2 = x^3 + x is a plane cubic, so its genus is at most
    # (3 - 1)(3 - 2)/2 = 1; a claim of 2**70 made the default pole bound
    # q(2g + 2) a witness search that never ended
    doc = dict(BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(3)).to_json(),
               genus=genus)
    message = ("genus %d exceeds 1, the most a plane curve of degree 3 has "
               "(chart 'Eaff')" % genus)
    with pytest.raises(WfError) as exc:
        GluedScheme.from_json(doc)
    assert str(exc.value) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("di", str(path), timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "WfError",
                                                "message": message}


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


def test_morphism_ring_mismatch_is_refused_at_load(tmp_path, monkeypatch,
                                                   capsys):
    # a source precision of 3 against a target of 4 ran to "compatible":
    # true; both rings are named now
    doc = BUILTIN_MORPHISMS["gm_square"](BaseRingSpec(5)).to_json()
    doc["source"]["ring"]["precision"] = 3
    assert refused_document(tmp_path, "compat", doc) == {
        "type": "SpecMismatch",
        "message": "morphism source ring BaseRingSpec(p=5, eisenstein=[-5, 1], "
                   "precision=3, frob_power=1) differs from its target ring "
                   "BaseRingSpec(p=5, eisenstein=[-5, 1], precision=4, "
                   "frob_power=1)"}
    # q = 5^7 on the source only: refused before any lift search starts
    doc["source"]["ring"].update(precision=4, frob_power=7)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))

    def no_search(*args, **kwargs):
        raise AssertionError("lift search ran on a refused morphism")

    monkeypatch.setattr(wf.cli, "build_compatible_lifts", no_search)
    monkeypatch.setattr(wf.cli, "local_frobenius_lift", no_search)
    for extra in ([], ["--independent"]):
        assert wf.cli.main(["compat", str(path)] + extra) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SpecMismatch"
        assert "frob_power=7" in err["message"]
        assert "frob_power=1" in err["message"]


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


@pytest.mark.parametrize("p, side, image, text, message", [
    # an overlap of P2 that is not an inverse ran to "compatible": true
    (5, "target", "b", "2*d*c_inv",
     "round trip failed on overlap (0,1) at 'b': 2*b != b"),
    # refused only after the lift search, as a cocycle failure
    (3, "source", "x", "2*w*z_inv",
     "round trip failed on overlap (0,1) at 'x': 2*x != x"),
    # a KeyError traceback, exit 1
    (3, "source", "y", None, "no image for variable 'y'"),
], ids=["target-b", "source-x", "source-no-y"])
def test_morphism_gluings_are_validated_at_load(tmp_path, monkeypatch, capsys,
                                                p, side, image, text,
                                                message):
    doc = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(p)).to_json()
    to_j = doc[side]["overlaps"][0]["to_j"]
    if text is None:
        del to_j[image]
    else:
        to_j[image] = text
    with pytest.raises(TransitionError, match=re.escape(message)):
        validate_morphism(SchemeMorphism.from_json(doc))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))

    def no_search(*args, **kwargs):
        raise AssertionError("lift search ran on a refused morphism")

    monkeypatch.setattr(wf.cli, "build_compatible_lifts", no_search)
    monkeypatch.setattr(wf.cli, "local_frobenius_lift", no_search)
    for extra in ([], ["--independent"]):
        assert wf.cli.main(["compat", str(path)] + extra) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "TransitionError", "message": message}


def gm_map_document(pullback):
    """An etale G_m -> G_m document with the given chart pullback."""
    def gm(v):
        return {"name": "Gm", "patches": [{"name": "Gm", "vars": [v],
                                           "inverted": [v]}]}
    return {"name": "gm_map", "kind": "etale", "source": gm("x"),
            "target": gm("t"), "charts": [{"target": 0, "pullback": pullback}]}


@pytest.mark.parametrize("pullback, message", [
    # both ran to "compatible": true, exit 0
    ({"t": "x", "t_inv": "x^2", "zzz": "5"},
     "chart 0 pulls back 'zzz', which is not a variable of target chart 'Gm'"),
    ({"t": "x", "t_inv": "x^2"},
     "chart 0: the pullback of 't_inv' is not the inverse of the pullback "
     "of 't'"),
], ids=["unknown-key", "wrong-companion"])
def test_chart_pullbacks_must_be_a_ring_map(tmp_path, pullback, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gm_map_document(pullback)))
    proc = run_cli("compat", str(path), "--p", "3")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == {"type": "WfError",
                                                "message": message}


def test_direct_companion_pullback_that_inverts_is_accepted(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gm_map_document({"t": "x", "t_inv": "x_inv"})))
    assert run_json("compat", str(path), "--p", "3")["compatible"] is True


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


def affine_document(names):
    return {"name": "A%d" % len(names),
            "patches": [{"name": "A", "vars": list(names)}]}


# morphism documents whose pullbacks have a nonzero lift constant
# (P(x^p) - P^p)/p, with each pullback P as {degree in x: coefficient}
LIFT_CONSTANT_DOCUMENTS = {
    "graph": ({"name": "graph", "kind": "closed_immersion",
               "source": affine_document(["x"]),
               "target": affine_document(["x", "y"]),
               "charts": [{"target": 0, "pullback": {"x": "x", "y": "x^2 + x"},
                           "section": {"x": "x"}}]},
              {"x": {1: 1}, "y": {2: 1, 1: 1}}),
    "double": ({"name": "double", "kind": "etale",
                "source": affine_document(["x"]),
                "target": affine_document(["x"]),
                "charts": [{"target": 0, "pullback": {"x": "2*x"}}]},
               {"x": {1: 2}}),
}


def plain_frobenius_discrepancy(p, pullback):
    """(P(x)^p - P(x^p))/p mod p over the integers: the discrepancy of
    the lifts x -> x^p on both sides of the pullback P, as text."""
    power = {0: 1}
    for _ in range(p):
        step = {}
        for d1, c1 in power.items():
            for d2, c2 in pullback.items():
                step[d1 + d2] = step.get(d1 + d2, 0) + c1 * c2
        power = step
    for d, c in pullback.items():
        power[d * p] -= c
    assert all(c % p == 0 for c in power.values())
    terms = {(d,): (c // p) % p for d, c in power.items()}
    return MvPoly(IntModRing(p, 1), ("x",), terms).to_text()


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", sorted(LIFT_CONSTANT_DOCUMENTS))
def test_compat_counts_the_pullback_lift_constant(tmp_path, name, p):
    # the joint solve commutes with the pullback's lift constant, so its
    # re-check passes; independent x -> x^p lifts leave exactly that
    # constant as the discrepancy
    doc, pullbacks = LIFT_CONSTANT_DOCUMENTS[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    data = run_json("compat", str(path), "--p", str(p), "--expect-compatible")
    assert data["compatible"] is True
    (chart,) = data["charts"]
    assert set(chart["discrepancy"].values()) == {"0"}
    data = run_json("compat", str(path), "--p", str(p), "--independent")
    assert data["compatible"] is False
    for lift in data["source_lifts"] + data["target_lifts"]:
        assert set(lift["delta"].values()) == {"0"}
    (chart,) = data["charts"]
    assert chart["discrepancy"] == {
        t: plain_frobenius_discrepancy(p, pullback)
        for t, pullback in pullbacks.items()}
    if p == 3:
        assert chart["discrepancy"] == ({"x": "0", "y": "x^5 + x^4"}
                                        if name == "graph" else {"x": "2*x^3"})


def test_bounds_values():
    rep = run_json("bounds", "--g", "1", "--p", "3", "--d", "1")
    assert rep["e"] == 480
    assert rep["r_bound"] == 960
    assert rep["n"] == {"base": 3, "exponent": 960, "decimal": None}


def str_unlimited(n):
    """str(n) past the interpreter's int -> str digit limit."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(saved)


def test_digit_limit_is_not_an_input_error():
    # |GSp_112(F_5)| has over 4300 digits, the interpreter's default
    # limit for int <-> str conversion
    data = run_json("bounds", "--g", "56", "--p", "3", "--d", "1")
    assert data["gsp_order"] == str_unlimited(gsp_order(56, 5))
    coeff = "7" * 5000
    data = run_json("prolong", coeff + "*x", "--p", "3")
    assert data["input"] == coeff + "*x"


def test_main_restores_digit_limit_and_lets_internal_errors_out(
        monkeypatch, capsys):
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()

    def broken(*args):
        raise ValueError("an internal fault, not an input error")

    monkeypatch.setattr(wf.cli, "bounds_report", broken)
    with pytest.raises(ValueError, match="internal fault"):
        wf.cli.main(["bounds", "--g", "1", "--p", "3", "--d", "1"])
    assert capsys.readouterr().out == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == saved


def test_binary_document_is_an_input_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    proc = run_cli("di", str(path), "--p", "3")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "UnicodeDecodeError"


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


@pytest.mark.parametrize("command, builtin", [
    ("di", "weierstrass"), ("lift", "weierstrass"),
    ("compat", "weierstrass_in_p2")])
def test_document_ring_flags_need_p(tmp_path, capsys, command, builtin):
    # a document's ring comes from the document unless --p is given, so
    # a ring flag without --p would be ignored: it is refused instead
    table = BUILTIN_MORPHISMS if command == "compat" else BUILTIN_SCHEMES
    path = tmp_path / (builtin + ".json")
    path.write_text(json.dumps(table[builtin](BaseRingSpec(5)).to_json()))
    assert wf.cli.main([command, str(path)]) == 0
    capsys.readouterr()
    for flag, value in (("--m", "2"), ("--m", "0"), ("--precision", "3"),
                        ("--eisenstein", "-5,1")):
        assert wf.cli.main([command, str(path), flag + "=" + value]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "WfError"
        assert err["message"].startswith(flag + " needs --p"), err


def test_document_ring_flags_apply_with_p(tmp_path, capsys):
    path = tmp_path / "weierstrass.json"
    path.write_text(json.dumps(
        BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(5)).to_json()))
    assert wf.cli.main(["di", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["ring"]["frob_power"], data["threshold"]) == (1, 20)
    assert wf.cli.main(["di", str(path), "--p", "5", "--m", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["ring"]["frob_power"], data["threshold"]) == (2, 100)
    assert wf.cli.main(["di", str(path), "--p", "5", "--m", "0"]) == 2
    capsys.readouterr()


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("di", "p1", "--p", "3", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    data = json.loads(out.read_text())
    assert data["schema"] == "wf-report/1"
    assert data["vanishes"] is True


def test_thread_env_reported_not_parallel():
    # WF_THREADS is not read: every report carries "threads": 1
    for value in ("4", "junk", "-2"):
        data = run_json("bounds", "--g", "1", "--p", "3", "--d", "1",
                        env_extra={"WF_THREADS": value})
        assert data["threads"] == 1


def test_corpus_byte_determinism():
    a = run_cli("corpus", "--seed", "7")
    b = run_cli("corpus", "--seed", "7")
    c = run_cli("corpus", "--seed", "8")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


# -- the per-command parser ------------------------------------------------------


def subparser(top, name):
    """The parser top hands the arguments after name to."""
    (action,) = [a for a in top._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


@pytest.mark.parametrize("name", [cmd[0] for cmd in wf.cli.COMMANDS])
def test_one_command_parser_matches_the_full_tree(name):
    one = subparser(wf.cli._build_parser([name, "--help"]), name)
    full = subparser(wf.cli._build_parser([]), name)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one in-process wf.cli.main call."""
    try:
        code = wf.cli.main(argv)
    except SystemExit as exc:  # argparse: help, usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["--", "di"],
    ["di"], ["di", "--help"], ["di", "weierstrass", "--bogus"],
    ["di", "weierstrass", "--p", "x"], ["di", "weierstrass", "--p"],
    ["witt", "--p", "3", "--op", "nope", "--a", "1,2"], ["bounds", "--g", "1"],
    ["corpus", "--seed", "z"], ["prolong"],
    ["witt", "--p", "3", "--op", "add", "--a", "1,2", "--b", "3,4"],
    ["prolong", "x^2*y - 3", "--p", "3", "--vars", "x,y", "--at", "1,2"],
    ["jet", "a1", "--p", "3"], ["lift", "a1", "--p", "3"],
    ["di", "a1", "--p", "3"], ["compat", "a2_to_a1", "--p", "3"],
    ["bounds", "--g", "1", "--p", "3", "--d", "1"], ["corpus", "--seed", "0"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_answers_as_the_full_parser_does(argv, monkeypatch, capsys):
    # help, usage, errors, reports and exit codes are those of the tree
    # with every subcommand
    one = run_main(argv, capsys)
    build = wf.cli._build_parser
    monkeypatch.setattr(wf.cli, "_build_parser", lambda _: build([]))
    assert one == run_main(argv, capsys)


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert run_main(["di", "weierstrass", "--p", "3"], capsys)[0] == 0
    assert added == ["di"]
    added.clear()
    assert run_main(["--help"], capsys)[0] == 0
    assert added == [cmd[0] for cmd in wf.cli.COMMANDS] and len(added) == 8


# -- where reports go -----------------------------------------------------------


# one quick run of each command, with the exit code it ends in; the di and
# compat runs miss their --expect-* flag
REPORT_RUNS = [
    (["witt", "--p", "3", "--op", "mul", "--a", "7,3", "--b", "5,2"], 0),
    (["prolong", "x^2", "--p", "2", "--at", "3"], 0),
    (["jet", "a1", "--p", "3"], 0),
    (["lift", "gm", "--p", "3"], 0),
    (["di", "p1", "--p", "3"], 0),
    (["di", "weierstrass", "--p", "3", "--expect-zero"], 1),
    (["compat", "a2_to_a1", "--p", "3"], 0),
    (["compat", "weierstrass_in_p2", "--p", "3", "--independent",
      "--expect-compatible"], 1),
    (["bounds", "--g", "1", "--p", "3", "--d", "1"], 0),
    (["corpus", "--seed", "0"], 0),
]


@pytest.mark.parametrize("argv, code", REPORT_RUNS,
                         ids=[" ".join(argv) for argv, _ in REPORT_RUNS])
def test_output_holds_the_stdout_report(argv, code, tmp_path, capsys):
    plain, out, err = run_main(argv, capsys)
    assert (plain, err) == (code, "")
    path = tmp_path / "report.json"
    assert run_main(argv + ["--output", str(path)], capsys) == (code, "", "")
    assert path.read_bytes() == out.encode()
    # an unwritable path is an input error, reported on stdout
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run_main(argv + ["--output", str(missing)], capsys)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert report["error"]["type"] == "FileNotFoundError"
    assert not missing.parent.exists()


# an input error of each command that can have one (corpus takes only a seed)
@pytest.mark.parametrize("argv", [
    ["witt", "--p", "6", "--op", "neg", "--a", "1,0"],
    ["prolong", "x^^2", "--p", "3"],
    ["jet", "nosuch", "--p", "3"],
    ["lift", "a1", "--p", "3", "--patch", "nosuch"],
    ["di", "p1", "--p", "3", "--pole-bound", "-1"],
    ["compat", "nosuch", "--p", "3"],
    ["bounds", "--g", "0", "--p", "3", "--d", "1"],
], ids=lambda argv: argv[0])
def test_error_reports_skip_output(argv, tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = run_main(argv + ["--output", str(path)], capsys)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert (report["schema"], report["command"]) == ("wf-report/1", argv[0])
    assert set(report) == {"schema", "command", "error"}
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--p", "--l"])
def test_bounds_prime_past_2_64_is_inconclusive(flag, capsys):
    def run(value):
        primes = {"--p": "3", "--l": "5", flag: str(value)}
        return run_main(["bounds", "--g", "1", "--d", "1",
                         "--p", primes["--p"], "--l", primes["--l"]], capsys)

    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base
    # up to 37; past 2^64 a passing verdict is no proof
    code, out, _ = run(318665857834031151167461)
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "Inconclusive"
    assert err["bound"] == str(2 ** 64)
    assert err["message"].startswith(flag[2:] + " = 318665857834031151167461")
    assert run(2 ** 61 - 1)[0] == run(2 ** 64 - 59)[0] == 0
    code, out, _ = run(2 ** 70)
    assert (code, json.loads(out)["error"]["type"]) == (2, "WfError")
