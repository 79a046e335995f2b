"""Seeded document fuzzer: mutated scheme and morphism documents run
through the in-process command line.

Every run must end in exit 0, 2 or 3 without raising, and a document
that the library refuses at load (from_json plus validation) must be
refused by the command line with exit 2 and the same error.  A builtin's
document written another way (a chart's variables reversed, the patches
reversed, every variable renamed) must give the same exit code and
``vanishes``.
"""

import copy
import json
import random
import re

import pytest

import wf.cli
from wf.base_ring import BaseRingSpec
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, INV_SUFFIX,
                       GluedScheme, SchemeMorphism, validate_gluing,
                       validate_morphism)

SEED = 20181
DOCUMENTS = 200
GLUING_DOCUMENTS = 120

SOURCES = ([("di", BUILTIN_SCHEMES[name](BaseRingSpec(3)).to_json())
            for name in ("p1", "weierstrass", "gm", "a2")]
           + [("compat", BUILTIN_MORPHISMS[name](BaseRingSpec(5)).to_json())
              for name in ("gm_square", "parabola_in_a2")]
           # two charts on each side, so gluing mutations reach compat
           + [("compat", BUILTIN_MORPHISMS["weierstrass_in_p2"](
               BaseRingSpec(3)).to_json())])

LEAF_VALUES = (None, True, False, -1, 0, 2, 7, 0.5, 2 ** 70, "x^^2 +",
               "", [], {})

# values of these keys set the Frobenius power and the working precision:
# "frob_power": 2**70 asks for q = 3^(2^70), which no run finishes, so
# their values are mutated only in test_ring_value_mutations
RING_VALUE_KEYS = ("frob_power", "precision")

# keys whose string values are polynomial text
POLY_KEYS = ("relations", "to_i", "to_j", "pullback", "section")

EDIT_CHARS = "xyzwt012+-*^()_ "


def paths(node, prefix=()):
    """(path, value) for every entry below node, depth first."""
    items = (node.items() if isinstance(node, dict) else enumerate(node))
    for key, value in items:
        path = prefix + (key,)
        yield path, value
        if isinstance(value, (dict, list)):
            yield from paths(value, path)


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng, within=None):
    """A copy of doc with one leaf replaced, one key deleted, or one
    character of polynomial text edited; with within, only below a key
    of that name."""
    doc = copy.deepcopy(doc)
    entries = [(path, value) for path, value in paths(doc)
               if within is None or within in path[:-1]]
    leaves = [path for path, value in entries
              if (not isinstance(value, (dict, list)) or not value)
              and path[-1] not in RING_VALUE_KEYS]
    keys = [path for path, _ in entries if isinstance(path[-1], str)]
    texts = [path for path, value in entries
             if isinstance(value, str) and value
             and any(key in POLY_KEYS for key in path)]
    kind = rng.choice(["leaf", "leaf", "delete"] + ["edit"] * bool(texts))
    if kind == "delete":
        path = rng.choice(keys)
        del at(doc, path[:-1])[path[-1]]
    elif kind == "edit":
        path = rng.choice(texts)
        text = at(doc, path)
        i = rng.randrange(len(text))
        op = rng.choice(("replace", "delete", "insert"))
        ch = rng.choice(EDIT_CHARS)
        text = (text[:i] + ch + text[i + 1:] if op == "replace"
                else text[:i] + text[i + 1:] if op == "delete"
                else text[:i] + ch + text[i:])
        at(doc, path[:-1])[path[-1]] = text
    else:
        path = rng.choice(leaves)
        at(doc, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(LEAF_VALUES))
    return doc


def library_error(command, doc):
    """The exception that loading doc through the library raises, or None."""
    try:
        if command == "di":
            validate_gluing(GluedScheme.from_json(doc, None))
        else:
            validate_morphism(SchemeMorphism.from_json(doc, None))
    except Exception as exc:  # compared with the command line's refusal
        return exc
    return None


def check_document(command, doc, path, capsys):
    path.write_text(json.dumps(doc))
    code = wf.cli.main([command, str(path)])
    out = capsys.readouterr().out
    assert code in (0, 2, 3), out
    expected = library_error(command, doc)
    if expected is not None:
        assert code == 2, (json.dumps(doc), out)
        err = json.loads(out)["error"]
        assert (err["type"], err["message"]) == (type(expected).__name__,
                                                 str(expected))
    return code


def test_mutated_documents(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = {0: 0, 2: 0, 3: 0}
    for n in range(DOCUMENTS):
        command, source = rng.choice(SOURCES)
        doc = mutate(source, rng)
        codes[check_document(command, doc, tmp_path / ("%d.json" % n),
                             capsys)] += 1
    # the mutations reach past loading as well as being refused by it
    assert codes[0] and codes[2], codes


def test_gluing_mutations_of_a_two_chart_morphism(tmp_path, capsys):
    # the last source is the one whose overlaps compat reads; mutating
    # only them reaches gluings that the lift search alone never refuses
    command, source = SOURCES[-1]
    rng = random.Random(SEED)
    codes = {0: 0, 2: 0, 3: 0}
    for n in range(GLUING_DOCUMENTS):
        doc = mutate(source, rng, within="overlaps")
        codes[check_document(command, doc, tmp_path / ("%d.json" % n),
                             capsys)] += 1
    assert codes[2], codes


@pytest.mark.parametrize("key", RING_VALUE_KEYS)
def test_ring_value_mutations(key, tmp_path, capsys):
    # small values only: each is cheap, and a frob_power large enough to
    # stall the lift search is the growth recorded in README, not a fault
    for command, source in SOURCES:
        rings = [path for path, value in paths(source) if path[-1] == "ring"]
        for ring_path in rings:
            for value in (None, True, -1, 0, 1, 2, 0.5, "2", [], {}):
                doc = copy.deepcopy(source)
                at(doc, ring_path)[key] = value
                check_document(command, doc, tmp_path / "ring.json", capsys)


# (builtin, p) whose verdict is checked against rewritten documents; the
# three-chart plane curves of ROADMAP item 9 change verdict when a
# chart's variables are reversed, and join once that is fixed
PRESENTATION_CASES = (("weierstrass", 5), ("weierstrass", 7), ("genus2", 3),
                      ("p1", 3), ("p2", 5))

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reverse_vars(doc, k):
    doc = copy.deepcopy(doc)
    doc["patches"][k]["vars"].reverse()
    return doc


def reverse_patches(doc):
    """The patches in reverse order; each overlap (i, j) becomes
    (n-1-j, n-1-i), so documents' i < j holds, with its two sides swapped."""
    doc = copy.deepcopy(doc)
    n = len(doc["patches"])
    doc["patches"].reverse()
    doc["overlaps"] = [{"i": n - 1 - ov["j"], "j": n - 1 - ov["i"],
                        "invert_i": ov["invert_j"], "invert_j": ov["invert_i"],
                        "to_i": ov["to_j"], "to_j": ov["to_i"]}
                       for ov in doc["overlaps"]]
    return doc


def rename_vars(doc):
    """Every variable renamed, the sorted order of the names reversed;
    a companion v_inv follows its variable."""
    doc = copy.deepcopy(doc)
    names = sorted({v for patch in doc["patches"] for v in patch["vars"]})
    new = {v: "n" + chr(ord("z") - k) for k, v in enumerate(names)}

    def name(match):
        t = match.group(0)
        if t.endswith(INV_SUFFIX) and t[:-len(INV_SUFFIX)] in new:
            return new[t[:-len(INV_SUFFIX)]] + INV_SUFFIX
        return new.get(t, t)

    def text(t):
        return NAME.sub(name, t)

    for patch in doc["patches"]:
        patch["vars"] = [new[v] for v in patch["vars"]]
        patch["inverted"] = [new[v] for v in patch["inverted"]]
        patch["relations"] = [text(r) for r in patch["relations"]]
    for ov in doc["overlaps"]:
        for key in ("invert_i", "invert_j"):
            ov[key] = new[ov[key]]
        for key in ("to_i", "to_j"):
            ov[key] = {new[v]: text(t) for v, t in ov[key].items()}
    return doc


def di_verdict(doc, path, capsys):
    path.write_text(json.dumps(doc))
    code = wf.cli.main(["di", str(path)])
    return code, json.loads(capsys.readouterr().out).get("vanishes")


@pytest.mark.parametrize("name,p", PRESENTATION_CASES,
                         ids=["%s-p%d" % case for case in PRESENTATION_CASES])
def test_verdict_does_not_depend_on_the_presentation(name, p, tmp_path, capsys):
    doc = BUILTIN_SCHEMES[name](BaseRingSpec(p)).to_json()
    path = tmp_path / "doc.json"
    want = di_verdict(doc, path, capsys)
    assert want[0] == 0, want
    rewritten = ([("vars of chart %d reversed" % k, reverse_vars(doc, k))
                  for k in range(len(doc["patches"]))]
                 + [("patches reversed", reverse_patches(doc)),
                    ("variables renamed", rename_vars(doc))])
    for how, other in rewritten:
        assert di_verdict(other, path, capsys) == want, how
