"""Glued schemes: transition sanity, morphism kinds, twisted derivations."""

import json
import random

import pytest

from wf.base_ring import BaseRingSpec
from wf.errors import (KindMismatch, NonSmooth, NotEtale, ParseError,
                       TransitionError, WfError)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       FDerSection, GluedScheme, Overlap, Presentation,
                       SchemeMorphism, affine_space, hyperelliptic_curve,
                       transport, validate_gluing, validate_morphism,
                       weierstrass_curve)


def rand_poly(rng, ring, vars, deg=3, terms=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(deg + 1) for _ in vars)
        out[e] = ring.from_int(rng.randrange(-6, 7))
    return MvPoly(ring, vars, out)


def smooth_builtins(p):
    ring = BaseRingSpec(p)
    out = {}
    for name, make in BUILTIN_SCHEMES.items():
        try:
            out[name] = make(ring)
        except NonSmooth:
            continue
    return out


# -- gluing -----------------------------------------------------------------


def test_builtin_gluings_validate():
    counts = {}
    for p in (3, 5):
        schemes = smooth_builtins(p)
        for s in schemes.values():
            assert validate_gluing(s) is True
        counts[p] = len(schemes)
    # genus2 degenerates at p = 5, everything else survives both primes
    assert counts == {3: 8, 5: 7}


def test_nonsmooth_constructions_refused():
    for p in (2,):
        with pytest.raises(NonSmooth):
            weierstrass_curve(BaseRingSpec(p), 1, 0)
    for p in (2, 5):
        with pytest.raises(NonSmooth):
            hyperelliptic_curve(BaseRingSpec(p), [-1, 0, 0, 0, 0, 1])
    # vanishing discriminant: x^3 + 1 has a triple root mod 3
    with pytest.raises(NonSmooth):
        weierstrass_curve(BaseRingSpec(3), 0, 1)
    with pytest.raises(NonSmooth):
        hyperelliptic_curve(BaseRingSpec(7), [0, 0, 0, 1])


def test_genus_bookkeeping():
    ring = BaseRingSpec(3)
    assert hyperelliptic_curve(ring, [-1, 0, 0, 0, 0, 1]).genus == 2
    assert weierstrass_curve(ring, 1, 0).genus == 1
    assert hyperelliptic_curve(ring, [1, 1, 0, 0, 0, 0, 0, 1]).genus == 3
    assert affine_space(ring, 2).genus is None


def test_hyperelliptic_rejects_low_degree():
    with pytest.raises(WfError):
        hyperelliptic_curve(BaseRingSpec(3), [1, 1])


def test_transport_round_trips_random_sections():
    rng = random.Random(31)
    for p in (3, 5):
        ring = BaseRingSpec(p)
        for name in ("p1", "gm", "weierstrass", "p2"):
            try:
                s = BUILTIN_SCHEMES[name](ring)
            except NonSmooth:
                continue
            for (i, j) in s.overlap_pairs():
                v = s.view(i, j)
                for _ in range(5):
                    f = rand_poly(rng, ring, v.pres_a.all_vars, deg=2)
                    img = transport(f, v.pres_a, v.map_ab, v.pres_b, level="R")
                    back = transport(img, v.pres_b, v.map_ba, v.pres_a,
                                     level="R")
                    assert back == v.pres_a.nf_R(f)


def test_transport_kills_relations_across_overlap():
    ring = BaseRingSpec(3)
    curve = weierstrass_curve(ring, 1, 0)
    v = curve.view(0, 1)
    for g in curve.patches[0].relations:
        assert transport(g, v.pres_a, v.map_ab, v.pres_b, level="R").is_zero()
    for g in curve.patches[1].relations:
        assert transport(g, v.pres_b, v.map_ba, v.pres_a, level="R").is_zero()


def test_transport_missing_image_raises():
    ring = BaseRingSpec(3)
    a2 = affine_space(ring, 2).patches[0]
    a1 = affine_space(ring, 1).patches[0]
    f = parse_poly("x + y", ring, a2.all_vars)
    with pytest.raises(TransitionError):
        transport(f, a2, {"x": parse_poly("x", ring, a1.all_vars)}, a1,
                  level="R")


def test_transport_noninvertible_companion_raises():
    # the companion of x must map to the inverse of the image of x; a
    # non-unit image has no certified inverse in the target chart
    ring = BaseRingSpec(3)
    gm = BUILTIN_SCHEMES["gm"](ring).patches[0]
    a1 = affine_space(ring, 1).patches[0]
    f = parse_poly("x_inv", ring, gm.all_vars)
    with pytest.raises(TransitionError):
        transport(f, gm, {"x": parse_poly("x", ring, a1.all_vars)}, a1,
                  level="R")


def test_view_identity_and_missing_overlap():
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    v = p1.view(0, 0)
    x = MvPoly.var(ring, p1.patches[0].all_vars, "x")
    assert v.map_ab["x"] == x
    two = GluedScheme("pair", ring, [affine_space(ring, 1).patches[0],
                                     affine_space(ring, 1, name="B").patches[0]])
    assert two.overlap_pairs() == []
    with pytest.raises(WfError):
        two.view(0, 1)


def test_broken_gluing_detected():
    # P1 with one tampered transition entry: the round trip no longer closes
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    ov = Overlap(0, 1, "x", "u", to_j={"x": "u_inv"}, to_i={"u": "x_inv^2"})
    broken = GluedScheme("P1", ring, p1.patches, [ov])
    with pytest.raises(TransitionError,
                       match=r"round trip failed on overlap \(0,1\) at 'x': "
                             r"x\^2 != x"):
        validate_gluing(broken)


def test_overlap_given_twice_refused():
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    ov = Overlap(0, 1, "x", "u", to_j={"x": "u_inv"}, to_i={"u": "x_inv"})
    with pytest.raises(WfError, match=r"overlap \(0,1\) is given twice"):
        GluedScheme("P1", ring, p1.patches, [ov, ov])


def test_missing_document_keys_are_parse_errors():
    data = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3)).to_json()
    for path, key in ((("source", "ring"), "p"),
                      (("source", "overlaps", 0), "to_i"),
                      (("target", "patches", 1), "vars"),
                      (("charts", 0), "pullback"),
                      ((), "target")):
        doc = json.loads(json.dumps(data))
        node = doc
        for step in path:
            node = node[step]
        del node[key]
        with pytest.raises(ParseError, match="has no %r" % (key,)):
            SchemeMorphism.from_json(doc)


# -- serialization ----------------------------------------------------------


def test_scheme_json_round_trip():
    for p in (3, 5):
        for s in smooth_builtins(p).values():
            data = s.to_json()
            s2 = GluedScheme.from_json(data)
            assert s2.to_json() == data
            assert validate_gluing(s2) is True
            assert s2.genus == s.genus
            assert [q.name for q in s2.patches] == [q.name for q in s.patches]


def test_scheme_json_ring_override():
    base = weierstrass_curve(BaseRingSpec(3), 1, 0)
    fine = BaseRingSpec(3, precision=6)
    s2 = GluedScheme.from_json(base.to_json(), ring=fine)
    assert s2.ring.precision == 6
    assert validate_gluing(s2) is True


def test_morphism_json_round_trip():
    for p in (3, 5):
        ring = BaseRingSpec(p)
        for name, make in BUILTIN_MORPHISMS.items():
            try:
                m = make(ring)
            except NonSmooth:
                continue
            data = m.to_json()
            m2 = SchemeMorphism.from_json(data)
            assert m2.to_json() == data
            assert validate_morphism(m2) is True
            assert m2.kind == m.kind


# -- morphism validation ----------------------------------------------------


def test_builtin_morphisms_validate():
    for p in (3, 5):
        ring = BaseRingSpec(p)
        for make in BUILTIN_MORPHISMS.values():
            assert validate_morphism(make(ring)) is True


def test_missing_pullback_entry_rejected():
    ring = BaseRingSpec(3)
    plane = affine_space(ring, 2)
    line = affine_space(ring, 1)
    chart = ChartMap(0, pullback={})
    m = SchemeMorphism("broken", plane, line, [chart])
    with pytest.raises(WfError):
        validate_morphism(m)


def test_relation_pullback_must_vanish():
    ring = BaseRingSpec(3)
    curve = GluedScheme("C", ring,
                        [Presentation("C", ring, ("x", "y"),
                                      relations=["y - x^2"])])
    src = affine_space(ring, 1)
    pull = {"x": parse_poly("x", ring, src.patches[0].all_vars),
            "y": parse_poly("x^3", ring, src.patches[0].all_vars)}
    m = SchemeMorphism("off_curve", src, curve, [ChartMap(0, pull)])
    with pytest.raises(WfError):
        validate_morphism(m)


def test_kind_certificates():
    ring = BaseRingSpec(3)
    # projection relabeled etale: variable counts disagree
    m = BUILTIN_MORPHISMS["a2_to_a1"](ring)
    m.kind = "etale"
    with pytest.raises(NotEtale):
        validate_morphism(m)
    # etale relabeled projection: x^2 is not a bare variable
    m = BUILTIN_MORPHISMS["gm_square"](ring)
    m.kind = "projection"
    with pytest.raises(KindMismatch):
        validate_morphism(m)
    # unknown label
    m = BUILTIN_MORPHISMS["gm_square"](ring)
    m.kind = "smooth"
    with pytest.raises(KindMismatch):
        validate_morphism(m)


def test_closed_immersion_needs_splitting_section():
    ring = BaseRingSpec(3)
    m = BUILTIN_MORPHISMS["parabola_in_a2"](ring)
    stripped = SchemeMorphism(m.name, m.source, m.target,
                              [ChartMap(0, m.charts[0].pullback)],
                              kind="closed_immersion")
    with pytest.raises(KindMismatch):
        validate_morphism(stripped)
    src = m.source.patches[0]
    tgt = m.target.patches[0]
    bad_section = {"x": parse_poly("x", ring, tgt.all_vars),
                   "y": parse_poly("x", ring, tgt.all_vars)}
    broken = SchemeMorphism(m.name, m.source, m.target,
                            [ChartMap(0, m.charts[0].pullback, bad_section)],
                            kind="closed_immersion")
    with pytest.raises(KindMismatch):
        validate_morphism(broken)
    assert src.vars == ("x", "y")


def test_projection_collision_rejected():
    ring = BaseRingSpec(3)
    plane = affine_space(ring, 2)
    target = GluedScheme("T", ring,
                         [Presentation("T", ring, ("s", "t"))])
    x = parse_poly("x", ring, plane.patches[0].all_vars)
    m = SchemeMorphism("diag", plane, target,
                       [ChartMap(0, {"s": x, "t": x})], kind="projection")
    with pytest.raises(KindMismatch):
        validate_morphism(m)


def test_relative_jacobian_certificate():
    from wf.scheme import relative_jacobian_unit
    for p in (3, 5):
        ring = BaseRingSpec(p)
        m = BUILTIN_MORPHISMS["gm_square"](ring)
        det, inv = relative_jacobian_unit(m, 0)
        src = m.source.patches[0]
        q = src.q
        expect = src.nf(src.to_res(
            parse_poly("2*x^%d" % (q,), ring, src.all_vars)))
        assert det == expect
        assert src.red.normal_form(det * inv) == MvPoly.const(
            src.res, src.all_vars, 1)


# -- twisted derivations ------------------------------------------------------


def leibniz_charts(p):
    ring = BaseRingSpec(p)
    charts = [affine_space(ring, 2).patches[0],
              BUILTIN_SCHEMES["gm"](ring).patches[0],
              weierstrass_curve(ring, 1, 0).patches[0].localize(("y",))]
    return ring, charts


def test_fder_twisted_leibniz():
    rng = random.Random(47)
    for p in (3, 5):
        ring, charts = leibniz_charts(p)
        for pres in charts:
            q = pres.q
            for _ in range(8):
                coeffs = {v: pres.to_res(rand_poly(rng, ring, pres.all_vars))
                          for v in pres.vars}
                d = FDerSection(pres, coeffs)
                f = pres.to_res(rand_poly(rng, ring, pres.all_vars, deg=2))
                g = pres.to_res(rand_poly(rng, ring, pres.all_vars, deg=2))
                lhs = d.apply(f * g)
                rhs = pres.nf(f ** q * d.apply(g) + g ** q * d.apply(f))
                assert lhs == rhs


def test_fder_companion_channel():
    # on the torus the companion is determined: D(1/x) = -x^(-2q) D(x)
    ring = BaseRingSpec(3)
    pres = BUILTIN_SCHEMES["gm"](ring).patches[0]
    one = {"x": MvPoly.const(ring, pres.all_vars, 1)}
    d = FDerSection(pres, one)
    x_inv = MvPoly.var(ring, pres.all_vars, "x_inv")
    got = d.apply(x_inv)
    expect = pres.nf(pres.to_res(parse_poly("-x_inv^6", ring, pres.all_vars)))
    assert got == expect


def test_fder_group_structure():
    rng = random.Random(11)
    ring = BaseRingSpec(5)
    pres = affine_space(ring, 2).patches[0]
    a = FDerSection(pres, {v: pres.to_res(rand_poly(rng, ring, pres.all_vars))
                           for v in pres.vars})
    b = FDerSection(pres, {v: pres.to_res(rand_poly(rng, ring, pres.all_vars))
                           for v in pres.vars})
    f = pres.to_res(rand_poly(rng, ring, pres.all_vars))
    assert (a + b).apply(f) == pres.nf(a.apply(f) + b.apply(f))
    assert (a - b) + b == a
    assert (a - a).is_zero()
    assert -(-a) == a
    assert (a == object()) is False
