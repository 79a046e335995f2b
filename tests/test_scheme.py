"""Glued schemes: transition sanity, morphism kinds, twisted derivations."""

import json
import random

import pytest

from wf.base_ring import BaseRingSpec
from wf.errors import (KindMismatch, NonSmooth, NotEtale, ParseError,
                       TransitionError, WfError)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       FDerSection, GluedScheme, MonomialImages,
                       Presentation, SchemeMorphism, _univariate_separable,
                       affine_space, fder_apply, hyperelliptic_curve,
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


def poly_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_separability_matches_sympy_factorization():
    # h is separable over F_p exactly when every irreducible factor of h
    # has multiplicity 1; sympy's Poly.is_sqf is not that test over F_p
    # (it says True for x^5 - 1 = (x - 1)^5 mod 5), factor_list is
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(59)
    cases = [([-1, 0, 0, 0, 0, 1], 5), ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], 5),
             ([-1, 0, 0, 0, 0, 1], 3), ([0, 0, 1], 7)]
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(100):
            h = ([rng.randrange(p) for _ in range(rng.randint(1, 11))]
                 + [rng.randrange(1, p)])
            if rng.random() < 0.4:  # a repeated factor (x - r)^k
                r, k = rng.randrange(p), rng.randint(2, 4)
                for _ in range(k):
                    h = poly_product(h, [-r, 1], p)
            cases.append((h, p))
    for h, p in cases:
        _, factors = sympy.Poly(list(reversed(h)), x, modulus=p).factor_list()
        want = all(k == 1 for _, k in factors)
        assert _univariate_separable(h, p) is want, (h, p)


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
    # a table asks for an image only when an exponent needs it
    table = MonomialImages.transported(
        a2, {"x": parse_poly("x", ring, a1.all_vars)}, a1)
    assert table[(2, 0)].to_text() == "x^2"
    with pytest.raises(TransitionError):
        table[(1, 1)]


def test_transport_noninvertible_companion_raises():
    # the companion of x must map to the inverse of the image of x; a
    # non-unit image has no certified inverse in the target chart, on
    # every call and at both levels, and nothing is kept for it
    ring = BaseRingSpec(3)
    gm = BUILTIN_SCHEMES["gm"](ring).patches[0]
    a1 = affine_space(ring, 1).patches[0]
    f = parse_poly("x_inv", ring, gm.all_vars)
    for level in ("R", "res", "R", "res"):
        with pytest.raises(TransitionError):
            transport(f, gm, {"x": parse_poly("x", ring, a1.all_vars)}, a1,
                      level=level)
    table = MonomialImages.transported(
        gm, {"x": parse_poly("x", ring, a1.all_vars)}, a1)
    assert table[(3, 0)].to_text() == "x^3"
    with pytest.raises(TransitionError):
        table[(0, 1)]
    assert a1.inverses == {}
    # a certified inverse is kept once per level and image at that
    # level, and reads the same as one computed afresh
    gm2 = BUILTIN_SCHEMES["gm"](ring).patches[0]

    def moved(dst, image, level):
        return transport(f, gm, {"x": parse_poly(image, ring, dst.all_vars)},
                         dst, level=level)

    for image in ("2*x", "2*x", "5*x", "2*x"):
        for level in ("R", "res"):
            fresh = BUILTIN_SCHEMES["gm"](ring).patches[0]
            assert moved(gm2, image, level) == moved(fresh, image, level)
    assert sorted(level for level, _ in gm2.inverses) == ["R", "R", "res"]


def _transition_maps(p):
    """(src, base_map, dst) for both orders of every builtin overlap and
    every builtin morphism's chart pullbacks."""
    ring = BaseRingSpec(p)
    for scheme in smooth_builtins(p).values():
        for (a, b), v in sorted(scheme.views.items()):
            if a != b:
                yield v.pres_a, v.map_ab, v.pres_b
    for make in BUILTIN_MORPHISMS.values():
        m = make(ring)
        for i, chart in enumerate(m.charts):
            yield m.target_patch(i), chart.pullback, m.source.patches[i]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_monomial_tables_match_transport_and_normal_form(p):
    rng = random.Random(p)
    for src, base_map, dst in _transition_maps(p):
        table = MonomialImages.transported(src, base_map, dst)
        basis = src.red.monomials_up_to(2 * p)
        for m in basis:
            mono = MvPoly(src.res, src.all_vars, {m: src.res.one()})
            assert table[m] == transport(mono, src, base_map, dst), (src, m)
        # a seeded table's entry is the seed times the moved monomial
        seed = dst.nf(rand_poly(rng, dst.res, dst.all_vars))
        seeded = MonomialImages.transported(src, base_map, dst, seed=seed)
        for e in src.nf(rand_poly(rng, src.res, src.all_vars, deg=p)).terms:
            mono = MvPoly(src.res, src.all_vars, {e: src.res.one()})
            assert seeded[e] == dst.nf(
                seed * transport(mono, src, base_map, dst)), (src, e)
        shifted = MonomialImages.shifted(dst, dst.all_vars, seed)
        for m in dst.red.monomials_up_to(2 * p):
            assert shifted[m] == dst.nf(
                seed * MvPoly(dst.res, dst.all_vars, {m: dst.res.one()})), (dst, m)


@pytest.mark.parametrize("p", [3, 5])
def test_monic_images_shift_like_the_product(p):
    # an image that is one term with coefficient 1 is kept as its
    # exponent tuple and shifts the entry; every other image multiplies.
    # Either way an entry is nf(seed * prod image(n)^e_n).
    ring = BaseRingSpec(p)
    rng = random.Random(40 + p)
    curve = BUILTIN_SCHEMES["weierstrass"](ring)
    plane = BUILTIN_SCHEMES["p2"](ring)
    a2 = affine_space(ring, 2).patches[0]
    eaff = curve.patches[0]
    cases = [
        # c -> a_inv and d -> b*a_inv are monic, and so is the image a
        # of the companion c_inv
        (plane.view(1, 0), {"c": "monic", "d": "monic", "c_inv": "monic"}),
        # z -> -y_inv, w -> -x*y_inv and the companion z_inv -> -y are
        # one term with coefficient -1
        (curve.view(1, 0), {"w": "product", "z": "product",
                            "z_inv": "product"}),
    ]
    for view, kinds in cases:
        src, dst = view.pres_a, view.pres_b
        seed = dst.nf(rand_poly(rng, dst.res, dst.all_vars, deg=2))
        table = MonomialImages.transported(src, view.map_ab, dst, seed=seed)
        _check_against_product(table, dst, seed, src.red.monomials_up_to(p + 2))
        for name, kind in kinds.items():
            img = table.images[table.names.index(name)]
            assert isinstance(img, tuple if kind == "monic" else MvPoly), name
    # multi-term images
    base_map = {"x": parse_poly("x + y", ring, eaff.all_vars),
                "y": parse_poly("x*y - 1", ring, eaff.all_vars)}
    seed = eaff.nf(rand_poly(rng, eaff.res, eaff.all_vars, deg=2))
    table = MonomialImages.transported(a2, base_map, eaff, seed=seed)
    _check_against_product(table, eaff, seed, a2.red.monomials_up_to(p + 2))
    assert all(isinstance(img, MvPoly) for img in table.images)


def _check_against_product(table, dst, seed, basis):
    """Each entry of table equals the seed times the images' powers,
    multiplied out and normal-formed at every step."""
    images = [table.image_of(name) for name in table.names]
    for e in basis:
        val = dst.nf(seed)
        for img, k in zip(images, e):
            for _ in range(k):
                val = dst.nf(val * img)
        assert table[e] == val, e


def _reference_shifted_entry(pres, seed, e, memo):
    """The table's chain with a normal form at every step: the entry one
    lower in the last nonzero exponent, times that variable, reduced."""
    got = memo.get(e)
    if got is None:
        if not any(e):
            got = pres.nf(seed)
        else:
            k = max(i for i, a in enumerate(e) if a)
            lower = e[:k] + (e[k] - 1,) + e[k + 1:]
            x = MvPoly.var(pres.res, pres.all_vars, pres.all_vars[k])
            got = pres.nf(_reference_shifted_entry(pres, seed, lower, memo) * x)
        memo[e] = got
    return got


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shifted_entries_skip_only_redundant_normal_forms(p):
    # a variable that heads no rule and sits in no localization pair takes
    # a normal form to a normal form, so its entries skip normal_form;
    # every entry must still be nf(seed * x^m), with the terms in the
    # order the always-reducing chain gives
    ring = BaseRingSpec(p)
    rng = random.Random(90 + p)
    curve = BUILTIN_SCHEMES["weierstrass"](ring)
    plane = BUILTIN_SCHEMES["p2"](ring)
    charts = {"Eaff": (curve.patches[0], ("y",)),
              "Eaff[1/y]": (curve.view(0, 1).pres_a, ()),
              "U0": (plane.patches[0], ("a", "b")),
              "U0[1/a]": (plane.view(0, 1).pres_a, ("b",))}
    for name, (pres, free) in charts.items():
        assert pres.name == name
        for _ in range(3):
            seed = pres.nf(rand_poly(rng, pres.res, pres.all_vars, deg=p))
            table = MonomialImages.shifted(pres, pres.all_vars, seed)
            assert table.free == tuple(v in free for v in pres.all_vars)
            memo = {}
            for m in pres.red.monomials_up_to(2 * p + 1):
                direct = pres.nf(seed * MvPoly(pres.res, pres.all_vars, {m: pres.res.one()}))
                assert table[m] == direct, (name, m)
                ref = _reference_shifted_entry(pres, seed, m, memo)
                assert list(table[m].terms.items()) == list(ref.terms.items())


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
    ov = {"i": 0, "j": 1, "invert_i": "x", "invert_j": "u",
          "to_j": {"x": "u_inv"}, "to_i": {"u": "x_inv^2"}}
    broken = GluedScheme("P1", ring, p1.patches, [ov])
    with pytest.raises(TransitionError,
                       match=r"round trip failed on overlap \(0,1\) at 'x': "
                             r"x\^2 != x"):
        validate_gluing(broken)


def test_broken_triple_detected():
    # 4 * 61 = 1 + 3^5, so both round trips of (1,2) close mod 3^4, but
    # going 0 -> 1 -> 2 meets c -> 4*e*g_inv where 0 -> 2 does not
    doc = BUILTIN_SCHEMES["p2"](BaseRingSpec(3)).to_json()
    doc["overlaps"][2]["to_j"]["c"] = "4*e*g_inv"
    doc["overlaps"][2]["to_i"]["e"] = "61*c*d_inv"
    with pytest.raises(TransitionError,
                       match=r"cocycle failed on triple \(0,1,2\) at 'a': "
                             r"g\*e_inv != 61\*g\*e_inv"):
        validate_gluing(GluedScheme.from_json(doc))


def test_overlap_given_twice_refused():
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    ov = p1.to_json()["overlaps"][0]
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


def test_builtin_overlaps_rebuild_from_their_documents():
    # builtins, from_json and to_json share one overlap format
    for p in (3, 5, 7):
        for s in smooth_builtins(p).values():
            data = s.to_json()
            rebuilt = GluedScheme(s.name, s.ring, s.patches, data["overlaps"],
                                  genus=s.genus)
            assert rebuilt.to_json() == data
            # an unknown key such as "family" is ignored
            assert GluedScheme.from_json(dict(data, family="x")).to_json() == data


@pytest.mark.parametrize("field, value, error, message", [
    ("j", True, ParseError, "overlap index j must be an integer, got True"),
    ("i", 1, WfError, "store overlaps with i < j"),
    ("to_j", ["x"], ParseError, "overlap to_j must be an object, got ['x']"),
    ("to_i", "u", ParseError, "overlap to_i must be an object, got 'u'"),
])
def test_malformed_overlap_field_refused(field, value, error, message):
    data = BUILTIN_SCHEMES["p1"](BaseRingSpec(3)).to_json()
    data["overlaps"][0][field] = value
    with pytest.raises(error) as info:
        GluedScheme.from_json(data)
    assert type(info.value) is error and str(info.value) == message


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
                lhs = fder_apply(pres, d.coeffs, f * g)
                rhs = pres.nf(f ** q * fder_apply(pres, d.coeffs, g)
                              + g ** q * fder_apply(pres, d.coeffs, f))
                assert lhs == rhs


def test_fder_companion_channel():
    # on the torus the companion is determined: D(1/x) = -x^(-2q) D(x)
    ring = BaseRingSpec(3)
    pres = BUILTIN_SCHEMES["gm"](ring).patches[0]
    one = {"x": MvPoly.const(ring, pres.all_vars, 1)}
    d = FDerSection(pres, one)
    x_inv = MvPoly.var(ring, pres.all_vars, "x_inv")
    got = fder_apply(pres, d.coeffs, x_inv)
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
    assert (fder_apply(pres, (a + b).coeffs, f)
            == pres.nf(fder_apply(pres, a.coeffs, f)
                       + fder_apply(pres, b.coeffs, f)))
    assert (a - b) + b == a
    assert (a - a).is_zero()
    assert -(-a) == a
    assert (a == object()) is False
