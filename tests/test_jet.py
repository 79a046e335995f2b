"""Jet-space charts, mod-pi linearization, and etale base change."""

import gc
import random

import pytest

from wf import jet
from wf.base_ring import BaseRingSpec
from wf.delta import DeltaContext, jet_name
from wf.di import build_compatible_lifts, compatibility_check
from wf.errors import NonSmooth, NotEtale
from wf.jet import (JetPresentation, collapse_companion_jets,
                    etale_basechange_check, linearize_generator,
                    linearize_mod_pi)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       GluedScheme, Presentation, SchemeMorphism,
                       affine_space, fold_companions, multiplicative_group,
                       validate_morphism)


def all_builtin_schemes(p, ring=None):
    ring = ring or BaseRingSpec(p)
    out = []
    for name in sorted(BUILTIN_SCHEMES):
        try:
            out.append(BUILTIN_SCHEMES[name](ring))
        except NonSmooth:
            continue
    return out


def rand_poly(ring, vars, rng, deg=3, terms=4):
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(vars))] += 1
        out[tuple(e)] = ring.from_int(rng.randint(-9, 9))
    return MvPoly(ring, vars, out)


def test_jet_presentation_doubles_generators():
    ring = BaseRingSpec(3)
    curve = BUILTIN_SCHEMES["weierstrass"](ring)
    jp = JetPresentation(curve.patches[0])
    # one relation, no companions: original plus its prolongation
    assert len(jp.generators) == 2
    assert set(jp.all_vars) == {"x", "y", "x_dot", "y_dot"}
    gm = multiplicative_group(ring)
    jp2 = JetPresentation(gm.patches[0].localize(()))
    # companion product counts as a generator too
    assert len(jp2.generators) == 2


def chart_sides(scheme):
    """Every patch of the scheme, then both sides of each overlap."""
    out = list(scheme.patches)
    for (i, j) in scheme.overlap_pairs():
        view = scheme.view(i, j)
        out += [view.pres_a, view.pres_b]
    return out


def test_linearize_never_nonlinear_on_corpus():
    # the closed form assumes delta(g) is affine in the jets mod pi: every
    # term of prolong(g) of jet degree 2 or more carries a factor pi
    for p in (2, 3, 5):
        for scheme in all_builtin_schemes(p):
            for pres in chart_sides(scheme):
                rows = linearize_mod_pi(pres)
                assert len(rows) == len(pres.relations) + len(pres.loc_pairs)
                dctx = DeltaContext(pres.ring, pres.all_vars)
                n = len(pres.all_vars)
                for g in pres.generators():
                    for e, c in dctx.prolong(g).terms.items():
                        if not pres.res.is_zero(c.residue()):
                            assert sum(e[n:]) <= 1, (pres.name, g.to_text())


def test_jacobian_matches_symbolic_route():
    # the mod-pi Jacobian of delta(g) in the jet x_dot equals the partial
    # of the coefficientwise-Frobenius twist of g, evaluated at X^q
    rng = random.Random(51)
    count = 0
    for p in (2, 3, 5):
        ring = BaseRingSpec(p)
        q = ring.q
        for scheme in all_builtin_schemes(p):
            for pres in scheme.patches:
                for _ in range(4):
                    g = rand_poly(ring, pres.all_vars, rng)
                    row = linearize_generator(pres, g)
                    for v in pres.all_vars:
                        expect = pres.nf(pres.to_res(
                            g.partial(v).q_power_vars(q)))
                        got = row.jac.get(v)
                        if got is None:
                            got = MvPoly.zero(expect.ring, expect.vars)
                        assert expect == pres.nf(got)
                    count += 1
    assert count >= 60


def test_linearize_constant_part_is_delta_at_qth_powers():
    # with all jets set to zero the prolongation collapses to its constant
    ring = BaseRingSpec(3)
    pres = affine_space(ring, 2).patches[0]
    dctx = DeltaContext(ring, pres.all_vars)
    g = parse_poly("x^2*y + 2*x", ring, pres.all_vars)
    row = linearize_generator(pres, g)
    dg = dctx.prolong(g)
    zeroed = {v: MvPoly.var(ring, pres.all_vars, v) for v in pres.all_vars}
    zeroed.update({jet_name(v): MvPoly.zero(ring, pres.all_vars)
                   for v in pres.all_vars})
    collapsed = dg.subst(zeroed, ring=ring, vars=pres.all_vars)
    assert row.const == pres.nf(pres.to_res(collapsed))


def oracle_linearize(pres, g):
    """The prolongation route: prolong g over the base ring, keep the
    residue terms of jet degree 0 (const) and 1 (jac), normal-formed."""
    dctx = DeltaContext(pres.ring, pres.all_vars)
    dg = dctx.prolong(g)
    n = len(pres.all_vars)
    res = pres.res
    const_terms = {}
    jac_terms = {name: {} for name in pres.all_vars}
    for e, c in dg.terms.items():
        cr = c.residue()
        if res.is_zero(cr):
            continue
        jdeg = sum(e[n:])
        base = e[:n]
        if jdeg == 0:
            const_terms[base] = res.add(const_terms.get(base, 0), cr)
        else:
            assert jdeg == 1, g.to_text()
            j = next(k for k in range(n) if e[n + k])
            bucket = jac_terms[pres.all_vars[j]]
            bucket[base] = res.add(bucket.get(base, 0), cr)
    const = pres.nf(MvPoly(res, pres.all_vars, const_terms))
    jac = {}
    for name, bucket in jac_terms.items():
        poly = pres.nf(MvPoly(res, pres.all_vars, bucket))
        if not poly.is_zero():
            jac[name] = poly
    return const, jac


ORACLE_RINGS = ([BaseRingSpec(p) for p in (2, 3, 5, 7)]
                + [BaseRingSpec(3, frob_power=2),
                   BaseRingSpec(3, [-3, 0, 1]),
                   BaseRingSpec(5, precision=2)])


@pytest.mark.parametrize("ring", ORACLE_RINGS,
                         ids=["p=2", "p=3", "p=5", "p=7", "q=9", "x^2-3",
                              "precision=2"])
def test_closed_form_matches_prolongation_oracle(ring):
    # relations, companion products, chart pullbacks and random
    # polynomials on every builtin chart and overlap side
    rng = random.Random(ring.p * 100 + ring.q + ring.precision)
    cases = []
    for scheme in all_builtin_schemes(ring.p, ring):
        for pres in chart_sides(scheme):
            cases += [(pres, g) for g in pres.generators()]
            cases += [(pres, rand_poly(ring, pres.all_vars, rng))
                      for _ in range(2)]
    for name in sorted(BUILTIN_MORPHISMS):
        try:
            m = BUILTIN_MORPHISMS[name](ring)
        except NonSmooth:
            continue
        for i, chart in enumerate(m.charts):
            src = m.source.patches[i]
            cases += [(src, img) for img in chart.pullback.values()]
    assert len(cases) >= 40
    for pres, g in cases:
        const, jac = oracle_linearize(pres, g)
        row = linearize_generator(pres, g)
        assert row.const == const, (pres.name, g.to_text())
        assert {v: pres.nf(h) for v, h in row.jac.items()
                if not pres.nf(h).is_zero()} == jac, (pres.name, g.to_text())
        folded = collapse_companion_jets(pres, row).jac
        assert folded == fold_companions(pres, jac), (pres.name, g.to_text())


def oracle_constant(pres, g):
    """(g(X^q) - g^q)/pi expanded over the full precision-N ring, then
    reduced mod pi and normal-formed: no normal form before the end."""
    ring = pres.ring
    lifted = (g.q_power_vars(pres.q) - g ** pres.q).map_coeffs(ring.div_pi, ring)
    return pres.nf(pres.to_res(lifted))


def constant_cases(ring):
    """Every generator of every builtin chart and overlap side, and every
    chart pullback of every builtin morphism, over ring."""
    cases = []
    for scheme in all_builtin_schemes(ring.p, ring):
        for pres in chart_sides(scheme):
            cases += [(pres, g) for g in pres.generators()]
    for name in sorted(BUILTIN_MORPHISMS):
        try:
            m = BUILTIN_MORPHISMS[name](ring)
        except NonSmooth:
            continue
        for i, chart in enumerate(m.charts):
            src = m.source.patches[i]
            cases += [(src, img) for img in chart.pullback.values()]
    return cases


CONSTANT_RINGS = ([BaseRingSpec(p) for p in (3, 5, 7)]
                  + [BaseRingSpec(p, frob_power=2) for p in (3, 5)]
                  + [BaseRingSpec(3, [-3, 0, 1]), BaseRingSpec(5, [-5, 5, 1]),
                     BaseRingSpec(3, precision=2), BaseRingSpec(5, precision=2)])


@pytest.mark.parametrize("ring", CONSTANT_RINGS,
                         ids=["p=3", "p=5", "p=7", "q=9", "q=25", "x^2-3",
                              "x^2+5x-5", "p=3,precision=2", "p=5,precision=2"])
def test_lift_constant_matches_full_ring_oracle(ring):
    # the constant is computed in the chart mod pi^2, generators reduced
    # to 0 before any power is taken; it must equal the full expansion
    cases = constant_cases(ring)
    assert len(cases) >= 20
    for pres, g in cases:
        assert linearize_generator(pres, g).const == oracle_constant(pres, g), (
            pres.name, g.to_text())


def test_lift_constant_when_rules_differ_mod_pi():
    # y^2 - x^3 - 1 - 3x^4 is monic in y over Z_3 but in x mod 3, so the
    # normal form over R/pi^2 does not reduce to the residue one; it is
    # still canonical for the ideal mod pi, and the constant is the same
    rng = random.Random(55)
    for ring in (BaseRingSpec(3), BaseRingSpec(3, frob_power=2)):
        pres = Presentation("C", ring, ("x", "y"), ["y^2 - x^3 - 1 - 3*x^4"])
        pres2 = pres.mod_pi2()
        assert set(pres2.red_R.monic_rules) == {"y"}
        assert set(pres2.red.monic_rules) == {"x"}
        polys = pres.generators() + [rand_poly(ring, pres.all_vars, rng)
                                     for _ in range(3)]
        for g in polys:
            assert linearize_generator(pres, g).const == oracle_constant(pres, g), (
                g.to_text())


def test_precision_two_clone_is_built_once_and_holds_no_chart():
    # the clone is shared by the lift constants and LocalLift.verify; a
    # reference back to its chart would keep a cycle alive until a
    # collection
    pres = BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(5)).patches[1]
    clone = pres.mod_pi2()
    assert clone is pres.mod_pi2()
    assert clone.ring.precision == 2 and clone.relations_res == pres.relations_res
    seen, todo = set(), [clone]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert obj is not pres
        todo.extend(gc.get_referents(obj))


def test_collapse_companion_jets_eliminates_companions():
    ring = BaseRingSpec(3)
    gm = multiplicative_group(ring)
    pres = gm.patches[0]
    for row in linearize_mod_pi(pres):
        collapsed = collapse_companion_jets(pres, row)
        assert all(v in pres.vars for v in collapsed.jac)


def test_etale_square_on_units_passes():
    for p in (3, 5):
        ring = BaseRingSpec(p)
        m = BUILTIN_MORPHISMS["gm_square"](ring)
        etale_basechange_check(m, random.Random(52))


def test_affine_square_rejected_not_etale():
    ring = BaseRingSpec(3)
    a1 = affine_space(ring, 1, name="S")
    a1t = affine_space(ring, 1, name="T")
    sq = parse_poly("x^2", ring, a1.patches[0].all_vars)
    m = SchemeMorphism("a1_square", a1, a1t,
                       [ChartMap(0, {"x": sq})], kind="etale")
    with pytest.raises(NotEtale):
        validate_morphism(m)


def gm_self_map(ring, image):
    """G_m -> G_m, t -> image, declared étale."""
    src = multiplicative_group(ring)
    tgt = GluedScheme("Gm", ring, [Presentation("Gm", ring, ("t",),
                                                inverted=("t",))],
                      family="torus")
    pullback = {"t": parse_poly(image, ring, src.patches[0].all_vars)}
    return SchemeMorphism("gm_to_" + image, src, tgt, [ChartMap(0, pullback)],
                          kind="etale")


def test_inversion_through_companions_is_etale():
    # t -> x_inv differentiates only through the companion channel,
    # D(x_inv) = -x_inv^(2q) D(x); a Jacobian over base variables alone
    # reads 0 there and refuses an étale map
    for p in (3, 5, 7):
        ring = BaseRingSpec(p)
        for image in ("x_inv", "x_inv^2"):
            m = gm_self_map(ring, image)
            assert validate_morphism(m) is True
            assert etale_basechange_check(m, random.Random(54))
            xs, ys = build_compatible_lifts(m)
            assert compatibility_check(m, xs, ys).compatible is True
        for image in ("x_inv^%d" % (p,), "x^%d" % (p,)):
            with pytest.raises(NotEtale):
                validate_morphism(gm_self_map(ring, image))


PLANE_MAPS = {"x+y": ("x + y", "y"), "x+y^2": ("x + y^2", "y"), "swap": ("y", "x")}


@pytest.mark.parametrize("images", PLANE_MAPS.values(), ids=PLANE_MAPS.keys())
def test_plane_automorphisms_are_etale(images, monkeypatch):
    # a pullback of two terms prolongs with a C_pi carry, so its forward
    # jets are known to one pi-digit less than the sent ones, and recovery
    # must be read at that precision, not compared digit for digit
    steps = []

    def recording_solve(mat, rhs):
        out = solve(mat, rhs)
        steps.extend(out)
        return out

    solve = jet._solve_unit_system
    monkeypatch.setattr(jet, "_solve_unit_system", recording_solve)
    for p in (3, 5, 7):
        ring = BaseRingSpec(p)
        src = affine_space(ring, 2, name="S")
        tgt = affine_space(ring, 2, name="T")
        pullback = {t: parse_poly(img, ring, src.patches[0].all_vars)
                    for t, img in zip(tgt.patches[0].vars, images)}
        m = SchemeMorphism("plane_map", src, tgt, [ChartMap(0, pullback)],
                           kind="etale")
        assert validate_morphism(m) is True
        del steps[:]
        assert etale_basechange_check(m, random.Random(56)) is True
        # each recovered jet is 0 minus the Newton steps, so it carries
        # the least precision among them
        assert steps and min(d.prec for d in steps) >= ring.precision - 1
        xs, ys = build_compatible_lifts(m)
        assert compatibility_check(m, xs, ys).compatible is True


def test_etale_check_prolongs_each_pullback_once(monkeypatch):
    # one prolongation per pullback of each relation-free chart, shared by
    # the forward values and the Newton solves at all three points
    calls = []
    prolong = DeltaContext.prolong

    def counted(self, f):
        calls.append(f)
        return prolong(self, f)

    monkeypatch.setattr(DeltaContext, "prolong", counted)
    m = BUILTIN_MORPHISMS["gm_square"](BaseRingSpec(5))
    assert etale_basechange_check(m, random.Random(57)) is True
    # one relation-free chart with one target variable
    assert len(calls) == len(m.target_patch(0).vars) == 1
