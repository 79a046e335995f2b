"""Lift search, obstruction cocycles, coboundary decisions, compatibility."""

import json
import random

import pytest

from wf.base_ring import BaseRingSpec
from wf.errors import (Inconclusive, KindMismatch, NonSmooth,
                       NoSolutionAtBound, WfError)
from wf.di import (Cochain1, LinearSystem, LocalLift, build_compatible_lifts,
                   coboundary_of, compatibility_check, completeness_threshold,
                   compute_di_class, di_cocycle, di_cocycle_pair, express_fder,
                   is_coboundary, lift_discrepancy, lift_substitution,
                   local_frobenius_lift, zero_sections)
from wf.jet import (collapse_companion_jets, linearize_generator,
                    linearize_mod_pi)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       FDerSection, GluedScheme, Presentation, SchemeMorphism,
                       transport, twisted_gradient, validate_gluing,
                       validate_morphism, weierstrass_curve)


def collapsed_rows(pres):
    return [collapse_companion_jets(pres, row)
            for row in linearize_mod_pi(pres)]


def assert_admissible_by_rows(pres, coeffs):
    # the defining linear condition, recomputed outside the solver
    for row in collapsed_rows(pres):
        acc = row.const
        for v in pres.vars:
            jac = row.jac.get(v)
            if jac is not None:
                acc = acc + jac * coeffs[v]
        assert pres.nf(acc).is_zero()


# -- local lifts --------------------------------------------------------------


def test_local_lift_worked_values():
    aff3 = weierstrass_curve(BaseRingSpec(3), 1, 0).patches[0]
    lift = local_frobenius_lift(aff3)
    assert lift.degree == 9
    assert lift.coeffs["x"].to_text() == "x*y^4 + 2*x^2*y^2"
    assert lift.coeffs["y"].to_text() == "0"
    aff5 = weierstrass_curve(BaseRingSpec(5), 1, 0).patches[0]
    lift5 = local_frobenius_lift(aff5)
    assert lift5.coeffs["x"].to_text() == "4*x*y^4 + 2*x^2*y^2"
    assert lift5.coeffs["y"].to_text() == "x^2*y^5 + x*y^3 + 3*y"


def test_free_chart_lift_is_plain_frobenius():
    ring = BaseRingSpec(3)
    pres = BUILTIN_SCHEMES["a1"](ring).patches[0]
    lift = local_frobenius_lift(pres)
    assert lift.fder.is_zero()
    images = lift_substitution(lift.pres, lift.coeffs)
    assert images["x"] == parse_poly("x^3", ring, pres.all_vars)


def test_solved_lifts_satisfy_rows_and_verify():
    for p in (3, 5):
        ring = BaseRingSpec(p)
        charts = [weierstrass_curve(ring, 1, 0).patches[0],
                  weierstrass_curve(ring, 1, 0).patches[1],
                  BUILTIN_SCHEMES["gm"](ring).patches[0],
                  BUILTIN_SCHEMES["p1"](ring).patches[1]]
        for pres in charts:
            lift = local_frobenius_lift(pres)
            assert lift.verify() is True
            assert_admissible_by_rows(pres, lift.coeffs)


def test_lift_ladder_doubles_to_the_cap_then_refuses():
    pres = BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(3)).patches[0]
    # degrees 1, 2, 4: the first admissible lift needs degree 4 at p = 3
    assert local_frobenius_lift(pres, 1, 8).degree == 4
    with pytest.raises(NoSolutionAtBound) as exc:
        local_frobenius_lift(pres, 1, 1)
    assert exc.value.bound == 1
    assert str(exc.value) == ("no admissible lift on Eaff with coefficients "
                              "of degree <= 1")
    # degrees 2, then 3: the last step is clamped to the cap
    with pytest.raises(NoSolutionAtBound) as exc:
        local_frobenius_lift(pres, 2, 3)
    assert exc.value.bound == 3
    # degree 0 steps to 1, then doubles: 0, 1, 2, 4
    assert local_frobenius_lift(pres, 0, 8).degree == 4
    with pytest.raises(NoSolutionAtBound) as exc:
        local_frobenius_lift(pres, 0, 3)
    assert exc.value.bound == 3
    with pytest.raises(WfError, match="start degree must be"):
        local_frobenius_lift(pres, -1, 5)
    # a start above the cap is lowered to it: degree 2 only
    with pytest.raises(NoSolutionAtBound) as exc:
        local_frobenius_lift(pres, 4, 2)
    assert exc.value.bound == 2
    with pytest.raises(WfError, match="max degree must be"):
        local_frobenius_lift(pres, 1, -1)
    m = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3))
    with pytest.raises(NoSolutionAtBound) as exc:
        build_compatible_lifts(m, start_degree=1, max_degree=1)
    assert exc.value.bound == 1
    assert str(exc.value) == ("no compatible lifts with coefficients of "
                              "degree <= 1")


def test_zero_lift_rejected_on_weierstrass():
    pres = weierstrass_curve(BaseRingSpec(3), 1, 0).patches[0]
    with pytest.raises(WfError):
        LocalLift(pres, {}).verify()


def test_kernel_perturbation_preserves_admissibility():
    # adding a tangent section moves within the space of admissible lifts
    ring = BaseRingSpec(3)
    pres = weierstrass_curve(ring, 1, 0).patches[0]
    lift = local_frobenius_lift(pres)
    for h_text in ("x + 1", "y", "2*x*y"):
        h = pres.to_res(parse_poly(h_text, ring, pres.all_vars))
        tangent = {"x": pres.nf(-MvPoly.var(pres.res, pres.all_vars, "y", 3)
                                * h),
                   "y": h}
        perturbed = {v: pres.nf(lift.coeffs[v] + tangent[v])
                     for v in pres.vars}
        other = LocalLift(pres, perturbed)
        assert other.verify() is True
        assert_admissible_by_rows(pres, other.coeffs)
        # the difference of two admissible lifts solves the homogeneous
        # system: it is killed by every Jacobian row
        for row in collapsed_rows(pres):
            acc = MvPoly.zero(pres.res, pres.all_vars)
            for v in pres.vars:
                jac = row.jac.get(v)
                if jac is not None:
                    acc = acc + jac * (other.coeffs[v] - lift.coeffs[v])
            assert pres.nf(acc).is_zero()


# -- cocycles -----------------------------------------------------------------


def test_cocycle_antisymmetry_across_sides():
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    lifts = [local_frobenius_lift(pres) for pres in p1.patches]
    d01 = di_cocycle_pair(p1, lifts, 0, 1)
    d10 = di_cocycle_pair(p1, lifts, 1, 0)
    view = p1.view(0, 1)
    moved = express_fder(d10.coeffs, view.pres_b, view.pres_a,
                         view.map_ab, view.map_ba)
    assert moved == -d01


def test_cocycle_checks_pass_on_three_charts():
    ring = BaseRingSpec(3)
    p2 = BUILTIN_SCHEMES["p2"](ring)
    lifts = [local_frobenius_lift(pres) for pres in p2.patches]
    cochain = di_cocycle(p2, lifts)
    assert set(cochain.values) == {(0, 1), (0, 2), (1, 2)}


def test_zero_sections_have_zero_coboundary():
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    assert coboundary_of(p1, zero_sections(p1)).is_zero()


# -- vanishing decisions -------------------------------------------------------


def recheck_witness(rep):
    back = coboundary_of(rep.scheme, rep.witness)
    for key, val in rep.cochain.values.items():
        assert back.values[key] == val


def test_rational_schemes_vanish_with_witness():
    for name in ("a2", "gm", "p1", "p2"):
        scheme = BUILTIN_SCHEMES[name](BaseRingSpec(3))
        rep = compute_di_class(scheme)
        assert rep.vanishes is True
        assert rep.threshold == completeness_threshold(scheme)
        recheck_witness(rep)
    for p in (2, 5):
        rep = compute_di_class(BUILTIN_SCHEMES["p1"](BaseRingSpec(p)))
        assert rep.vanishes is True
        recheck_witness(rep)


def test_weierstrass_verdicts():
    rep3 = compute_di_class(weierstrass_curve(BaseRingSpec(3), 1, 0))
    assert rep3.vanishes is False
    assert rep3.witness is None
    assert rep3.threshold == 12
    rep5 = compute_di_class(weierstrass_curve(BaseRingSpec(5), 1, 0))
    assert rep5.vanishes is True
    recheck_witness(rep5)


def test_genus2_definitive_negative_and_inconclusive_bound():
    scheme = BUILTIN_SCHEMES["genus2"](BaseRingSpec(3))
    rep = compute_di_class(scheme)
    assert rep.threshold == 18
    assert rep.pole_bound == 18
    assert rep.vanishes is False
    assert rep.witness is None
    with pytest.raises(Inconclusive) as exc:
        is_coboundary(scheme, rep.cochain, pole_bound=4)
    assert exc.value.bound == 4
    assert exc.value.threshold == 18


def hasse_invariant(p, a=1, b=0):
    """The coefficient of x^(p-1) in (x^3 + a x + b)^((p-1)/2) mod p, in
    plain integers."""
    coeffs = {0: 1}
    for _ in range((p - 1) // 2):
        nxt = {}
        for e, c in coeffs.items():
            for shift, f in ((3, 1), (1, a), (0, b)):
                nxt[e + shift] = (nxt.get(e + shift, 0) + c * f) % p
        coeffs = nxt
    return coeffs.get(p - 1, 0)


def test_weierstrass_vanishes_exactly_when_ordinary():
    # Deuring: y^2 = x^3 + x is ordinary at p exactly when its Hasse
    # invariant is nonzero.  Serre-Tate: an ordinary curve has a Frobenius
    # lift mod p^2 (its canonical lift), a supersingular one has none.
    primes = (3, 5, 7, 11, 13)
    for p in primes:
        rep = compute_di_class(BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(p)))
        assert rep.vanishes is (hasse_invariant(p) != 0), p
    assert [p for p in primes if hasse_invariant(p)] == [5, 13]


def weierstrass_lift(p, a, b, a1, b1):
    """y^2 = x^3 + A x + B with A = a + p a1 and B = b + p b1.  A builder
    reduces its coefficients mod p, which loses the lift, so the lift is
    written into both chart relations of the builder's document."""
    doc = weierstrass_curve(BaseRingSpec(p), a, b).to_json()
    A, B = a + p * a1, b + p * b1
    doc["patches"][0]["relations"] = ["y^2 - x^3 - %d*x - %d" % (A, B)]
    doc["patches"][1]["relations"] = ["w^3 - z + %d*w*z^2 + %d*z^3" % (A, B)]
    return GluedScheme.from_json(doc)


@pytest.mark.parametrize("a, b, ordinary", [(1, 1, True), (1, 0, True),
                                            (0, 1, False)])
def test_serre_tate_lift_sweep(a, b, ordinary):
    # Serre-Tate: of the p^2 lifts of an ordinary curve to Z/p^2 exactly
    # the canonical lift's class carries a Frobenius lift.  That class is
    # the orbit of x -> u^2 x, y -> u^3 y with u = 1 + p t, which moves
    # (a1, b1) by t (4a, 6b), a line of p lifts.  A supersingular curve
    # has no such lift.
    p = 5
    assert (hasse_invariant(p, a, b) != 0) is ordinary
    vanishing = sorted(
        (a1, b1) for a1 in range(p) for b1 in range(p)
        if compute_di_class(weierstrass_lift(p, a, b, a1, b1)).vanishes)
    if not ordinary:
        assert vanishing == []
        return
    assert len(vanishing) == p
    a0, b0 = vanishing[0]
    assert vanishing == sorted(((a0 + 4 * a * t) % p, (b0 + 6 * b * t) % p)
                               for t in range(p))
    if (a, b) == (1, 1):
        assert vanishing == [(0, 3), (1, 2), (2, 1), (3, 0), (4, 4)]


# y^2 = x^7 - 1, genus 3, glued from text the way a scheme document is
GENUS3 = json.dumps({
    "name": "y^2 = x^7 - 1", "ring": {"p": 3}, "genus": 3,
    "patches": [{"name": "Haff", "vars": ["x", "y"],
                 "relations": ["y^2 - x^7 + 1"]},
                {"name": "Hinf", "vars": ["v", "w"],
                 "relations": ["w^2 - v + v^8"]}],
    "overlaps": [{"i": 0, "j": 1, "invert_i": "x", "invert_j": "v",
                  "to_j": {"x": "v_inv", "y": "w*v_inv^4"},
                  "to_i": {"v": "x_inv", "w": "y*x_inv^4"}}]})


def test_higher_genus_classes_never_vanish():
    # no curve of genus >= 2 lifts with its Frobenius mod p^2 (Raynaud)
    for p in (3, 7):
        rep = compute_di_class(BUILTIN_SCHEMES["genus2"](BaseRingSpec(p)))
        assert rep.vanishes is False, p
    for p in (3, 5):
        curve = GluedScheme.from_json(GENUS3, BaseRingSpec(p))
        assert validate_gluing(curve) is True
        rep = compute_di_class(curve)
        assert rep.threshold == 8 * p
        assert rep.vanishes is False, p


@pytest.mark.parametrize("name, p, eisenstein", [
    ("weierstrass", 3, (-3, 0, 1)),
    ("genus2", 3, (-3, 0, 1)),
    ("genus2", 7, (-7, 0, 1)),
    ("weierstrass", 5, (-5, 5, 1)),
    ("weierstrass", 3, (-3, 0, 0, 1)),
])
def test_ramified_base_classes_vanish(name, p, eisenstein):
    # With ramification index e >= 2, pi^2 divides p, so f(x^q) = f(x)^q
    # mod pi^2 for f with Z_p coefficients: x -> x^q lifts Frobenius on
    # every chart and commutes with the gluing, and the class vanishes
    # even where it does not over Z_p (genus 2, supersingular p = 3).
    e = len(eisenstein) - 1
    rep = compute_di_class(BUILTIN_SCHEMES[name](BaseRingSpec(p, eisenstein)))
    assert rep.vanishes is (e >= 2)
    assert rep.witness is not None


def test_perturbed_lift_family_same_class():
    # the class does not depend on the choice of chart lifts
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    u0 = p1.patches[0]
    odd = LocalLift(u0, {"x": u0.to_res(parse_poly("x^2 + 1", ring,
                                                   u0.all_vars))})
    assert odd.verify() is True
    lifts = [odd, local_frobenius_lift(p1.patches[1])]
    cochain = di_cocycle(p1, lifts)
    assert not cochain.is_zero()
    vanishes, sections = is_coboundary(p1, cochain)
    assert vanishes is True
    back = coboundary_of(p1, sections)
    for key, val in cochain.values.items():
        assert back.values[key] == val


def test_di_report_json_shape():
    rep = compute_di_class(BUILTIN_SCHEMES["p1"](BaseRingSpec(3)))
    data = rep.to_json()
    assert data["vanishes"] is True
    assert data["scheme"] == "P1"
    assert "0,1" in data["cocycle"]
    assert len(data["witness"]) == 2
    for entry in data["lifts"]:
        assert set(entry) == {"chart", "degree", "delta"}
    neg = compute_di_class(weierstrass_curve(BaseRingSpec(3), 1, 0))
    assert "witness" not in neg.to_json()


# -- compatibility -------------------------------------------------------------


INDEPENDENT_COMPATIBLE = {
    "parabola_in_a2": True,
    "a2_to_a1": True,
    "gm_square": True,
    "weierstrass_in_p2": False,
}


def independent_lifts(m):
    xs = [local_frobenius_lift(pres) for pres in m.source.patches]
    ys = [local_frobenius_lift(pres) for pres in m.target.patches]
    return xs, ys


def test_compat_constructed_lifts_commute():
    for p in (3, 5):
        ring = BaseRingSpec(p)
        for make in BUILTIN_MORPHISMS.values():
            m = make(ring)
            xs, ys = build_compatible_lifts(m)
            rep = compatibility_check(m, xs, ys)
            assert rep.compatible is True
            assert all(g.is_zero() for e in rep.discrepancy
                       for g in e.values())


def test_compat_independent_lifts_verdicts():
    for name, make in BUILTIN_MORPHISMS.items():
        m = make(BaseRingSpec(3))
        xs, ys = independent_lifts(m)
        rep = compatibility_check(m, xs, ys)
        assert rep.compatible is INDEPENDENT_COMPATIBLE[name]
        zero = all(g.is_zero() for e in lift_discrepancy(m, xs, ys)
                   for g in e.values())
        assert rep.compatible is zero
    m5 = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(5))
    xs, ys = independent_lifts(m5)
    assert compatibility_check(m5, xs, ys).compatible is False


def test_compat_report_json_shape():
    m = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3))
    xs, ys = build_compatible_lifts(m)
    data = compatibility_check(m, xs, ys).to_json()
    assert data["morphism"] == "weierstrass_in_p2"
    assert data["kind"] == "closed_immersion"
    assert data["compatible"] is True
    assert len(data["charts"]) == 2
    assert len(data["pairs"]) == 1
    assert data["pairs"][0]["identity_checked"] is True


def test_fixed_target_lifts_solved_or_refused():
    ring = BaseRingSpec(3)
    m = BUILTIN_MORPHISMS["gm_square"](ring)
    tgt = m.target.patches[0]
    ys = [local_frobenius_lift(tgt)]
    xs, ys_out = build_compatible_lifts(m, y_lifts=ys)
    assert ys_out == list(ys)
    assert compatibility_check(m, xs, ys_out).compatible is True
    # a high-degree target choice forces A_x = 2 x^7, out of reach at
    # coefficient degree one
    forced = LocalLift(tgt, {"t": tgt.to_res(parse_poly("t^5", ring,
                                                        tgt.all_vars))})
    assert forced.verify() is True
    with pytest.raises(NoSolutionAtBound) as exc:
        build_compatible_lifts(m, y_lifts=[forced], start_degree=1,
                               max_degree=1)
    assert exc.value.bound == 1
    xs2, _ = build_compatible_lifts(m, y_lifts=[forced])
    src = m.source.patches[0]
    assert xs2[0].coeffs["x"] == src.nf(src.to_res(
        parse_poly("2*x^7", ring, src.all_vars)))
    assert compatibility_check(m, xs2, [forced]).compatible is True


def weierstrass_origin(ring):
    """The point (0, 0) of the weierstrass curve as a closed immersion.

    Its target chart carries a relation, so the target lift's own
    admissibility rows constrain the joint solve; every builtin
    morphism's target charts are free, and a dominant map forces target
    admissibility through the source rows anyway.
    """
    point = GluedScheme("origin", ring,
                        [Presentation("P", ring, ("s",), relations=["s"])],
                        family="affine")
    curve = BUILTIN_SCHEMES["weierstrass"](ring)
    src, tgt = point.patches[0], curve.patches[0]
    s = parse_poly("s", ring, src.all_vars)
    chart = ChartMap(0, pullback={"x": s, "y": s},
                     section={"s": parse_poly("x", ring, tgt.all_vars)})
    return SchemeMorphism("weierstrass_origin", point, curve, [chart],
                          kind="closed_immersion")


def test_compat_origin_needs_target_admissibility():
    for p in (3, 5, 7):
        m = weierstrass_origin(BaseRingSpec(p))
        assert validate_morphism(m) is True
        xs, ys = build_compatible_lifts(m)
        assert compatibility_check(m, xs, ys).compatible is True


def test_unsupported_kind_refused():
    ring = BaseRingSpec(3)
    m = BUILTIN_MORPHISMS["gm_square"](ring)
    bare = SchemeMorphism(m.name, m.source, m.target, m.charts, kind=None)
    with pytest.raises(KindMismatch):
        build_compatible_lifts(bare)


# -- assembly oracle: the per-system builders written out in full --------------
#
# These are the lift, compatible-lift and witness assemblies as they stood
# before the builders were folded into shared helpers and before the
# monomial image tables, kept as references: same keys, same column order,
# so the free-variables-zero solution must be the same.


def _ref_basis_monomial(pres, exps, c=1):
    return MvPoly.monomial(pres.res, pres.all_vars, exps, pres.res.from_int(c))


def _ref_coeffs_from_solution(pres, basis, sol, tag, extra=()):
    out = {}
    for v in pres.vars:
        g = MvPoly.zero(pres.res, pres.all_vars)
        for m in basis:
            val = sol.get((tag,) + tuple(extra) + (v, m), 0)
            if val:
                g = g + _ref_basis_monomial(pres, m, val)
        out[v] = g
    return out


def _ref_lift_attempt(pres, rows, degree):
    sys = LinearSystem(pres.ring.p)
    basis = pres.red.monomials_up_to(degree)
    for v in pres.vars:
        for m in basis:
            sys.col(("A", v, m))
    for ridx, row in enumerate(rows):
        for e, c in row.const.terms.items():
            sys.add_rhs(("lift", ridx, e), -c)
        for v in pres.vars:
            jac = row.jac.get(v)
            if jac is None:
                continue
            for m in basis:
                prod = pres.nf(jac * _ref_basis_monomial(pres, m))
                for e, c in prod.terms.items():
                    sys.add(("lift", ridx, e), ("A", v, m), c)
    sol = sys.solve()
    if sol is None:
        return None
    return _ref_coeffs_from_solution(pres, basis, sol, "A")


def _ref_compatible_attempt(morphism, y_lifts, degree, joint):
    ring = morphism.source.ring
    sys = LinearSystem(ring.p)
    src_bases = []
    for idx, pres in enumerate(morphism.source.patches):
        basis = pres.red.monomials_up_to(degree)
        src_bases.append(basis)
        for v in pres.vars:
            for m in basis:
                sys.col(("AX", idx, v, m))
    tgt_bases = {}
    if joint:
        for idx in sorted({c.target_index for c in morphism.charts}):
            pres = morphism.target.patches[idx]
            basis = pres.red.monomials_up_to(degree)
            tgt_bases[idx] = basis
            for t in pres.vars:
                for m in basis:
                    sys.col(("AY", idx, t, m))
    for idx, pres in enumerate(morphism.source.patches):
        for ridx, row in enumerate(collapsed_rows(pres)):
            for e, c in row.const.terms.items():
                sys.add_rhs(("xlift", idx, ridx, e), -c)
            for v in pres.vars:
                jac = row.jac.get(v)
                if jac is None:
                    continue
                for m in src_bases[idx]:
                    prod = pres.nf(jac * _ref_basis_monomial(pres, m))
                    for e, c in prod.terms.items():
                        sys.add(("xlift", idx, ridx, e), ("AX", idx, v, m), c)
    if joint:
        for idx, basis in tgt_bases.items():
            pres = morphism.target.patches[idx]
            for ridx, row in enumerate(collapsed_rows(pres)):
                for e, c in row.const.terms.items():
                    sys.add_rhs(("ylift", idx, ridx, e), -c)
                for t in pres.vars:
                    jac = row.jac.get(t)
                    if jac is None:
                        continue
                    for m in basis:
                        prod = pres.nf(jac * _ref_basis_monomial(pres, m))
                        for e, c in prod.terms.items():
                            sys.add(("ylift", idx, ridx, e),
                                    ("AY", idx, t, m), c)
    for idx, chart in enumerate(morphism.charts):
        src = morphism.source.patches[idx]
        tgt = morphism.target_patch(idx)
        for t in tgt.vars:
            row = collapse_companion_jets(
                src, linearize_generator(src, chart.pullback[t]))
            eqbase = ("compat", idx, t)
            for e, c in row.const.terms.items():
                sys.add_rhs(eqbase + (e,), -c)
            for v in src.vars:
                jac = row.jac.get(v)
                if jac is None:
                    continue
                for m in src_bases[idx]:
                    prod = src.nf(jac * _ref_basis_monomial(src, m))
                    for e, c in prod.terms.items():
                        sys.add(eqbase + (e,), ("AX", idx, v, m), c)
            if joint:
                basis = tgt_bases[chart.target_index]
                for m in basis:
                    mono = MvPoly.monomial(tgt.res, tgt.all_vars, m)
                    moved = transport(mono, tgt, chart.pullback, src,
                                      level="res")
                    for e, c in moved.terms.items():
                        sys.add(eqbase + (e,),
                                ("AY", chart.target_index, t, m), -c)
            else:
                ay = y_lifts[chart.target_index].fder
                pulled = transport(ay.coeffs[t], tgt, chart.pullback, src,
                                   level="res")
                for e, c in pulled.terms.items():
                    sys.add_rhs(eqbase + (e,), c)
    sol = sys.solve()
    if sol is None:
        return None
    xs = [_ref_coeffs_from_solution(pres, src_bases[idx], sol, "AX", (idx,))
          for idx, pres in enumerate(morphism.source.patches)]
    if not joint:
        return xs, [lift.coeffs for lift in y_lifts]
    ys = [_ref_coeffs_from_solution(pres, tgt_bases[idx], sol, "AY", (idx,))
          if idx in tgt_bases else local_frobenius_lift(pres).coeffs
          for idx, pres in enumerate(morphism.target.patches)]
    return xs, ys


def _ref_is_coboundary(scheme, cochain, pole_bound=None):
    # each basis monomial normal-formed once per chart variable, and each
    # shifted monomial normal-formed and transported from scratch
    threshold = completeness_threshold(scheme)
    if pole_bound is None:
        pole_bound = threshold
    if not scheme.overlap_pairs():
        return True, [sec.coeffs for sec in zero_sections(scheme)]
    p = scheme.ring.p
    sys = LinearSystem(p)
    bases = []
    for idx, pres in enumerate(scheme.patches):
        bases.append(pres.red.monomials_up_to(pole_bound))
        for v in pres.vars:
            for m in bases[idx]:
                sys.col(("W", idx, v, m))
    for idx, pres in enumerate(scheme.patches):
        for ridx, row in enumerate(collapsed_rows(pres)):
            for v in pres.vars:
                jac = row.jac.get(v)
                if jac is None:
                    continue
                for m in bases[idx]:
                    prod = pres.nf(jac * _ref_basis_monomial(pres, m))
                    for e, c in prod.terms.items():
                        sys.add(("tan", idx, ridx, e), ("W", idx, v, m), c)
    for (i, j) in scheme.overlap_pairs():
        view = scheme.view(i, j)
        pa, pb = view.pres_a, view.pres_b
        pi_patch, pj_patch = scheme.patches[i], scheme.patches[j]
        for v in pa.vars:
            for m in bases[i]:
                mono = (MvPoly.monomial(pi_patch.res, pi_patch.all_vars, m)
                        .extend_vars(pa.all_vars))
                for e, c in pa.nf(mono).terms.items():
                    sys.add(("pair", i, j, v, e), ("W", i, v, m), c)
        grads = {v: twisted_gradient(pb, pb.to_res(view.map_ab[v]))
                 for v in pa.vars}
        for w in pb.vars:
            for m in bases[j]:
                mono = (MvPoly.monomial(pj_patch.res, pj_patch.all_vars, m)
                        .extend_vars(pb.all_vars))
                for v in pa.vars:
                    mat = grads[v].get(w)
                    if mat is None:
                        continue
                    moved = transport(pb.nf(mat * mono), pb, view.map_ba, pa,
                                      level="res")
                    for e, c in moved.terms.items():
                        sys.add(("pair", i, j, v, e), ("W", j, w, m), -c)
        dval = cochain.values[(i, j)]
        for v in pa.vars:
            for e, c in dval.coeffs[v].terms.items():
                sys.add_rhs(("pair", i, j, v, e), c)
    sol = sys.solve()
    if sol is None:
        if pole_bound >= threshold:
            return False, None
        raise Inconclusive("no witness", pole_bound, threshold)
    return True, [_ref_coeffs_from_solution(pres, bases[idx], sol, "W", (idx,))
                  for idx, pres in enumerate(scheme.patches)]


def _builtin_charts(ring):
    for name in sorted(BUILTIN_SCHEMES):
        try:
            scheme = BUILTIN_SCHEMES[name](ring)
        except NonSmooth:
            continue
        yield from scheme.patches


def test_lift_search_matches_reference_assembly():
    for p in (3, 5):
        for pres in _builtin_charts(BaseRingSpec(p)):
            start = max(1, pres.q * pres.max_relation_degree())
            for d in sorted({1, start, 2 * start}):
                ref = _ref_lift_attempt(pres, collapsed_rows(pres), d)
                try:
                    got = local_frobenius_lift(pres, d, d).coeffs
                except NoSolutionAtBound as exc:
                    assert exc.bound == d
                    got = None
                assert got == ref, (pres.name, p, d)


def recorded_systems(monkeypatch):
    """Each LinearSystem solved from now on, as (rows, rhs, col_order)."""
    seen = []
    solve = LinearSystem.solve

    def recording(self):
        seen.append(({key: dict(row) for key, row in self.rows.items()},
                     dict(self.rhs), list(self.col_order)))
        return solve(self)

    monkeypatch.setattr(LinearSystem, "solve", recording)
    return seen


def test_compatible_lifts_match_reference_assembly(monkeypatch):
    seen = recorded_systems(monkeypatch)
    for p in (3, 5, 7):
        ring = BaseRingSpec(p)
        makers = dict(BUILTIN_MORPHISMS, weierstrass_origin=weierstrass_origin)
        for name in sorted(makers):
            m = makers[name](ring)
            start = max([ring.q * pres.max_relation_degree()
                         for pres in m.source.patches + m.target.patches]
                        + [ring.q])
            fixed = [local_frobenius_lift(pres) for pres in m.target.patches]
            for d in sorted({1, start, 2 * start}):
                for y_lifts in (None, fixed):
                    seen.clear()
                    ref = _ref_compatible_attempt(m, y_lifts, d,
                                                  y_lifts is None)
                    ref_systems = list(seen)
                    seen.clear()
                    try:
                        xs, ys = build_compatible_lifts(
                            m, y_lifts, start_degree=d, max_degree=d)
                        got = ([lift.coeffs for lift in xs],
                               [lift.coeffs for lift in ys])
                    except NoSolutionAtBound as exc:
                        assert exc.bound == d
                        got = None
                    assert got == ref, (name, p, d, y_lifts is None)
                    assert seen == ref_systems, (name, p, d, y_lifts is None)


def _random_sections(scheme, rng, degree=3):
    sections = []
    for pres in scheme.patches:
        basis = pres.red.monomials_up_to(degree)
        coeffs = {v: MvPoly(pres.res, pres.all_vars,
                            {m: rng.randrange(pres.ring.p)
                             for m in rng.sample(basis, min(3, len(basis)))})
                  for v in pres.vars}
        sections.append(FDerSection(pres, coeffs))
    return sections


def _witness_cases(ring, rng):
    """The obstruction cocycle of every builtin, an exact cochain
    coboundary_of(random sections), and that cochain perturbed by a
    random section on every overlap.  On a curve the random sections
    need not be tangent, so its exact cochain need not vanish."""
    for name in sorted(BUILTIN_SCHEMES):
        try:
            scheme = BUILTIN_SCHEMES[name](ring)
        except NonSmooth:
            continue
        lifts = [local_frobenius_lift(pres) for pres in scheme.patches]
        yield name, scheme, di_cocycle(scheme, lifts)
        exact = coboundary_of(scheme, _random_sections(scheme, rng))
        yield name + " exact", scheme, exact
        perturbed = {}
        for (i, j), val in exact.values.items():
            noise = _random_sections(scheme, rng, 2)[i].coeffs
            perturbed[(i, j)] = val + FDerSection(val.pres, noise)
        yield name + " perturbed", scheme, Cochain1(scheme, perturbed)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_witness_matches_reference_assembly(monkeypatch, p):
    seen = recorded_systems(monkeypatch)
    verdicts = {}
    for name, scheme, cochain in _witness_cases(BaseRingSpec(p),
                                                random.Random(p)):
        seen.clear()
        ref = _ref_is_coboundary(scheme, cochain)
        ref_systems = list(seen)
        assert ref_systems or not scheme.overlap_pairs()
        seen.clear()
        vanishes, witness = is_coboundary(scheme, cochain)
        assert seen == ref_systems, (name, p)
        got = [sec.coeffs for sec in witness] if vanishes else None
        assert (vanishes, got) == ref, (name, p)
        verdicts[name] = vanishes
    # with no relations every random section is tangent, so the exact
    # cochains vanish; perturbing them breaks that
    assert verdicts["p1 exact"] and verdicts["p2 exact"]
    assert not verdicts["p2 perturbed"]
