"""Lift search, obstruction cocycles, coboundary decisions, compatibility."""

import gc
import itertools
import json
import random
import sys

import pytest

import wf.cli
import wf.di
import wf.jet
import wf.poly
import wf.scheme
from wf.base_ring import BaseRingSpec
from wf.errors import (Inconclusive, KindMismatch, NonSmooth,
                       NoSolutionAtBound, WfError)
from wf.di import (Cochain1, LinearSystem, LocalLift, build_compatible_lifts,
                   coboundary_of, compatibility_check, completeness_threshold,
                   compute_di_class, di_cocycle, di_cocycle_pair, express_fder,
                   is_coboundary, lift_discrepancy, lift_substitution,
                   local_frobenius_lift, zero_sections)
from wf.gfp import rref
from wf.jet import (collapse_companion_jets, linearize_generator,
                    linearize_mod_pi)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       FDerSection, GluedScheme, Presentation,
                       SchemeMorphism, transport, twisted_gradient,
                       validate_gluing, validate_morphism, weierstrass_curve)


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


def p2_cocycle(to_j=None, to_i=None):
    """di_cocycle of the p = 3 lifts of the p2 document with entries of
    its (1,2) overlap replaced; the gluing is not validated."""
    doc = BUILTIN_SCHEMES["p2"](BaseRingSpec(3)).to_json()
    doc["overlaps"][2]["to_j"].update(to_j or {})
    doc["overlaps"][2]["to_i"].update(to_i or {})
    scheme = GluedScheme.from_json(doc)
    return di_cocycle(scheme, [local_frobenius_lift(pres)
                               for pres in scheme.patches])


def test_cocycle_antisymmetry_check_fires():
    # e -> 2*c*d_inv does not invert c -> e*g_inv, so the (1,2) value
    # moved from the other side is not its negative
    with pytest.raises(WfError, match=r"cocycle antisymmetry failed on "
                                      r"overlap \(1,2\)"):
        p2_cocycle(to_i={"e": "2*c*d_inv"})


def test_cocycle_identity_check_fires():
    # 4 * 61 = 1 + 3^5: the (1,2) maps invert each other mod 3^4, but
    # the triple (0,1,2) does not close, and the lift constant of
    # 4*e*g_inv, (4 - 4^3)/3 * e^3 g_inv^3, leaves the cocycle nonzero
    with pytest.raises(WfError, match=r"cocycle identity failed on triple "
                                      r"\(0,1,2\)"):
        p2_cocycle(to_j={"c": "4*e*g_inv"}, to_i={"e": "61*c*d_inv"})


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
    with pytest.raises(WfError, match="pole bound must be"):
        is_coboundary(scheme, rep.cochain, pole_bound=-1)
    # a chart family with no overlaps refuses it too
    a2 = BUILTIN_SCHEMES["a2"](BaseRingSpec(3))
    with pytest.raises(WfError, match="pole bound must be"):
        is_coboundary(a2, Cochain1({}), pole_bound=-1)


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


def translated_weierstrass(ring):
    """The builtin weierstrass curve with Eaff's x moved to x + 1: the same
    curve over Z_p, but the transition images w*z_inv + 1 and
    -(x - 1)*y_inv have nonzero lift constants (P(X^q) - P^q)/p."""
    return GluedScheme("E-translated", ring, [
        Presentation("Eaff", ring, ("x", "y"),
                     relations=["y^2 - (x - 1)^3 - (x - 1)"]),
        Presentation("Einf", ring, ("w", "z"), relations=["w^3 - z + w*z^2"])],
        [{"i": 0, "j": 1, "invert_i": "y", "invert_j": "z",
          "to_j": {"x": "w*z_inv + 1", "y": "-z_inv"},
          "to_i": {"w": "-(x - 1)*y_inv", "z": "-y_inv"}}], genus=1)


def test_translated_weierstrass_keeps_the_verdict():
    # the cocycle subtracts each transition image's lift constant; without
    # it the class at p = 5 and 13 reads as not vanishing
    for p in (3, 5, 7, 11, 13):
        scheme = translated_weierstrass(BaseRingSpec(p))
        assert validate_gluing(scheme) is True
        rep = compute_di_class(scheme)
        assert rep.vanishes is (hasse_invariant(p) != 0), p


def weierstrass_lift(p, a, b, a1, b1, frob_power=1):
    """y^2 = x^3 + A x + B with A = a + p a1 and B = b + p b1, with
    q = p^frob_power.  A builder reduces its coefficients mod p, which
    loses the lift, so the lift is written into both chart relations of
    the builder's document."""
    doc = weierstrass_curve(BaseRingSpec(p, frob_power=frob_power),
                            a, b).to_json()
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


def cm_lift(p, j):
    """(a, b, a1, b1) of y^2 = x^3 + A x + B with A = 3j(1728 - j) and
    B = 2j(1728 - j)^2 mod p^2, written as A = a + p a1 and B = b + p b1:
    a model of j-invariant j."""
    A = 3 * j * (1728 - j) % p ** 2
    B = 2 * j * (1728 - j) ** 2 % p ** 2
    return A % p, B % p, A // p, B // p


@pytest.mark.parametrize("D, j_D, p, split", [
    (-11, -32768, 5, True), (-19, -884736, 7, True), (-7, -3375, 11, True),
    (-8, 8000, 11, True), (-19, -884736, 13, False)])
def test_cm_curve_is_the_canonical_lift(D, j_D, p, split):
    # Deuring and Serre-Tate: a curve with CM by an order of discriminant
    # D, p split in Q(sqrt D), is the canonical lift of its ordinary
    # reduction; with j_D mod p not 0 or 1728, j is a coordinate on the
    # lifts, so the lift with j = j_D mod p^2 carries a Frobenius lift and
    # the one moved by p in b1 does not.  With p inert the reduction is
    # supersingular and no lift carries one.  The classes come from the
    # engine and the rule from j_D alone (Cox, Primes of the Form
    # x^2 + ny^2, sections 12-13).
    assert pow(D % p, (p - 1) // 2, p) == (1 if split else p - 1)
    assert j_D % p not in (0, 1728 % p)
    a, b, a1, b1 = cm_lift(p, j_D)
    assert compute_di_class(weierstrass_lift(p, a, b, a1, b1)).vanishes \
        is split
    assert not compute_di_class(
        weierstrass_lift(p, a, b, a1, (b1 + 1) % p)).vanishes


@pytest.mark.parametrize("p, a, b, a1, b1", [
    (5, 0, 1, 0, 0), (5, 0, 1, 1, 2), (3, 1, 1, 1, 0),
    (5, 1, 1, 0, 3), (5, 1, 1, 0, 0), (5, 1, 1, 2, 2),
])
def test_frobenius_iteration_class(p, a, b, a1, b1):
    # dF = 0 in characteristic p, so the chain rule gives ob(F^2) =
    # F^* ob(F).  On an elliptic curve F^* acts on H^1(E, O) through the
    # Hasse invariant: a supersingular lift has no Frobenius lift at
    # q = p (Serre-Tate) but its class vanishes at q = p^2, and an
    # ordinary lift's class vanishes at q = p^2 exactly when it does at
    # q = p.  (7, 1, 1) lift (0, 0) is left out for time.
    at_p = compute_di_class(weierstrass_lift(p, a, b, a1, b1)).vanishes
    at_p2 = compute_di_class(
        weierstrass_lift(p, a, b, a1, b1, frob_power=2)).vanishes
    if hasse_invariant(p, a, b) % p:
        assert at_p2 is at_p
    else:
        assert (at_p, at_p2) == (False, True)


# -- Kodaira-Spencer compatibility ---------------------------------------------
#
# Moving a lift X' of the curve X by a deformation class k in H^1(X, T)
# moves its obstruction class by F^* k in H^1(X, F^*T), so the class is
# affine in the lift's coefficients mod p^2: c(t) - c(0) - sum_k t_k
# (c(e_k) - c(0)) is a coboundary.  A direction is a coboundary exactly
# when F^* kills its deformation class.


def obstruction_cocycle(scheme):
    return di_cocycle(scheme, [local_frobenius_lift(pres)
                               for pres in scheme.patches])


def cochain_sum(scheme, terms):
    """sum c * cochain over the (c, cochain) pairs, as a cochain of
    scheme.  The cochains may come from other lifts of the same curve:
    mod p they live on the same overlaps, so their values add termwise."""
    values = {}
    for key in scheme.overlap_pairs():
        pa = scheme.view(*key).pres_a
        coeffs = {}
        for v in pa.vars:
            acc = {}
            for c, cochain in terms:
                for e, x in cochain.values[key].coeffs[v].terms.items():
                    acc[e] = acc.get(e, 0) + c * x
            coeffs[v] = MvPoly(pa.res, pa.all_vars,
                               {e: pa.res.from_int(x) for e, x in acc.items()})
        values[key] = FDerSection(pa, coeffs)
    return Cochain1(values)


def affine_defect(base, c_zero, c_point, t, c_units):
    """c(t) - c(0) - sum_k t_k (c(e_k) - c(0)), as a cochain of base."""
    return cochain_sum(base, [(1, c_point), (sum(t) - 1, c_zero)]
                       + [(-tk, ck) for tk, ck in zip(t, c_units)])


@pytest.mark.parametrize("p, a, b", [(5, 1, 1), (7, 1, 1), (13, 1, 0)])
def test_kodaira_spencer_affine_on_elliptic_lifts(p, a, b):
    # H^1(E, T) is a line and F^* acts on it through the Hasse
    # invariant; (a1, b1) moves the class of the lift unless it lies on
    # the isomorphism orbit t (4a, 6b) (see test_serre_tate_lift_sweep)
    ordinary = hasse_invariant(p, a, b) % p != 0
    base = weierstrass_lift(p, a, b, 0, 0)
    c_zero = obstruction_cocycle(base)
    c_units = [obstruction_cocycle(weierstrass_lift(p, a, b, 1, 0)),
               obstruction_cocycle(weierstrass_lift(p, a, b, 0, 1))]
    for d, c_unit in zip(((1, 0), (0, 1)), c_units):
        on_orbit = (d[0] * 6 * b - d[1] * 4 * a) % p == 0
        # only (13, 1, 0)'s a1 direction, (4, 0) up to scale, is on it
        assert on_orbit is ((p, d) == (13, (1, 0)))
        direction = cochain_sum(base, [(1, c_unit), (-1, c_zero)])
        assert is_coboundary(base, direction)[0] is (on_orbit or not ordinary)
    rng = random.Random(100 + p)
    for _ in range(3):
        t = (rng.randrange(p), rng.randrange(p))
        c_point = obstruction_cocycle(weierstrass_lift(p, a, b, *t))
        defect = affine_defect(base, c_zero, c_point, t, c_units)
        assert is_coboundary(base, defect)[0] is True, t


def genus2_lift(t):
    """y^2 = h(x) with h = x^5 - 1 + 3 sum_k t_k x^k over Z_3, written
    into both chart relations of the builtin genus2 document as
    weierstrass_lift does; the chart at infinity is w^2 = v^6 h(1/v)."""
    doc = BUILTIN_SCHEMES["genus2"](BaseRingSpec(3)).to_json()
    h = [-1 + 3 * t[0]] + [3 * tk for tk in t[1:]] + [1]
    doc["patches"][0]["relations"] = [
        "y^2 - (%s)" % " + ".join("%d*x^%d" % (c, k) for k, c in enumerate(h))]
    doc["patches"][1]["relations"] = [
        "w^2 - (%s)" % " + ".join("%d*v^%d" % (c, 6 - k)
                                  for k, c in enumerate(h))]
    return GluedScheme.from_json(doc)


def test_kodaira_spencer_affine_on_genus2_lifts():
    # Deformations of y^2 = h(x) with deg h = 5 modulo x -> x + s and
    # the scalings: h' and 5h - x h' are the trivial directions.  Mod 3
    # they are 2 x^4 and 1, so e_4 and e_0 are trivial and e_1, e_2, e_3
    # span H^1(X, T) (dimension 3g - 3 = 3), on which F^* is injective.
    h = [-1, 0, 0, 0, 0, 1]
    dh = [(k + 1) * c for k, c in enumerate(h[1:])]
    x_dh = [k * c for k, c in enumerate(h)]
    assert [c % 3 for c in dh] == [0, 0, 0, 0, 2]
    assert [(5 * c - d) % 3 for c, d in zip(h, x_dh)] == [1, 0, 0, 0, 0, 0]

    base = genus2_lift([0] * 5)
    c_zero = obstruction_cocycle(base)
    c_units = [obstruction_cocycle(genus2_lift([int(i == k) for i in range(5)]))
               for k in range(5)]
    for k in (0, 4):
        direction = cochain_sum(base, [(1, c_units[k]), (-1, c_zero)])
        assert is_coboundary(base, direction)[0] is True, k
    for comb in itertools.product(range(3), repeat=3):
        if not any(comb):
            continue
        direction = cochain_sum(
            base, [(c, c_units[k + 1]) for k, c in enumerate(comb)]
            + [(-sum(comb), c_zero)])
        assert is_coboundary(base, direction)[0] is False, comb
    rng = random.Random(3)
    for _ in range(2):
        t = [rng.randrange(3) for _ in range(5)]
        defect = affine_defect(base, c_zero, obstruction_cocycle(genus2_lift(t)),
                               t, c_units)
        assert is_coboundary(base, defect)[0] is True, t


# y^2 = x^7 - 1, genus 3, glued from text the way a scheme document is
GENUS3 = {
    "name": "y^2 = x^7 - 1", "ring": {"p": 3}, "genus": 3,
    "patches": [{"name": "Haff", "vars": ["x", "y"],
                 "relations": ["y^2 - x^7 + 1"]},
                {"name": "Hinf", "vars": ["v", "w"],
                 "relations": ["w^2 - v + v^8"]}],
    "overlaps": [{"i": 0, "j": 1, "invert_i": "x", "invert_j": "v",
                  "to_j": {"x": "v_inv", "y": "w*v_inv^4"},
                  "to_i": {"v": "x_inv", "w": "y*x_inv^4"}}]}


def test_genus3_document_loads_under_its_plane_curve_bounds():
    # the charts have degrees 7 and 8, so the claim may go up to
    # min(15, 21) = 15 and no further
    assert GluedScheme.from_json(GENUS3).genus == 3
    assert GluedScheme.from_json(dict(GENUS3, genus=15)).genus == 15
    with pytest.raises(WfError, match="genus 16 exceeds 15, the most a plane "
                       "curve of degree 7 has"):
        GluedScheme.from_json(dict(GENUS3, genus=16))


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


def test_witness_failing_re_verification_is_refused(monkeypatch):
    # a solver answer with one entry off solves no witness system: the
    # coboundary of its sections misses the cocycle, which is_coboundary
    # must refuse rather than report as a witness
    ring = BaseRingSpec(3)
    p1 = BUILTIN_SCHEMES["p1"](ring)
    u0 = p1.patches[0]
    odd = LocalLift(u0, {"x": u0.to_res(parse_poly("x^2 + 1", ring,
                                                   u0.all_vars))})
    cochain = di_cocycle(p1, [odd, local_frobenius_lift(p1.patches[1])])
    true_solve = wf.di.gfp_solve

    def one_entry_off(p, rows, rhs, ncols):
        sol = true_solve(p, rows, rhs, ncols)
        sol[0] = (sol[0] + 1) % p
        return sol

    monkeypatch.setattr(wf.di, "gfp_solve", one_entry_off)
    with pytest.raises(WfError, match="witness failed re-verification on "
                                      r"overlap \(0, 1\)"):
        is_coboundary(p1, cochain)


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


def weierstrass_origin(ring):
    """The point (0, 0) of the weierstrass curve as a closed immersion.

    Its target chart carries a relation, so the target lift's own
    admissibility rows constrain the joint solve; every builtin
    morphism's target charts are free, and a dominant map forces target
    admissibility through the source rows anyway.
    """
    point = GluedScheme("origin", ring,
                        [Presentation("P", ring, ("s",), relations=["s"])])
    curve = BUILTIN_SCHEMES["weierstrass"](ring)
    src, tgt = point.patches[0], curve.patches[0]
    s = parse_poly("s", ring, src.all_vars)
    chart = ChartMap(0, pullback={"x": s, "y": s},
                     section={"s": parse_poly("x", ring, tgt.all_vars)})
    return SchemeMorphism("weierstrass_origin", point, curve, [chart],
                          kind="closed_immersion")


def origin_in_frobenius_graph(ring):
    """The origin of the curve y = x^p as a closed immersion.

    The twisted partial of y - x^p in x vanishes mod p, so a target
    column of x meets only the compat rows, where the point makes every
    monomial but 1 vanish, and a column of y meets only the ylift rows:
    the target monomials that can be pivots come from y alone.
    """
    point = GluedScheme("origin", ring,
                        [Presentation("P", ring, ("s",), relations=["s"])])
    graph = GluedScheme("graph", ring,
                        [Presentation("G", ring, ("x", "y"),
                                      relations=["y - x^%d" % ring.p])])
    src, tgt = point.patches[0], graph.patches[0]
    s = parse_poly("s", ring, src.all_vars)
    chart = ChartMap(0, pullback={"x": s, "y": s},
                     section={"s": parse_poly("x", ring, tgt.all_vars)})
    return SchemeMorphism("origin_in_frobenius_graph", point, graph, [chart],
                          kind="closed_immersion")


def test_compat_origin_needs_target_admissibility():
    for p in (3, 5, 7):
        m = weierstrass_origin(BaseRingSpec(p))
        assert validate_morphism(m) is True
        xs, ys = build_compatible_lifts(m)
        assert compatibility_check(m, xs, ys).compatible is True


def gm_on_two_charts(ring, power, coefficient=1):
    """G_m covered by the charts x and u = 1/x, both mapped into the one
    chart of G_m: t -> c x^power and t -> c u_inv^power, c the
    coefficient.  The source overlap lies over one target chart, so the
    pullback and the frame change read that chart's identity view."""
    source = GluedScheme(
        "Gm2", ring,
        [Presentation("X", ring, ("x",), inverted=("x",)),
         Presentation("U", ring, ("u",), inverted=("u",))],
        [{"i": 0, "j": 1, "to_j": {"x": "u_inv"}, "to_i": {"u": "x_inv"}}])
    target = GluedScheme("Gm", ring,
                         [Presentation("Gm", ring, ("t",), inverted=("t",))])
    charts = [ChartMap(0, pullback={"t": "%d*x^%d" % (coefficient, power)}),
              ChartMap(0, pullback={"t": "%d*u_inv^%d" % (coefficient, power)})]
    return SchemeMorphism("gm_power_%d" % power, source, target, charts,
                          kind="etale")


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("power", [1, 2])
def test_compat_two_source_charts_over_one_target_chart(tmp_path, capsys, p,
                                                        power):
    m = gm_on_two_charts(BaseRingSpec(p), power)
    assert validate_morphism(m) is True
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    for extra in ([], ["--independent"]):
        assert wf.cli.main(["compat", str(path)] + extra) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compatible"] is True
        # the target cocycle is zero on the one target chart, and the
        # x^q lifts commute with x -> x^power, so nothing moves
        assert report["pairs"] == [{"i": 0, "j": 1, "identity_checked": True,
                                    "pullback": {"t": "0"},
                                    "pushforward": {"t": "0"}}]
    # chart lifts that neither glue nor commute: the pushforward and the
    # discrepancies are nonzero, and the identity is still checked
    def lift(pres, text):
        return LocalLift(pres, {pres.vars[0]: parse_poly(text, pres.res,
                                                         pres.all_vars)})

    xs = [lift(m.source.patches[0], "x^2"), lift(m.source.patches[1], "1 + u")]
    rep = compatibility_check(m, xs, [lift(m.target.patches[0], "t")])
    assert rep.compatible is False
    (_, _, pullback, pushforward), = rep.pairs
    assert pullback["t"].is_zero() and not pushforward["t"].is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compat_lift_constant_on_two_source_charts(p):
    # t -> 2 x^2 and t -> 2 u_inv^2 have the lift constant
    # (2 - 2^p)/p * x^(2p) on each chart; the joint lifts absorb it, and
    # the x^p lifts leave it on both charts, where the identity
    # pullback - pushforward = e_0 - e_1 still holds on the overlap
    m = gm_on_two_charts(BaseRingSpec(p), 2, coefficient=2)
    assert validate_morphism(m) is True
    xs, ys = build_compatible_lifts(m)
    assert compatibility_check(m, xs, ys).compatible is True
    rep = compatibility_check(m, *independent_lifts(m))
    assert rep.compatible is False
    c = (2 ** p - 2) // p % p
    assert [e["t"].to_text() for e in rep.discrepancy] == [
        "%s%s^%d" % ("" if c == 1 else "%d*" % c, x, 2 * p)
        for x in ("x", "u_inv")]


def translated_weierstrass_in_p2(ring):
    """weierstrass_in_p2 on translated_weierstrass: chart 0 pulls a back
    to x - 1, which has a lift constant too."""
    charts = [ChartMap(0, pullback={"a": "x - 1", "b": "y"},
                       section={"x": "a + 1", "y": "b"}),
              ChartMap(2, pullback={"e": "-z", "g": "-w"},
                       section={"w": "-g", "z": "-e"})]
    return SchemeMorphism("translated_in_p2", translated_weierstrass(ring),
                          BUILTIN_SCHEMES["p2"](ring), charts,
                          kind="closed_immersion")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compat_on_a_translated_chart(p):
    # with the source cocycle's lift constants, the identity pullback -
    # pushforward = e_i - e_j holds and the verdicts are the builtin's
    m = translated_weierstrass_in_p2(BaseRingSpec(p))
    assert validate_morphism(m) is True
    xs, ys = build_compatible_lifts(m)
    assert compatibility_check(m, xs, ys).compatible is True
    assert compatibility_check(m, *independent_lifts(m)).compatible is False


def test_compat_difference_check_fires():
    # chart 1 pulls g back to -w + z, which disagrees with chart 0 on the
    # source overlap, so the two cocycles no longer differ by e_i - e_j
    m = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3))
    charts = [m.charts[0], ChartMap(2, {"e": "-z", "g": "-w + z"})]
    bent = SchemeMorphism("bent", m.source, m.target, charts)
    with pytest.raises(WfError, match=r"pullback/pushforward difference on "
                                      r"overlap \(0,1\) is not the coboundary "
                                      r"of the lift discrepancy at 'a'"):
        compatibility_check(bent, *independent_lifts(bent))


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
    return MvPoly(pres.res, pres.all_vars, {tuple(exps): pres.res.from_int(c)})


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


def _ref_compatible_attempt(morphism, degree):
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
            for m in tgt_bases[chart.target_index]:
                mono = MvPoly(tgt.res, tgt.all_vars, {m: tgt.res.one()})
                moved = transport(mono, tgt, chart.pullback, src, level="res")
                for e, c in moved.terms.items():
                    sys.add(eqbase + (e,),
                            ("AY", chart.target_index, t, m), -c)
    sol = sys.solve()
    if sol is None:
        return None
    xs = [_ref_coeffs_from_solution(pres, src_bases[idx], sol, "AX", (idx,))
          for idx, pres in enumerate(morphism.source.patches)]
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
                mono = (MvPoly(pi_patch.res, pi_patch.all_vars, {m: pi_patch.res.one()})
                        .extend_vars(pa.all_vars))
                for e, c in pa.nf(mono).terms.items():
                    sys.add(("pair", i, j, v, e), ("W", i, v, m), c)
        grads = {v: twisted_gradient(pb, pb.to_res(view.map_ab[v]))
                 for v in pa.vars}
        for w in pb.vars:
            for m in bases[j]:
                mono = (MvPoly(pj_patch.res, pj_patch.all_vars, {m: pj_patch.res.one()})
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


def _pivots(p, system):
    rows, _, cols = system
    return rref(p, [dict(row) for row in rows.values()], len(cols))


def assert_filtered_system(p, got, ref):
    """got is ref restricted to its own columns, drops only columns that
    are not pivots of ref, and has the rank of ref; returns how many
    columns it drops."""
    rows, rhs, cols = ref
    kept = set(got[2])
    index = {}
    for key in cols:
        if key in kept:
            index[key] = len(index)
    restricted = {}
    for eq, row in rows.items():
        entries = {index[cols[c]]: v for c, v in row.items()
                   if cols[c] in index}
        if entries or eq in rhs:
            restricted[eq] = entries
    assert got == (restricted, rhs, list(index))
    ref_pivots = _pivots(p, ref)
    assert not [cols[c] for c in ref_pivots if cols[c] not in kept]
    assert len(_pivots(p, got)) == len(ref_pivots)
    return len(cols) - len(index)


def test_compatible_lifts_match_reference_assembly(monkeypatch):
    seen = recorded_systems(monkeypatch)
    dropped = 0
    for p in (3, 5, 7):
        ring = BaseRingSpec(p)
        makers = dict(BUILTIN_MORPHISMS, weierstrass_origin=weierstrass_origin,
                      origin_in_frobenius_graph=origin_in_frobenius_graph)
        for name in sorted(makers):
            m = makers[name](ring)
            start = max([ring.q * pres.max_relation_degree()
                         for pres in m.source.patches + m.target.patches]
                        + [ring.q])
            for d in sorted({1, start, 2 * start}):
                seen.clear()
                ref = _ref_compatible_attempt(m, d)
                ref_systems = list(seen)
                seen.clear()
                try:
                    xs, ys = build_compatible_lifts(m, start_degree=d,
                                                    max_degree=d)
                    got = ([lift.coeffs for lift in xs],
                           [lift.coeffs for lift in ys])
                except NoSolutionAtBound as exc:
                    assert exc.bound == d
                    got = None
                assert got == ref, (name, p, d)
                # the joint system keeps a subset of the target columns;
                # the lifts of target charts the morphism misses follow
                assert seen[1:] == ref_systems[1:], (name, p, d)
                dropped += assert_filtered_system(p, seen[0],
                                                  ref_systems[0])
    assert dropped


@pytest.mark.parametrize("p", [3, 5, 7])
def test_weierstrass_target_charts_keep_the_hilbert_function(monkeypatch, p):
    # pullback maps the target monomials of degree <= d onto the
    # coordinate ring of a plane cubic, whose affine Hilbert function is
    # 3d, so 3d of them survive in each target chart, for both variables
    seen = recorded_systems(monkeypatch)
    xs, _ = build_compatible_lifts(
        BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(p)))
    degree = xs[0].degree
    assert degree == 3 * p
    kept = {}
    for key in seen[0][2]:
        if key[0] == "AY":
            kept.setdefault(key[1], {}).setdefault(key[2], []).append(key[3])
    assert sorted(kept) == [0, 2]
    for per_var in kept.values():
        assert [len(ms) for ms in per_var.values()] == [3 * degree] * 2


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
        yield name + " perturbed", scheme, Cochain1(perturbed)


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
        # a zero cochain is decided by the zero witness with no system
        # built; the reference solves its homogeneous system to the same
        assert seen == ([] if cochain.is_zero() else ref_systems), (name, p)
        got = [sec.coeffs for sec in witness] if vanishes else None
        assert (vanishes, got) == ref, (name, p)
        verdicts[name] = vanishes
    # with no relations every random section is tangent, so the exact
    # cochains vanish; perturbing them breaks that
    assert verdicts["p1 exact"] and verdicts["p2 exact"]
    assert not verdicts["p2 perturbed"]


def value_key(f):
    return f.vars, frozenset(f.terms.items())


def counted_linearizations(monkeypatch):
    """(chart, value of the polynomial) for each wf.di call of
    linearize_generator from now on; the charts stay referenced, so no
    two of them share an id."""
    seen = []
    linearize = wf.di.linearize_generator

    def counting(pres, g):
        seen.append((pres, value_key(g)))
        return linearize(pres, g)

    monkeypatch.setattr(wf.di, "linearize_generator", counting)
    return seen


def assert_each_built_once(seen):
    keys = [(id(owner), key) for owner, key in seen]
    assert len(set(keys)) == len(keys)


def pullback_keys(pres):
    """The keys of pres.conditions that are not relations of pres."""
    relations = {(g.vars, tuple(g.terms.items())) for g in pres.relations}
    return [key for key in pres.conditions if key not in relations]


def reaches(start, target):
    """Whether target is reachable from start through gc.get_referents,
    not passing through modules, classes or module namespaces."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values())
                    if m is not None}
    seen, todo = set(), [start]
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if (id(obj) in seen or id(obj) in module_dicts
                or isinstance(obj, (type, type(sys)))):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


def test_di_builds_each_charts_conditions_once(monkeypatch):
    # the lift ladder and the witness's tangency rows share each chart's
    # conditions, one per relation; weierstrass at p = 7 has a nonzero
    # cocycle, so the witness system is built
    seen = counted_linearizations(monkeypatch)
    scheme = BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(7))
    report = compute_di_class(scheme)
    assert not report.cochain.is_zero()
    assert_each_built_once(seen)
    assert {(id(pres), key) for pres, key in seen} == {
        (id(pres), value_key(g)) for pres in scheme.patches
        for g in pres.relations}
    assert reaches(report.lifts[0], scheme.patches[0])
    for pres in scheme.patches:
        assert pres.conditions and not pullback_keys(pres)
        assert not reaches(pres.conditions, pres)


def test_compat_builds_each_charts_conditions_once(monkeypatch):
    # the whole ladder of joint attempts, the discrepancy re-check, the
    # lift of the target chart the morphism misses and the independent
    # lifts linearize each relation and pullback once per chart
    attempts = recorded_systems(monkeypatch)
    seen = counted_linearizations(monkeypatch)
    m = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3))
    charts = m.source.patches + m.target.patches
    build_compatible_lifts(m, start_degree=2, max_degree=16)
    assert len(attempts) > 2
    for pres in charts:
        local_frobenius_lift(pres)
    assert_each_built_once(seen)
    assert {id(pres) for pres, _ in seen} == {id(pres) for pres in charts
                                              if pres.relations}
    for idx, pres in enumerate(m.source.patches):
        assert len(pullback_keys(pres)) == len(m.target_patch(idx).vars)
    for pres in m.target.patches:
        assert not pullback_keys(pres)
    for pres in charts:
        assert not reaches(pres.conditions, pres)


def test_companion_products_add_no_condition():
    # u v - 1 linearizes to the constant 0 and the folded Jacobian
    # u^q - u^(2q) v^q, which is 0 in the normal form; checked on every
    # localized chart and overlap view of the builtins
    checked = 0
    for p, m in [(2, 1), (3, 1), (5, 1), (3, 2), (7, 2)]:
        ring = BaseRingSpec(p, frob_power=m)
        charts = []
        for build in BUILTIN_SCHEMES.values():
            try:
                scheme = build(ring)
            except NonSmooth:  # weierstrass at p = 2, genus2 at p = 5
                continue
            charts += scheme.patches
            for (i, j) in scheme.overlap_pairs():
                view = scheme.view(i, j)
                charts += [view.pres_a, view.pres_b]
        for pres in charts:
            for g in pres.generators()[len(pres.relations):]:
                const, tables = wf.di._condition(pres, g)
                assert const.is_zero() and tables == {}, (p, m, pres.name)
                checked += 1
    assert checked > 50


def test_wrong_pullback_table_fails_the_discrepancy_recheck(monkeypatch):
    # the re-check reads only the constant from the kept condition and
    # takes the chain rule from fder_apply, so a wrong Jacobian table in
    # the solve is caught
    condition = wf.di._condition

    def doubled(pres, g):
        const, tables = condition(pres, g)
        if value_key(g) in {value_key(r) for r in pres.relations}:
            return const, tables
        grad = twisted_gradient(pres, g)
        return const, {v: wf.scheme.MonomialImages.shifted(
            pres, pres.all_vars, grad[v] + grad[v]) for v in tables}

    monkeypatch.setattr(wf.di, "_condition", doubled)
    m = BUILTIN_MORPHISMS["weierstrass_in_p2"](BaseRingSpec(3))
    with pytest.raises(WfError, match="failed the discrepancy re-check"):
        build_compatible_lifts(m)


def counted_memo_builds(monkeypatch):
    """Every chart made from now on, and each twisted gradient, lift
    condition and companion inverse built, as (owner, value of the
    polynomial): the chart for gradients and conditions, its reduction
    context at the level asked for inverses.  The owners stay
    referenced, so no two of them share an id."""
    charts, builds = [], {"gradient": [], "inverse": []}
    init = Presentation.__init__
    partials = wf.scheme.twisted_partials
    invert = wf.poly.ReductionContext.try_invert

    def making(self, *args, **kwargs):
        init(self, *args, **kwargs)
        charts.append(self)

    def gradient(pres, f):
        builds["gradient"].append((pres, value_key(pres.to_res(f))))
        return partials(pres, f)

    def inverse(red, f):
        builds["inverse"].append((red, value_key(f)))
        return invert(red, f)

    monkeypatch.setattr(Presentation, "__init__", making)
    monkeypatch.setattr(wf.scheme, "twisted_partials", gradient)
    monkeypatch.setattr(wf.poly.ReductionContext, "try_invert", inverse)
    builds["condition"] = counted_linearizations(monkeypatch)
    return charts, builds


@pytest.mark.parametrize("argv", [["di", "weierstrass", "--p", "5"],
                                  ["compat", "weierstrass_in_p2", "--p", "3"]],
                         ids=" ".join)
def test_charts_build_each_memo_entry_once(monkeypatch, capsys, argv):
    # fder_apply, transport, the witness rows, the frame change and the
    # lift discrepancy ask for the same gradients, conditions and
    # inverses again and again; each chart builds each one once
    charts, builds = counted_memo_builds(monkeypatch)
    assert wf.cli.main(argv) == 0
    capsys.readouterr()
    for kind, seen in builds.items():
        assert seen, kind
        assert_each_built_once(seen)
    for pres in charts:
        assert not reaches((pres.gradients, pres.conditions, pres.inverses),
                           pres)
    assert any(pres.gradients for pres in charts)
    assert any(pres.inverses for pres in charts)
    assert (any(pullback_keys(pres) for pres in charts)
            == (argv[0] == "compat"))


def test_solution_coefficients_keep_only_nonzero_terms():
    # the solver's values are reduced mod p, and a column left out of the
    # system (a dependent target monomial) reads as 0
    pres = BUILTIN_SCHEMES["weierstrass"](BaseRingSpec(5)).patches[0]
    basis = pres.red.monomials_up_to(4)
    rng = random.Random(5)
    sol = {("A", v, m): rng.choice((0, 0, 1, 4)) for v in pres.vars
           for m in basis if rng.random() < 0.8}
    got = wf.di._coeffs_from_solution(pres, basis, sol, ("A",))
    assert list(got) == list(pres.vars)
    for v in pres.vars:
        want = MvPoly(pres.res, pres.all_vars,
                      {m: sol.get(("A", v, m), 0) for m in basis})
        assert list(got[v].terms.items()) == list(want.terms.items())
        assert 0 not in got[v].terms.values()


# X^4 + Y^4 + Z^4 on the charts Z != 0 and X != 0, which cover it
QUARTIC = {
    "name": "X^4 + Y^4 + Z^4", "ring": {"p": 3}, "genus": 3,
    "patches": [{"name": "Z", "vars": ["x", "y"],
                 "relations": ["x^4 + y^4 + 1"]},
                {"name": "X", "vars": ["u", "w"],
                 "relations": ["u^4 + w^4 + 1"]}],
    "overlaps": [{"i": 0, "j": 1, "invert_i": "x", "invert_j": "w",
                  "to_j": {"x": "w_inv", "y": "u*w_inv"},
                  "to_i": {"u": "y*x_inv", "w": "x_inv"}}]}


def _pair_table_cases():
    for p, m in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (7, 2)):
        ring = BaseRingSpec(p, frob_power=m)
        for name in sorted(BUILTIN_SCHEMES):
            try:
                yield "%s q=%d" % (name, p ** m), BUILTIN_SCHEMES[name](ring)
            except NonSmooth:
                continue
    for p in (3, 5, 7):
        for doc in (GENUS3, QUARTIC):
            yield "%s p=%d" % (doc["name"], p), GluedScheme.from_json(
                doc, BaseRingSpec(p))


def test_pair_rows_match_the_b_side_route():
    # the old route: a table of nf_b(mat * x^m) seeded in the b-side
    # chart, each entry transported to the a side afterwards.  It equals
    # the a-side table's entry only where nf_a is canonical, so no
    # overlap chart may orient a rule on an inverted variable
    # (ReductionContext._classify's fallback).  Entries are compared up
    # to the completeness threshold, capped at pole degree 40 on curves
    # and 10 on the planes of P2 to keep the large q cases cheap
    checked = 0
    for name, scheme in _pair_table_cases():
        for (i, j) in scheme.overlap_pairs():
            bound = min(completeness_threshold(scheme),
                        40 if len(scheme.patches[j].vars) < 3 else 10)
            view = scheme.view(i, j)
            pa, pb = view.pres_a, view.pres_b
            for pres in (pa, pb):
                assert not set(pres.red.monic_rules) & set(pres.inverted), \
                    (name, pres.name)
            tables = wf.di._pair_tables(scheme, i, j)
            names = scheme.patches[j].all_vars
            basis = scheme.patches[j].red.monomials_up_to(bound)
            for v in pa.vars:
                for w, mat in twisted_gradient(pb, view.map_ab[v]).items():
                    old = wf.scheme.MonomialImages.shifted(pb, names, mat)
                    for m in basis:
                        assert tables[(v, w)][m] == transport(
                            old[m], pb, view.map_ba, pa), (name, i, j, m)
                        checked += 1
    assert checked > 10000
