"""Sparse polynomial arithmetic, parsing, and monic normal forms."""

import random

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.errors import NotPrepared, ParseError, RewriteLimit, VariableMismatch
from wf.poly import REWRITE_STEPS, MvPoly, ReductionContext, parse_poly


def rand_poly(ring, vars, rng, deg=4, terms=6, span=9):
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        budget = rng.randint(0, deg)
        for _ in range(budget):
            e[rng.randrange(len(vars))] += 1
        out[tuple(e)] = ring.from_int(rng.randint(-span, span))
    return MvPoly(ring, vars, out)


def test_parse_and_text_round_trip():
    rng = random.Random(31)
    ring = IntRing(5)
    vars = ("x", "y", "z")
    for _ in range(200):
        f = rand_poly(ring, vars, rng)
        assert parse_poly(f.to_text(), ring, vars) == f


def test_parse_accepts_standard_forms():
    ring = IntRing(3)
    vars = ("x", "y")
    f = parse_poly("x^2*y - 3*x + 7", ring, vars)
    assert f.degree_in("x") == 2
    assert f.evaluate({"x": 1, "y": 1}) == 5
    assert parse_poly("-x", ring, vars) == -MvPoly.var(ring, vars, "x")
    assert parse_poly("(x + y)^2", ring, vars) == \
        parse_poly("x^2 + 2*x*y + y^2", ring, vars)
    assert parse_poly("0", ring, vars).is_zero()


def test_parse_error_carries_position():
    ring = IntRing(3)
    with pytest.raises(ParseError) as info:
        parse_poly("x^^2", ring, ("x",))
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_poly("x + q", ring, ("x",))
    assert info.value.position is not None


def test_arithmetic_laws():
    rng = random.Random(32)
    ring = IntModRing(7, 2)
    vars = ("x", "y")
    for _ in range(120):
        f = rand_poly(ring, vars, rng)
        g = rand_poly(ring, vars, rng)
        h = rand_poly(ring, vars, rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == MvPoly.zero(ring, vars)
        assert (f * g) * h == f * (g * h)


def test_zero_coefficients_dropped():
    ring = IntModRing(3)
    vars = ("x",)
    f = MvPoly(ring, vars, {(1,): 3, (0,): 1})
    assert f.terms == {(0,): 1}
    x = MvPoly.var(ring, vars, "x")
    assert (x + 2 * x).is_zero()


def test_partial_derivative():
    ring = IntRing(3)
    f = parse_poly("x^3*y + 2*x*y^2 - 5", ring, ("x", "y"))
    assert f.partial("x") == parse_poly("3*x^2*y + 2*y^2", ring, ("x", "y"))
    assert f.partial("y") == parse_poly("x^3 + 4*x*y", ring, ("x", "y"))


def test_q_power_and_frobenius_twist():
    ring = IntModRing(3)
    vars = ("x", "y")
    f = parse_poly("x^2*y + 2*x", ring, vars)
    g = f.q_power_vars(3)
    assert g == parse_poly("x^6*y^3 + 2*x^3", ring, vars)
    # over F_p, f(X)^p = (twist f)(X^p)
    assert f ** 3 == f.frob_twist().q_power_vars(3)


def test_subst_and_evaluate_agree():
    rng = random.Random(33)
    ring = IntRing(2)
    vars = ("x", "y")
    for _ in range(60):
        f = rand_poly(ring, vars, rng, deg=3)
        gx = rand_poly(ring, vars, rng, deg=2, terms=3)
        gy = rand_poly(ring, vars, rng, deg=2, terms=3)
        h = f.subst({"x": gx, "y": gy})
        pt = {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}
        inner = {"x": gx.evaluate(pt), "y": gy.evaluate(pt)}
        assert h.evaluate(pt) == f.evaluate(inner)


def test_extend_and_rename_vars():
    ring = IntRing(3)
    f = parse_poly("x^2 + 1", ring, ("x",))
    g = f.extend_vars(("x", "y"))
    assert g.vars == ("x", "y")
    assert g.degree_in("y") == 0
    h = g.rename_vars({"x": "t"}, vars=("t", "y"))
    assert h == parse_poly("t^2 + 1", ring, ("t", "y"))
    with pytest.raises(VariableMismatch):
        f + parse_poly("y", ring, ("y",))


def test_normal_form_reduces_relations_to_zero():
    rng = random.Random(34)
    ring = IntModRing(5)
    vars = ("x", "y")
    rel = parse_poly("y^2 - x^3 - x", ring, vars)
    red = ReductionContext(ring, vars, [rel])
    for _ in range(80):
        f = rand_poly(ring, vars, rng, deg=5)
        g = rand_poly(ring, vars, rng, deg=5)
        assert red.normal_form(rel * f).is_zero()
        # normal form is a ring hom modulo the ideal
        lhs = red.normal_form(f * g)
        rhs = red.normal_form(red.normal_form(f) * red.normal_form(g))
        assert lhs == rhs
        nf = red.normal_form(f)
        assert red.normal_form(nf) == nf
        # the rule orients on the first eligible variable, x^3 here
        assert nf.degree_in("x") < 3


def test_localization_pairs_strike():
    ring = IntModRing(3)
    vars = ("x", "x_inv")
    red = ReductionContext(ring, vars, (), [("x", "x_inv")])
    f = parse_poly("x^3*x_inv^2 + x*x_inv", ring, vars)
    assert red.normal_form(f) == parse_poly("x + 1", ring, vars)


def test_normal_form_canonical_on_localized_chart():
    # the rule must not be headed by an inverted variable: x^5 -> y^2 + 1
    # would leave x_inv*(y^2 + 1) and x^4 as distinct normal forms of the
    # same element, so the context reorients to y^2 -> x^5 - 1
    ring = IntModRing(3)
    vars = ("x", "y", "x_inv")
    rel = parse_poly("y^2 - x^5 + 1", ring, vars)
    red = ReductionContext(ring, vars, [rel], [("x", "x_inv")],
                           avoid=("x",))
    assert "y" in red.monic_rules and "x" not in red.monic_rules
    lhs = parse_poly("x_inv*y^2 + x_inv", ring, vars)
    assert red.normal_form(lhs) == red.normal_form(
        parse_poly("x^4", ring, vars))
    rng = random.Random(35)
    for _ in range(40):
        f = rand_poly(ring, vars, rng, deg=6)
        # multiplying by x*x_inv = 1 must not change the normal form
        assert red.normal_form(f * parse_poly("x*x_inv", ring, vars)) == \
            red.normal_form(f)


def test_avoid_is_ignored_without_alternative():
    ring = IntModRing(3)
    vars = ("x", "x_inv")
    rel = parse_poly("x^2 - 2", ring, vars)
    red = ReductionContext(ring, vars, [rel], [("x", "x_inv")],
                           avoid=("x",))
    assert "x" in red.monic_rules


def test_unorientable_relation_refused():
    ring = IntModRing(2)
    vars = ("x", "y")
    # leading coefficients 2 vanish mod 2 and the cross term blocks both
    # remaining orientations
    bad = parse_poly("x*y + x + y", ring, vars)
    with pytest.raises(NotPrepared):
        ReductionContext(ring, vars, [bad])


def test_cyclic_rules_refused():
    ring = IntModRing(5)
    vars = ("x", "y")
    r1 = parse_poly("x^2 - y^3", ring, vars)
    r2 = parse_poly("y^4 - x", ring, vars)
    with pytest.raises(NotPrepared):
        ReductionContext(ring, vars, [r1, r2])


def test_rewrite_step_bound_is_not_an_input_error():
    # y^2 -> x^5 - 1 rewrites y^42 along ~2^21 unmerged paths, so the
    # step bound runs out on a relation the constructor accepted
    ring = IntModRing(7)
    vars = ("x", "y", "x_inv")
    rel = parse_poly("y^2 - x^5 + 1", ring, vars)
    red = ReductionContext(ring, vars, [rel], [("x", "x_inv")],
                           avoid=("x",))
    with pytest.raises(RewriteLimit) as info:
        red.normal_form(parse_poly("y^42", ring, vars))
    assert not isinstance(info.value, NotPrepared)
    assert info.value.bound == REWRITE_STEPS


def test_monomials_up_to():
    ring = IntModRing(3)
    vars = ("x", "y")
    rel = parse_poly("y^2 - x^3", ring, vars)
    red = ReductionContext(ring, vars, [rel])
    basis = red.monomials_up_to(3)
    # rule is x^3 -> y^2, so x appears to degree 2 and y freely
    assert (0, 0) in basis and (0, 3) in basis and (1, 1) in basis
    assert (3, 0) not in basis
    assert all(e[0] < 3 for e in basis)
    assert basis == sorted(basis, key=lambda e: (sum(e), e))
    # localized: mixed companion monomials are excluded
    red2 = ReductionContext(ring, ("x", "x_inv"), (), [("x", "x_inv")])
    basis2 = red2.monomials_up_to(2)
    assert (1, 1) not in basis2
    assert (2, 0) in basis2 and (0, 2) in basis2


def test_try_invert():
    ring = IntModRing(5)
    vars = ("x", "x_inv", "y")
    red = ReductionContext(ring, vars, (), [("x", "x_inv")])
    f = parse_poly("2*x^2", ring, vars)
    inv = red.try_invert(f)
    assert inv is not None
    assert red.normal_form(f * inv) == MvPoly.const(ring, vars, ring.one())
    assert red.try_invert(parse_poly("y", ring, vars)) is None
    assert red.try_invert(parse_poly("x + 1", ring, vars)) is None
