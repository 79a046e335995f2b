"""Prolongation calculus: sum/product rules, the evaluation oracle,
and the lift/derivation dictionary."""

import random

import pytest

from wf.base_ring import BaseRingSpec, IntRing
from wf.delta import JET_SUFFIX, DeltaContext, jet_name
from wf.errors import WfError
from wf.poly import MvPoly, parse_poly


def rand_poly(ring, vars, rng, deg=4, terms=5, span=9):
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(vars))] += 1
        out[tuple(e)] = ring.from_int(rng.randint(-span, span))
    return MvPoly(ring, vars, out)


def eval_with_canonical_jets(ring, dctx, g, point):
    full = dict(point)
    for v in dctx.vars:
        full[jet_name(v)] = ring.base_delta(point[v])
    return g.evaluate(full)


def test_jet_naming():
    assert jet_name("x") == "x" + JET_SUFFIX
    dctx = DeltaContext(IntRing(3), ("a", "b"))
    assert dctx.jet_vars == ("a_dot", "b_dot")
    assert dctx.all_vars == ("a", "b", "a_dot", "b_dot")
    with pytest.raises(WfError):
        DeltaContext(IntRing(3), ("x", "x_dot"))


def test_prolong_of_variable_and_constant():
    ring = IntRing(2)
    dctx = DeltaContext(ring, ("x",))
    x = MvPoly.var(ring, ("x",), "x")
    assert dctx.prolong(x) == MvPoly.var(ring, dctx.all_vars, jet_name("x"))
    five = MvPoly.const(ring, ("x",), 5)
    assert dctx.prolong(five) == MvPoly.const(
        ring, dctx.all_vars, ring.base_delta(5))


def test_prolong_rejects_jet_input():
    ring = IntRing(2)
    dctx = DeltaContext(ring, ("x",))
    with pytest.raises(WfError):
        dctx.prolong(MvPoly.var(ring, dctx.all_vars, jet_name("x")))


def test_worked_square():
    # delta(x^2) at x = 3 with delta(x) = -3 gives -36 when p = 2
    ring = IntRing(2)
    dctx = DeltaContext(ring, ("x",))
    g = dctx.prolong(parse_poly("x^2", ring, ("x",)))
    assert g.evaluate({"x": 3, "x_dot": -3}) == -36


def test_sum_and_product_rules():
    rng = random.Random(41)
    ring = IntRing(3)
    vars = ("x", "y")
    dctx = DeltaContext(ring, vars)
    for _ in range(50):
        f = rand_poly(ring, vars, rng, deg=3)
        g = rand_poly(ring, vars, rng, deg=3)
        fa = f.extend_vars(dctx.all_vars)
        ga = g.extend_vars(dctx.all_vars)
        lhs = dctx.prolong(f + g)
        rhs = dctx.prolong(f) + dctx.prolong(g) + dctx.c_pi(fa, ga)
        assert lhs == rhs
        lhs = dctx.prolong(f * g)
        rhs = (fa ** ring.q * dctx.prolong(g)
               + ga ** ring.q * dctx.prolong(f)
               + dctx.prolong(f) * dctx.prolong(g) * ring.pi())
        assert lhs == rhs


def test_evaluation_oracle_exact_integers():
    # delta(f(a)) = prolong(f)(a, delta(a)) over the integers
    rng = random.Random(42)
    for p in (2, 3, 5):
        ring = IntRing(p)
        for nvars in (1, 2, 3):
            vars = tuple("xyz"[:nvars])
            dctx = DeltaContext(ring, vars)
            for _ in range(12):
                f = rand_poly(ring, vars, rng, deg=4)
                g = dctx.prolong(f)
                point = {v: rng.randint(-9, 9) for v in vars}
                assert (ring.base_delta(f.evaluate(point))
                        == eval_with_canonical_jets(ring, dctx, g, point))


def test_oracle_at_higher_frobenius_power():
    rng = random.Random(43)
    ring = IntRing(2, 2)  # q = 4
    vars = ("x", "y")
    dctx = DeltaContext(ring, vars)
    for _ in range(20):
        f = rand_poly(ring, vars, rng, deg=3)
        g = dctx.prolong(f)
        point = {v: rng.randint(-6, 6) for v in vars}
        assert (ring.base_delta(f.evaluate(point))
                == eval_with_canonical_jets(ring, dctx, g, point))


def test_c_pi_exactness_tracked_ring():
    rng = random.Random(44)
    spec = BaseRingSpec(3)
    vars = ("x", "y")
    dctx = DeltaContext(spec, vars)
    for _ in range(20):
        f = rand_poly(spec, vars, rng, deg=2, terms=3)
        g = rand_poly(spec, vars, rng, deg=2, terms=3)
        c = dctx.c_pi(f, g)
        # multiply back: pi * c_pi recovers the binomial defect exactly
        # at one digit less precision
        defect = f ** 3 + g ** 3 - (f + g) ** 3
        back = c * spec.pi()
        k = spec.precision - 2
        assert back.map_coeffs(lambda a: a.reduce(k), spec) == \
            defect.map_coeffs(lambda a: a.reduce(k), spec)


# -- lift descriptors (oracles only tests use) --


def lift_from_delta(dctx, assignment):
    """phi(x) = x^q + pi * delta(x) from a delta-value table over the
    base variables of dctx (a wf.delta.DeltaContext)."""
    pi = dctx.ring.pi()
    out = {}
    for name in dctx.vars:
        if name not in assignment:
            raise WfError("no delta value for variable %r" % (name,))
        dval = assignment[name]
        if dval.vars != dctx.vars:
            dval = dval.extend_vars(dctx.vars)
        xq = MvPoly.var(dctx.ring, dctx.vars, name, dctx.q)
        out[name] = xq + dval * pi
    return out


def delta_from_lift(dctx, phi):
    """Invert lift_from_delta; NotDivisible flags a non-lift.

    Each coefficient division is exact only when phi(x) = x^q mod pi,
    which is exactly the Frobenius-lift condition.
    """
    out = {}
    for name in dctx.vars:
        if name not in phi:
            raise WfError("no phi image for variable %r" % (name,))
        img = phi[name]
        if img.vars != dctx.vars:
            img = img.extend_vars(dctx.vars)
        xq = MvPoly.var(dctx.ring, dctx.vars, name, dctx.q)
        out[name] = (img - xq).map_coeffs(dctx.ring.div_pi, dctx.ring)
    return out


def test_lift_delta_round_trip():
    rng = random.Random(45)
    spec = BaseRingSpec(3)
    vars = ("x", "y")
    dctx = DeltaContext(spec, vars)
    for _ in range(25):
        table = {v: rand_poly(spec, vars, rng, deg=2, terms=3) for v in vars}
        phi = lift_from_delta(dctx, table)
        back = delta_from_lift(dctx, phi)
        # the division spends a digit, so compare one level down
        k = spec.precision - 2
        for v in vars:
            want = table[v].extend_vars(vars).map_coeffs(
                lambda a: a.reduce(k), spec)
            got = back[v].map_coeffs(lambda a: a.reduce(k), spec)
            assert want == got


def test_delta_from_lift_rejects_non_lift():
    spec = BaseRingSpec(3)
    dctx = DeltaContext(spec, ("x",))
    not_a_lift = {"x": parse_poly("x^2", spec, ("x",))}
    with pytest.raises(WfError):
        delta_from_lift(dctx, not_a_lift)


def test_prolong_linear_over_constant_shift():
    # prolong(f + c) = prolong(f) + delta(c) + c_pi(f, c), by the fold order
    ring = IntRing(5)
    dctx = DeltaContext(ring, ("x",))
    f = parse_poly("x^3 + 2*x", ring, ("x",))
    c = MvPoly.const(ring, ("x",), 7)
    lhs = dctx.prolong(f + c)
    rhs = (dctx.prolong(f)
           + MvPoly.const(ring, dctx.all_vars, ring.base_delta(7))
           + dctx.c_pi(f.extend_vars(dctx.all_vars),
                       c.extend_vars(dctx.all_vars)))
    assert lhs == rhs
