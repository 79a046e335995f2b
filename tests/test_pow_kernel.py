"""The power kernel against its unoptimised form.

``MvPoly.__pow__`` stops before the square past the top bit of k,
``DeltaContext.prolong`` carries acc^q from one fold step to the next,
and the delta of a monomial is its closed binomial expansion.  None of
them may change a term, a coefficient or a coefficient's precision; the
oracles below are the straightforward forms, which square once more than
needed, raise acc^q afresh at every step and build the delta of a
monomial by the product rule, recursively.
"""

import itertools
import random

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.delta import DeltaContext, jet_name
from wf.poly import MvPoly


def oracle_pow(f, k):
    """Square-and-multiply that also squares past the top bit."""
    result = MvPoly.const(f.ring, f.vars, f.ring.one())
    base = f
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def oracle_c_pi(dctx, a, b):
    q = dctx.q
    num = oracle_pow(a, q) + oracle_pow(b, q) - oracle_pow(a + b, q)
    return num.map_coeffs(dctx.ring.div_pi, dctx.ring)


def oracle_delta_term(dctx, e, c, memo):
    # delta(c * m) = c^q delta(m) + m^q delta(c) + pi delta(c) delta(m)
    r = dctx.ring
    dm = oracle_delta_mono(dctx, e, memo)
    dc = r.base_delta(c)
    cq = r.pow(c, dctx.q)
    out = dm * cq
    if not r.is_zero(dc):
        mq = MvPoly(r, dctx.all_vars, {tuple(a * dctx.q for a in e): r.one()},
                    _clean=False)
        out = out + mq * dc + (dm * dc) * r.pi()
    return out


def oracle_delta_mono(dctx, e, memo):
    """delta of a monomial by the product rule, recursively, memoised."""
    got = memo.get(e)
    if got is not None:
        return got
    total = sum(e)
    r = dctx.ring
    if total == 0:
        result = MvPoly.zero(r, dctx.all_vars)
    elif total == 1:
        i = e.index(1)
        result = MvPoly.var(r, dctx.all_vars, jet_name(dctx.all_vars[i]))
    else:
        i = next(k for k, a in enumerate(e) if a)
        if e[i] == total:
            # single variable power: peel one factor
            u = tuple(1 if k == i else 0 for k in range(len(e)))
            v = tuple(a - 1 if k == i else a for k, a in enumerate(e))
        else:
            # split off the leading variable block
            u = tuple(e[i] if k == i else 0 for k in range(len(e)))
            v = tuple(0 if k == i else a for k, a in enumerate(e))
        du = oracle_delta_mono(dctx, u, memo)
        dv = oracle_delta_mono(dctx, v, memo)
        uq = MvPoly(r, dctx.all_vars, {tuple(a * dctx.q for a in u): r.one()},
                    _clean=False)
        vq = MvPoly(r, dctx.all_vars, {tuple(a * dctx.q for a in v): r.one()},
                    _clean=False)
        result = uq * dv + vq * du + (du * dv) * r.pi()
    memo[e] = result
    return result


def oracle_prolong(dctx, f):
    """The left fold with C_pi(acc, t) raising all three powers each step,
    over the recursive delta of each monomial."""
    f = f.extend_vars(dctx.all_vars)
    memo = {}
    acc_val = acc_del = None
    for e, c in f.sorted_terms():
        t_val = MvPoly(dctx.ring, dctx.all_vars, {e: c})
        t_del = oracle_delta_term(dctx, e, c, memo)
        if acc_val is None:
            acc_val, acc_del = t_val, t_del
        else:
            acc_del = acc_del + t_del + oracle_c_pi(dctx, acc_val, t_val)
            acc_val = acc_val + t_val
    if acc_del is None:
        return MvPoly.zero(dctx.ring, dctx.all_vars)
    return acc_del


def assert_identical(got, want):
    """Same terms in the same order, equal coefficients, equal precisions."""
    assert got.vars == want.vars
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        assert got.ring.eq(got.terms[e], c), (e, got.terms[e], c)
        assert getattr(got.terms[e], "prec", None) == getattr(c, "prec", None), e


def rand_poly(ring, vars, rng, min_prec=1, deg=3, terms=4):
    """Random polynomial; over BaseRingSpec each coefficient gets a random
    precision in [min_prec, ring.precision]."""
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(vars))] += 1
        if isinstance(ring, BaseRingSpec):
            c = ring.elem([rng.randint(-40, 40) for _ in range(ring.e)],
                          rng.randint(min_prec, ring.precision))
        else:
            c = ring.from_int(rng.randint(-20, 20))
        out[tuple(e)] = c
    return MvPoly(ring, vars, out)


POW_RINGS = (
    IntRing(3),
    IntModRing(5, 1),
    IntModRing(3, 4),
    BaseRingSpec(3, precision=4),
    BaseRingSpec(5, precision=3),
    BaseRingSpec(3, [-3, 0, 1], 4),
)


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_pow_matches_oracle(ring):
    rng = random.Random(61)
    vars = ("x", "y")
    for _ in range(4):
        f = rand_poly(ring, vars, rng, deg=2, terms=3)
        for k in range(13):
            assert_identical(f ** k, oracle_pow(f, k))
    zero = MvPoly.zero(ring, vars)
    for k in range(4):
        assert_identical(zero ** k, oracle_pow(zero, k))


def general_product(f, g):
    """The term-by-term product with merging, as for any two polynomials."""
    r = f.ring
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = r.mul(c1, c2)
            out[e] = r.add(out[e], c) if e in out else c
    return MvPoly(r, f.vars, out)


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_one_term_product_matches_general(ring):
    # the one-term fast path of __mul__ merges nothing; it must keep the
    # general product's terms, their order, coefficients and precisions
    rng = random.Random(63)
    vars = ("x", "y")
    for _ in range(6):
        f = rand_poly(ring, vars, rng, terms=5)
        t = rand_poly(ring, vars, rng, terms=1)
        assert len(t.terms) == 1
        assert_identical(f * t, general_product(f, t))
        assert_identical(t * t, general_product(t, t))
    zero = MvPoly.zero(ring, vars)
    x = MvPoly.var(ring, vars, "x", 2)
    assert_identical(zero * x, general_product(zero, x))
    if isinstance(ring, BaseRingSpec):
        # p * p^3 vanishes at precision 4; a factor known to fewer digits
        # lowers the precision of every product term
        p = ring.p
        f = MvPoly(ring, vars, {(1, 0): ring.from_int(p), (0, 1): ring.one(),
                                (0, 0): ring.from_int(p * p, 2)})
        t = MvPoly.monomial(ring, vars, (0, 2), ring.from_int(p ** 3))
        assert_identical(f * t, general_product(f, t))
        if ring.e == 1 and ring.precision == 4:
            assert list((f * t).terms) == [(0, 3)]


def test_pow_product_count(monkeypatch):
    # popcount(k) products into the result (the first one by 1) plus
    # bit_length(k) - 1 squarings: none past the top bit
    ring = IntRing(5)
    f = MvPoly(ring, ("x", "y"), {(1, 0): 2, (0, 1): -1, (0, 0): 3})
    calls = []
    mul = MvPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MvPoly, "__mul__", counting)
    for k in range(1, 21):
        calls.clear()
        f ** k
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1, k


PROLONG_RINGS = (
    IntRing(3),
    IntRing(2, frob_power=2),
    BaseRingSpec(3, precision=4),
    BaseRingSpec(3, precision=4, frob_power=2),
    BaseRingSpec(5, precision=3),
    BaseRingSpec(3, [-3, 0, 1], 4),
)


@pytest.mark.parametrize("ring", PROLONG_RINGS, ids=repr)
def test_prolong_matches_oracle(ring):
    rng = random.Random(62)
    vars = ("x", "y")
    dctx = DeltaContext(ring, vars)
    terms = 3 if ring.q > 5 else 5
    for _ in range(5):
        # precision 1 cannot pay the pi-division of C_pi
        f = rand_poly(ring, vars, rng, min_prec=2, deg=2, terms=terms)
        assert_identical(dctx.prolong(f), oracle_prolong(dctx, f))
        # constant shifts, folded last
        for c in (1, -2, 7):
            g = f + c
            assert_identical(dctx.prolong(g), oracle_prolong(dctx, g))
    for f in (MvPoly.zero(ring, vars), MvPoly.var(ring, vars, "x"),
              MvPoly.const(ring, vars, 4)):
        assert_identical(dctx.prolong(f), oracle_prolong(dctx, f))


@pytest.mark.parametrize("ring", PROLONG_RINGS + (BaseRingSpec(5, precision=2),),
                         ids=repr)
def test_delta_mono_matches_recursion(ring):
    # monomials past the degree-2 polynomials above, where binomials and
    # powers of pi can vanish at the working precision
    dctx = DeltaContext(ring, ("x", "y", "z"))
    memo = {}
    for e in itertools.product(range(7), repeat=3):
        if sum(e) <= 7:
            e += (0, 0, 0)
            assert_identical(dctx._delta_mono(e), oracle_delta_mono(dctx, e, memo))
