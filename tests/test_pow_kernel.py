"""The power kernel against its unoptimised form.

``MvPoly.__pow__`` stops before the square past the top bit of k, and
``DeltaContext.prolong`` carries acc^q from one fold step to the next.
Neither may change a term, a coefficient or a coefficient's precision;
the oracles below are the straightforward forms of both, which square
once more than needed and raise acc^q afresh at every step.
"""

import random

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.delta import DeltaContext
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


def oracle_prolong(dctx, f):
    """The left fold with C_pi(acc, t) raising all three powers each step."""
    f = f.extend_vars(dctx.all_vars)
    memo = {}
    acc_val = acc_del = None
    for e, c in f.sorted_terms():
        t_val = MvPoly(dctx.ring, dctx.all_vars, {e: c})
        t_del = dctx._delta_term(e, c, memo)
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
