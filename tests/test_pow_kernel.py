"""The power kernel against its unoptimised form.

``MvPoly.__pow__`` stops before the square past the top bit of k,
``DeltaContext.prolong`` computes sum_i delta(t_i) + (sum_i t_i^q - f^q)/pi
over the terms t_i of f, and the delta of a monomial is its closed
binomial expansion.  None of them may change a term, a coefficient or a
coefficient's precision; the oracles below are the straightforward forms,
which square once more than needed, fold the sum rule over f's terms
raising all three powers of each C_pi afresh, and build the delta of a
monomial by the product rule, recursively.  prolong may list its terms in
another order than the fold, and on mixed precisions the two can keep
different precisions (ROADMAP item 8(a)); the inputs where they do are
pinned by name below.  The same holds for the kernels under them: a
square, which takes only the products with i <= j, against the general
product, and sums and products, which drop zeros where they make them,
against a second filtering pass.  A one-term polynomial is raised in
closed form, c^k x^(k e), and ``MvPoly.subst`` merges every term's image
into one running sum in place; the oracles are square-and-multiply and
the term-by-term substitution with a fresh sum per term.
"""

import itertools
import random

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.delta import DeltaContext, jet_name
from wf.errors import VariableMismatch
from wf.poly import MvPoly, ReductionContext, parse_poly


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


def small_elem(ring, n, prec=None):
    """n in ring; over BaseRingSpec known to prec digits (all if None)."""
    if isinstance(ring, BaseRingSpec):
        return ring.from_int(n, prec)
    return ring.from_int(n)


def one_term_cases(ring, vars, rng):
    """One-term polynomials: random ones (over BaseRingSpec of random
    precision), multiples of p whose powers vanish at the working
    precision, a unit known to fewer digits, and constants."""
    p = ring.p
    cases = [rand_poly(ring, vars, rng, deg=3, terms=1) for _ in range(4)]
    cases += [MvPoly(ring, vars, {(1, 2): small_elem(ring, p)}),
              MvPoly(ring, vars, {(0, 1): small_elem(ring, -p * p)}),
              MvPoly(ring, vars, {(2, 0): small_elem(ring, p + 1, 2)}),
              MvPoly(ring, vars, {(0, 0): small_elem(ring, 2)})]
    if isinstance(ring, BaseRingSpec):
        cases += [MvPoly(ring, vars, {(1, 1): ring.pi(2)}),
                  MvPoly(ring, vars, {(3, 0): ring.pi() * ring.from_int(2, 3)})]
    # over Z/p a multiple of p is already the zero polynomial
    return [f for f in cases if f.terms]


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
    # one-term polynomials take the closed form c^k x^(k e)
    vanished = 0
    for f in one_term_cases(ring, vars, rng):
        assert len(f.terms) == 1
        for k in range(13):
            got = f ** k
            assert_identical(got, oracle_pow(f, k))
            vanished += not got.terms
    if not isinstance(ring, IntRing) and not ring.is_zero(small_elem(ring, ring.p)):
        assert vanished  # some power of p died at the working precision


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
        t = MvPoly(ring, vars, {(0, 2): ring.from_int(p ** 3)})
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


# Inputs of test_prolong_matches_oracle, by ring and case number, on which
# prolong and the fold keep different precisions: ROADMAP item 8(a), where
# each summation order deletes cancelled coefficients at its own points.
# term -> (prolong's precision, the fold's); the values agree at the lower.
# Case 16 is 11@2 + 11@3 y + 6@2 x^2 + 12@3 y^2 over Z_5 at precision 3.
LEDGER_SPLITS = {
    (repr(BaseRingSpec(5, precision=3)), 16): {(0, 6, 0, 0): (1, 2)},
}


def assert_same_but_order(got, want, splits):
    """The terms of want in any order, equal coefficients and precisions,
    except at the terms of splits, pinned as (got's precision, want's)."""
    assert got.vars == want.vars
    assert set(got.terms) == set(want.terms)
    seen = {}
    for e, c in want.terms.items():
        g = got.terms[e]
        precs = getattr(g, "prec", None), getattr(c, "prec", None)
        if precs[0] != precs[1]:
            seen[e] = precs
            g, c = g.reduce(min(precs) - 1), c.reduce(min(precs) - 1)
        assert got.ring.eq(g, c), (e, g, c)
    assert seen == splits


@pytest.mark.parametrize("ring", PROLONG_RINGS, ids=repr)
def test_prolong_matches_oracle(ring):
    # the fold's precisions on mixed-precision inputs, but not its term
    # order, which no report reads
    rng = random.Random(62)
    vars = ("x", "y")
    dctx = DeltaContext(ring, vars)
    terms = 3 if ring.q > 5 else 5
    cases = []
    for _ in range(5):
        # precision 1 cannot pay the pi-division of C_pi
        f = rand_poly(ring, vars, rng, min_prec=2, deg=2, terms=terms)
        # constant shifts, folded last
        cases += [f] + [f + c for c in (1, -2, 7)]
    cases += [MvPoly.zero(ring, vars), MvPoly.var(ring, vars, "x"),
              MvPoly.const(ring, vars, 4)]
    for i, f in enumerate(cases):
        assert_same_but_order(dctx.prolong(f), oracle_prolong(dctx, f),
                              LEDGER_SPLITS.get((repr(ring), i), {}))


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


# -- the product, square and sum kernels ------------------------------------


def equal_copy(f):
    """An equal polynomial that is another object, so f * equal_copy(f)
    runs the general product, not the square."""
    return MvPoly(f.ring, f.vars, dict(f.terms))


def reference_sum(f, g, sign):
    """f + g (sign 1) or f - g (sign -1) merged key by key, zeros
    filtered in a second pass."""
    r = f.ring
    out = dict(f.terms)
    for e, c in g.terms.items():
        if e in out:
            out[e] = r.add(out[e], c) if sign > 0 else r.sub(out[e], c)
        else:
            out[e] = c if sign > 0 else r.neg(c)
    return MvPoly(r, f.vars, out)


def kernel_cases(ring, vars, rng):
    """Pairs (f, g) over vars: random ones, the zero polynomial,
    constants, and exponent sums of 256 and more."""
    def rand(terms):
        if vars:
            return rand_poly(ring, vars, rng, terms=terms)
        return MvPoly.const(ring, vars, rng.randint(-20, 20))

    zero = MvPoly.zero(ring, vars)
    const = MvPoly.const(ring, vars, 3)
    for _ in range(5):
        yield rand(6), rand(5)
    f = rand(4)
    yield f, zero
    yield zero, f
    yield zero, zero
    yield f, const
    yield const, MvPoly.const(ring, vars, -5)
    if vars:
        big = {tuple(200 + 31 * i + k for i in range(len(vars))): ring.from_int(k + 1)
               for k in range(3)}
        big = MvPoly(ring, vars, big)
        yield big, big + f
        yield f, big


def check_product_and_square(f, g):
    assert_identical(f * g, general_product(f, g))
    assert_identical(f * equal_copy(f), general_product(f, f))
    assert_identical(f * f, general_product(f, f))
    assert_identical(f ** 2, general_product(f, f))


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
@pytest.mark.parametrize("vars", [("x", "y"), ("x",), ()], ids=len)
def test_product_and_square_match_general(ring, vars):
    # the square takes the products with i <= j and doubles the cross
    # terms; it must keep the general product's terms, their order,
    # coefficients and precisions
    rng = random.Random(64)
    for f, g in kernel_cases(ring, vars, rng):
        check_product_and_square(f, g)
        check_product_and_square(g, f)


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
@pytest.mark.parametrize("vars", [("x", "y"), ()], ids=len)
def test_sum_and_difference_match_reference(ring, vars):
    # a cancelling key is deleted where it cancels, so the survivors keep
    # their order
    rng = random.Random(65)
    for f, g in kernel_cases(ring, vars, rng):
        for a, b in ((f, g), (g, f), (f, f), (f, equal_copy(f))):
            assert_identical(a + b, reference_sum(a, b, 1))
            assert_identical(a - b, reference_sum(a, b, -1))
            assert_identical(a + -b, reference_sum(a, -b, 1))
        assert_identical(3 - f, reference_sum(MvPoly.const(ring, vars, 3), f, -1))
        if f.terms and len(vars) == 2:
            # some terms cancel, others merge, others pass through
            half = MvPoly(ring, vars, dict(list(f.terms.items())[::2]))
            assert_identical(f - half, reference_sum(f, half, -1))
            assert_identical(half - f + g, reference_sum(
                reference_sum(half, f, -1), g, 1))
            assert not (f - equal_copy(f)).terms


@pytest.mark.parametrize("ring", [r for r in POW_RINGS if isinstance(r, BaseRingSpec)],
                         ids=repr)
def test_products_vanishing_at_precision(ring):
    # p * p^3 vanishes at precision 4, and a factor known to fewer digits
    # lowers the precision of every term it meets
    p = ring.p
    vars = ("x", "y")
    low = ring.from_int(p * p, 2)
    f = MvPoly(ring, vars, {(1, 0): ring.from_int(p), (0, 1): ring.one(),
                            (0, 0): low, (2, 0): ring.from_int(p ** 2)})
    g = MvPoly(ring, vars, {(0, 2): ring.from_int(p ** 3), (1, 0): ring.one(1),
                            (0, 0): ring.from_int(p, 3)})
    for a, b in ((f, g), (g, f), (f, f), (g, g)):
        check_product_and_square(a, b)
        assert_identical(a + b, reference_sum(a, b, 1))
        assert_identical(a - b, reference_sum(a, b, -1))
    if ring.e == 1 and ring.precision == 4:
        # (p x + p^2 x^2)^2: p^2 x^2 + 2 p^3 x^3 + p^4 x^4, the last zero
        sq = MvPoly(ring, vars, {(1, 0): ring.from_int(p),
                                 (2, 0): ring.from_int(p ** 2)}) ** 2
        assert list(sq.terms) == [(2, 0), (3, 0)]


# -- no stored zeros ----------------------------------------------------------


def assert_no_zero_coefficients(f):
    assert not any(f.ring.is_zero(c) for c in f.terms.values()), f.terms


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_kernels_store_no_zero_coefficients(ring):
    # random sequences of add, sub, mul, square, pow, normal_form and
    # subst; every result, fed back in, is checked
    rng = random.Random(66)
    vars = ("x", "y", "u")
    x, y = MvPoly.var(ring, vars, "x"), MvPoly.var(ring, vars, "y")
    red = ReductionContext(ring, vars, relations=[y ** 2 - x ** 3 - x + 1],
                           loc_pairs=[("u", "x")])
    pool = [rand_poly(ring, vars, rng, terms=4) for _ in range(4)]
    pool.append(MvPoly.zero(ring, vars))
    for step in range(120):
        f, g = rng.choice(pool), rng.choice(pool)
        op = step % 7
        if op == 0:
            h = f + g
        elif op == 1:
            h = f - rng.choice((g, f, equal_copy(f)))
        elif op == 2:
            h = f * g
        elif op == 3:
            h = f * f
        elif op == 4:
            h = f ** rng.randint(0, 3)
        elif op == 5:
            h = red.normal_form(f * g)
        else:
            h = f.subst({"x": g, "y": f, "u": MvPoly.const(ring, vars, ring.p)},
                        ring, vars)
        assert_no_zero_coefficients(h)
        if len(h.terms) > 20 or h.total_deg() > 8:
            h = red.normal_form(rand_poly(ring, vars, rng, terms=4))
            assert_no_zero_coefficients(h)
        pool[rng.randrange(len(pool))] = h


# -- substitution ---------------------------------------------------------


def reference_subst(f, mapping, ring, vars):
    """The term-by-term substitution: each term's image a product of
    square-and-multiply powers, added to a fresh sum."""
    vars = tuple(vars)
    if any(val.vars != vars for val in mapping.values()):
        raise VariableMismatch("substitution images over mixed spaces")
    out = MvPoly.zero(ring, vars)
    for e, c in f.sorted_terms():
        term = MvPoly.const(ring, vars, f._convert_coeff(c, ring))
        for name, k in zip(f.vars, e):
            if k == 0:
                continue
            if name not in mapping:
                raise VariableMismatch("no image for variable %r" % (name,))
            term = term * oracle_pow(mapping[name], k)
        out = out + term
    return out


def outcome(fn):
    """fn()'s polynomial, or the type and message of what it raised."""
    try:
        return fn()
    except VariableMismatch as exc:
        return (type(exc), str(exc))


def assert_same_subst(f, mapping, ring, vars):
    got = outcome(lambda: f.subst(mapping, ring, vars))
    want = outcome(lambda: reference_subst(f, mapping, ring, vars))
    if isinstance(want, MvPoly):
        assert isinstance(got, MvPoly), got
        assert_identical(got, want)
    else:
        assert got == want


def monomial_images(ring, src, dst, rng):
    """One-term images of the names in src over dst: random monomials
    with random coefficients (random precision over BaseRingSpec), so
    images of different terms share exponents and merge."""
    out = {}
    for name in src:
        e = tuple(rng.randint(0, 2) for _ in dst)
        c = rand_poly(ring, dst, rng, terms=1).terms
        c = next(iter(c.values())) if c else ring.one()
        out[name] = MvPoly(ring, dst, {e: c})
    return out


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_subst_matches_reference(ring):
    rng = random.Random(67)
    src, dst = ("x", "y", "z"), ("u", "v")
    p = ring.p
    for _ in range(8):
        f = rand_poly(ring, src, rng, deg=4, terms=6)
        images = monomial_images(ring, src, dst, rng)
        assert_same_subst(f, images, ring, dst)
        # one multi-term image among the monomials
        multi = dict(images)
        multi["y"] = rand_poly(ring, dst, rng, deg=2, terms=3)
        assert_same_subst(f, multi, ring, dst)
        # a zero image and a constant one
        degenerate = dict(images)
        degenerate["x"] = MvPoly.zero(ring, dst)
        degenerate["z"] = MvPoly.const(ring, dst, 3)
        assert_same_subst(f, degenerate, ring, dst)
    # images that merge and cancel: x + y - 2 z with x, y -> u and
    # z -> u cancels in u; x*y + y^2 with x -> -y merges to 0
    u = MvPoly.var(ring, dst, "u")
    f = parse_poly("x + y - 2*z + x*y + y^2 + 5", ring, src)
    for images in ({"x": u, "y": u, "z": u},
                   {"x": -MvPoly.var(ring, dst, "v"), "y": MvPoly.var(ring, dst, "v"),
                    "z": u * small_elem(ring, p)}):
        assert_same_subst(f, images, ring, dst)
    f = parse_poly("x + y - 2*z", ring, src)
    assert not f.subst({"x": u, "y": u, "z": u}, ring, dst).terms
    # images whose powers vanish at the working precision, next to units
    # known to fewer digits
    images = {"x": MvPoly(ring, dst, {(1, 0): small_elem(ring, p * p)}),
              "y": MvPoly(ring, dst, {(0, 1): small_elem(ring, p + 1, 2)}),
              "z": MvPoly(ring, dst, {(1, 1): small_elem(ring, p)})}
    for _ in range(4):
        assert_same_subst(rand_poly(ring, src, rng, deg=5, terms=6), images,
                          ring, dst)


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_subst_raises_where_reference_raises(ring):
    # a missing image is refused at the first term, largest first, that
    # uses it, even after an earlier image vanished; images over another
    # space are refused before any term; an unused name needs no image
    src, dst = ("x", "y", "z"), ("u", "v")
    rng = random.Random(68)
    f = parse_poly("x^2*z + y + 1", ring, src)
    images = monomial_images(ring, src, dst, rng)
    for missing in (("x",), ("y",), ("z",), ("x", "z"), ("x", "y", "z")):
        partial = {n: img for n, img in images.items() if n not in missing}
        assert_same_subst(f, partial, ring, dst)
        partial["x"] = MvPoly.zero(ring, dst)
        assert_same_subst(f, partial, ring, dst)
    assert_same_subst(parse_poly("y", ring, src), {"y": images["y"]}, ring, dst)
    stray = dict(images, w=MvPoly.var(ring, ("u", "v", "w"), "w"))
    assert_same_subst(f, stray, ring, dst)
    assert_same_subst(MvPoly.zero(ring, src), stray, ring, dst)
    assert isinstance(outcome(lambda: f.subst({}, ring, dst)), tuple)
