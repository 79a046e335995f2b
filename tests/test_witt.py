"""Length-two Witt vectors: ring laws, ghost oracle, derivation check."""

import random
from math import comb

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.errors import Inconclusive, SpecMismatch
from wf.witt import WittContext, WittVec, ghost


def rand_vec(ctx, rng, span=10 ** 6):
    return ctx.vec(rng.randint(-span, span), rng.randint(-span, span))


def law(ring):
    """The carry coefficients binom(q,j)/pi for 0 < j < q."""
    return [ring.int_div_pi(comb(ring.q, j)) for j in range(1, ring.q)]


def test_law_constants():
    assert law(IntRing(2)) == [1]
    assert law(IntRing(3)) == [1, 1]
    # q = 4: binom(4, j)/2 for j = 1..3
    assert law(IntRing(2, 2)) == [2, 3, 2]
    assert law(IntRing(5)) == [1, 2, 2, 1]


def test_neg_constant():
    # (-1 - (-1)^q)/pi: zero for odd q, -1 for q = 2, in general the
    # alternating sum of the addition law constants
    assert WittContext(IntRing(3)).neg_const == 0
    assert WittContext(IntRing(2)).neg_const == -1
    assert WittContext(IntRing(2, 2)).neg_const == -(2 - 3 + 2)


def test_worked_values():
    ctx = WittContext(IntRing(2))
    assert ctx.vec(1, 0) + ctx.vec(1, 0) == ctx.vec(2, -1)
    assert ctx.vec(1, 1) * ctx.vec(1, 1) == ctx.vec(1, 4)


def test_ghost_components():
    ctx = WittContext(IntRing(3))
    assert ghost(ctx.vec(2, 5)) == (2, 8 + 15)


def test_ghost_commutes_with_ops():
    rng = random.Random(21)
    for p, m in ((2, 1), (3, 1), (5, 1), (2, 2)):
        ctx = WittContext(IntRing(p, m))
        for _ in range(150):
            a = rand_vec(ctx, rng, 999)
            b = rand_vec(ctx, rng, 999)
            ga, gb = ghost(a), ghost(b)
            gs = ghost(a + b)
            gp = ghost(a * b)
            gn = ghost(-a)
            assert gs == (ga[0] + gb[0], ga[1] + gb[1])
            assert gp == (ga[0] * gb[0], ga[1] * gb[1])
            assert gn == (-ga[0], -ga[1])


def test_ghost_over_residues_reduces_the_integer_ghost():
    # Z -> Z/p^k induces a ring map on W_1 that commutes with the ghost
    # map: the ghost of a, a + b, a * b and -a over Z/p^k is the integer
    # ghost of the same coordinates reduced mod p^k
    rng = random.Random(29)
    for p in (2, 3, 5):
        for k in (1, 4):
            for m in (1, 2):
                ints = WittContext(IntRing(p, m))
                mods = WittContext(IntModRing(p, k, m))
                for _ in range(20):
                    x = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(4)]
                    a, b = ints.vec(*x[:2]), ints.vec(*x[2:])
                    ra, rb = mods.vec(*x[:2]), mods.vec(*x[2:])
                    for got, want in ((ra, a), (ra + rb, a + b),
                                      (ra * rb, a * b), (-ra, -a)):
                        assert ghost(got) == tuple(g % p ** k for g in ghost(want))


def test_ring_axioms_all_coefficient_rings():
    rng = random.Random(22)
    rings = [IntRing(3), IntModRing(2, 4), IntModRing(5, 3),
             BaseRingSpec(3), BaseRingSpec(2, [-2, 0, 1], 4),
             IntRing(3, 2)]
    for ring in rings:
        ctx = WittContext(ring)
        zero, one = ctx.zero(), ctx.one()
        for _ in range(120):
            if isinstance(ring, BaseRingSpec):
                mk = lambda: ctx.vec(ring.from_int(rng.randint(-999, 999)),
                                     ring.from_int(rng.randint(-999, 999)))
            else:
                mk = lambda: rand_vec(ctx, rng, 999)
            a, b, c = mk(), mk(), mk()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a + (-a) == zero


def power(r, x, k):
    """x^k by repeated ring-adapter multiplication, independent of pow."""
    out = x
    for _ in range(k - 1):
        out = r.mul(out, x)
    return out


def fold_add(ctx, a, b):
    """The generic sum: the carry folded from the law constants."""
    r, q = ctx.ring, ctx.q
    corr = r.zero()
    for j, c in enumerate(law(r), 1):
        corr = r.add(corr, r.mul(c,
                                 r.mul(power(r, a.a0, q - j), power(r, b.a0, j))))
    return r.add(a.a0, b.a0), r.sub(r.add(a.a1, b.a1), corr)


def fold_mul(ctx, a, b):
    """The generic product through the ring adapter."""
    r, q = ctx.ring, ctx.q
    c1 = r.add(r.add(r.mul(a.a1, power(r, b.a0, q)), r.mul(b.a1, power(r, a.a0, q))),
               r.mul(ctx.pi, r.mul(a.a1, b.a1)))
    return r.mul(a.a0, b.a0), c1


def rand_base_elem(spec, rng, prec=None):
    return spec.elem([rng.randint(-10 ** 6, 10 ** 6) for _ in range(spec.e)], prec)


BASE_RINGS = [BaseRingSpec(p, eis, n, m)
              for p in (2, 3, 5) for m in (1, 2)
              for eis, n in (([-p, 1], 4), ([-p, p, 1], 5), ([p, -p, 0, 1], 6))]


def test_kernels_match_law_fold():
    rng = random.Random(24)
    int_rings = [IntRing(p, m) for p in (2, 3, 5) for m in (1, 2)]
    mod_rings = [IntModRing(p, k, m) for p in (2, 3, 5) for k in (1, 4) for m in (1, 2)]
    for ring in int_rings + mod_rings:
        ctx = WittContext(ring)
        for _ in range(40):
            a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
            s, m = a + b, a * b
            assert (s.a0, s.a1) == fold_add(ctx, a, b)
            assert (m.a0, m.a1) == fold_mul(ctx, a, b)
    for spec in BASE_RINGS:
        ctx = WittContext(spec)
        top = spec.precision + 1
        for _ in range(15):
            # precisions from a random floor up to N + 1: some pairs mix
            # precisions below N, some lie wholly above N
            floor = rng.randint(1, top)
            a, b = (ctx.vec(rand_base_elem(spec, rng, rng.randint(floor, top)),
                            rand_base_elem(spec, rng, rng.randint(floor, top)))
                    for _ in range(2))
            s, m = a + b, a * b
            for got, want in zip((s.a0, s.a1, m.a0, m.a1),
                                 fold_add(ctx, a, b) + fold_mul(ctx, a, b)):
                assert got.coeffs == want.coeffs
                assert got.prec == want.prec


def test_ghost_oracle_base_rings():
    # pi*c1 is known mod pi^(N+1) when c1 is known mod pi^N, so the ghost
    # map is taken in the same ring padded by one digit, where it sees
    # every tracked digit of the second coordinate
    rng = random.Random(25)
    for spec in BASE_RINGS:
        pad = BaseRingSpec(spec.p, spec.eisenstein, spec.precision + 1,
                           spec.frob_power)
        pi = pad.pi()

        def g1(w):
            return power(pad, pad.elem(w.a0.coeffs), spec.q) + pi * pad.elem(w.a1.coeffs)

        ctx = WittContext(spec)
        for _ in range(15):
            a, b = (ctx.vec(rand_base_elem(spec, rng), rand_base_elem(spec, rng))
                    for _ in range(2))
            s, m = a + b, a * b
            assert s.a0 == a.a0 + b.a0 and m.a0 == a.a0 * b.a0
            assert g1(s) == g1(a) + g1(b)
            assert g1(m) == g1(a) * g1(b)


def test_context_mixing_rejected():
    a = WittContext(IntRing(2)).vec(1, 0)
    b = WittContext(IntRing(3)).vec(1, 0)
    with pytest.raises(SpecMismatch):
        a + b


def test_foreign_coordinates_rejected():
    # the coordinate check runs when a vector is built, so a foreign
    # coordinate never reaches a kernel; an int is refused the same way
    spec = BaseRingSpec(3, [-3, 0, 1], 4)
    ctx = WittContext(spec)
    a = ctx.vec(spec.from_int(5), spec.from_int(7))
    one = spec.one()
    for other in (BaseRingSpec(5, [-5, 0, 1], 4), BaseRingSpec(3, [-3, 0, 1], 5),
                  BaseRingSpec(3, [-3, 3, 1], 4), BaseRingSpec(3, [-3, 0, 1], 4, 2)):
        x = other.from_int(2)
        for coords in ((x, one), (one, x)):
            for op in (a.__add__, a.__mul__):
                with pytest.raises(SpecMismatch):
                    op(ctx.vec(*coords))
                with pytest.raises(SpecMismatch):
                    op(WittVec(ctx, *coords))
    for coords in ((2, one), (one, 2)):
        for op in (a.__add__, a.__mul__):
            with pytest.raises(SpecMismatch):
                op(WittVec(ctx, *coords))
    # and an element of Z_3[pi] is no integer coordinate
    for ring in (IntRing(3), IntModRing(3, 2)):
        with pytest.raises(SpecMismatch):
            WittVec(WittContext(ring), one, 0)
        with pytest.raises(SpecMismatch):
            WittVec(WittContext(ring), 0, one)


def test_equal_spec_built_apart_is_accepted():
    rng = random.Random(27)
    for spec in BASE_RINGS:
        twin = BaseRingSpec(spec.p, list(spec.eisenstein), spec.precision,
                            spec.frob_power)
        ctx = WittContext(spec)
        for _ in range(4):
            coeffs = [rand_base_elem(spec, rng) for _ in range(4)]
            a, b = ctx.vec(*coeffs[:2]), ctx.vec(*coeffs[2:])
            b_twin = ctx.vec(*(twin.elem(x.coeffs, x.prec) for x in coeffs[2:]))
            for got, want in ((a + b_twin, a + b), (a * b_twin, a * b),
                              (b_twin + a, b + a), (-b_twin, -b)):
                assert (got.a0.coeffs, got.a0.prec, got.a1.coeffs, got.a1.prec) == (
                    want.a0.coeffs, want.a0.prec, want.a1.coeffs, want.a1.prec)
                assert got.f == want.f


def fresh_power(ring, a0):
    """a0^q as a vector over ring carries it, by repeated multiplication:
    over a base ring the canonical coefficients mod pi^(min(prec, N) + 1),
    over Z/p^k the residue mod p^(k+1), over Z the exact power."""
    if isinstance(ring, BaseRingSpec):
        prec = min(a0.prec, ring.precision) + 1
        return power(ring, ring.elem(a0.coeffs, prec), ring.q).coeffs
    if isinstance(ring, IntModRing):
        return power(IntModRing(ring.p, ring.k + 1), a0, ring.q)
    return power(ring, a0, ring.q)


def test_carried_power_is_a0_to_the_q():
    rng = random.Random(28)
    rings = (BASE_RINGS + [IntModRing(p, k, m) for p in (2, 3, 5)
                           for k in (1, 4) for m in (1, 2)]
             + [IntRing(p, m) for p in (2, 3, 5) for m in (1, 2)])
    for ring in rings:
        ctx = WittContext(ring)
        if isinstance(ring, BaseRingSpec):
            top = ring.precision + 1

            def coord():
                return rand_base_elem(ring, rng, rng.randint(1, top))
        else:
            def coord():
                return rng.randint(-10 ** 4, 10 ** 4)
        built = [ctx.zero(), ctx.one()]
        for _ in range(6):
            built += [ctx.vec(coord(), coord()), WittVec(ctx, coord(), coord())]
        derived = []
        for _ in range(12):
            a, b = rng.choice(built), rng.choice(built)
            derived += [a + b, a * b, -a, -(a + b), (a * b) * (a + b)]
        for w in built + derived:
            assert w.f == fresh_power(ring, w.a0), (ring, w)


def test_product_power_reads_the_linear_eisenstein_term():
    # E1 and the pi-coefficient of a q-th power are both divisible by p,
    # so the E1 term of a product's carried power is a multiple of p^3
    # that only a precision of 7 or more keeps
    rng = random.Random(29)
    for p in (2, 3, 5):
        ring = BaseRingSpec(p, [-p, p, 1], 8)
        ctx = WittContext(ring)
        for _ in range(10):
            a, b = (ctx.vec(rand_base_elem(ring, rng), rand_base_elem(ring, rng))
                    for _ in range(2))
            m = a * b
            assert m.f == fresh_power(ring, m.a0), (a, b)


def test_exact_powers_are_bounded():
    # q * bit_length(a) past 2^20 is refused before any power is taken:
    # at q = 262147, the first prime past 2^18, |a| <= 7 passes and 7 * 7
    # does not, so the product's power is refused though both factors'
    # passed; the sum's power and base_delta are refused the same way
    ring = IntRing(262147)
    ctx = WittContext(ring)
    a = ctx.vec(7, 1)
    with pytest.raises(Inconclusive) as exc:
        a * a
    assert exc.value.bound == 2 ** 20
    for refused in (lambda: a + a, lambda: ctx.vec(8, 0),
                    lambda: WittVec(ctx, -8, 0), lambda: ring.base_delta(8),
                    lambda: ring.pow(49, ring.q)):
        with pytest.raises(Inconclusive):
            refused()
    assert ghost(a) == (7, 7 ** ring.q + ring.q)
    assert ring.base_delta(7) == (7 - 7 ** ring.q) // ring.q
    # |a| <= 1 passes at any q
    big = WittContext(IntRing(2 ** 61 - 1))
    assert ghost(big.vec(-1, 0) * big.vec(-1, 0)) == (1, 1)


# -- pi-derivations as Witt-vector homomorphisms (oracles only tests use) --


def hom_from_delta(ctx, g, delta):
    """The map x -> (g(x), delta(x)) into W_1 over ctx's ring."""

    def f(x):
        return WittVec(ctx, g(x), delta(x))

    return f


def is_pi_derivation(src_ring, ctx, g, delta, pairs):
    """Check x -> (g(x), delta(x)) is a ring hom on the given sample pairs.

    src_ring supplies the source arithmetic; pairs is an iterable of
    (x, y) source elements.  Unit and zero are always checked.
    """
    f = hom_from_delta(ctx, g, delta)
    if f(src_ring.one()) != ctx.one() or f(src_ring.zero()) != ctx.zero():
        return False
    for x, y in pairs:
        if f(src_ring.add(x, y)) != f(x) + f(y):
            return False
        if f(src_ring.mul(x, y)) != f(x) * f(y):
            return False
    return True


def test_fermat_quotient_is_pi_derivation():
    rng = random.Random(23)
    for p in (2, 3, 5):
        ring = IntRing(p)
        ctx = WittContext(ring)
        pairs = [(rng.randint(-99, 99), rng.randint(-99, 99))
                 for _ in range(60)]
        assert is_pi_derivation(ring, ctx, lambda a: a, ring.base_delta, pairs)


def test_broken_delta_is_not_pi_derivation():
    ring = IntRing(3)
    ctx = WittContext(ring)
    bad = lambda x: x * x  # fails additivity at 3 = 1 + 2
    pairs = [(1, 2), (2, 2), (4, 5)]
    assert not is_pi_derivation(ring, ctx, lambda a: a, bad, pairs)


def test_hom_from_delta():
    ring = IntRing(2)
    ctx = WittContext(ring)
    f = hom_from_delta(ctx, lambda a: a, ring.base_delta)
    assert f(3) == ctx.vec(3, -3)
    assert f(3) + f(5) == f(8)
    assert f(3) * f(5) == f(15)


def test_ramified_base_witt_ops():
    # uniformizer of square-root type: pi^2 = 2
    spec = BaseRingSpec(2, [-2, 0, 1], 5)
    ctx = WittContext(spec)
    a = ctx.vec(spec.elem((1, 1)), spec.elem((0, 1)))
    b = ctx.vec(spec.pi(), spec.one())
    assert (a + b) - b == a
    assert a * b == b * a
    g0, g1 = ghost(a)
    assert g1 == a.a0 ** 2 + spec.pi() * a.a1
