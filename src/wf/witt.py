"""Length-two ramified Witt vectors W_1(A) = A x A.

The two laws are

    (a0,a1) + (b0,b1) = (a0+b0, a1+b1 - C(a0,b0)),
    C(a0,b0) = ((a0+b0)^q - a0^q - b0^q)/pi = sum_j (binom(q,j)/pi) a0^(q-j) b0^j
    (a0,a1) * (b0,b1) = (a0 b0, a1 b0^q + b1 a0^q + pi a1 b1)

over any supported coefficient ring: exact integers, Z/p^k, or a
truncated base ring.  binom(q,j) is divisible by p for 0 < j < q, so the
carry C is a polynomial with integral coefficients: computed in closed
form on exact representatives, with the division by pi done before any
reduction, it does not depend on the representatives chosen.  Each
coefficient ring implements both laws as one kernel on its raw
coefficients (witt_add, witt_mul); WittVec only dispatches to them.
Associativity and distributivity are polynomial identities with those
integral constants, so they hold on the nose, not just mod pi.

A pi-derivation delta on A is the same thing as a ring homomorphism
x -> (g(x), delta(x)) into W_1(B); is_pi_derivation checks that shape on
a sample, and the ghost map (a0, a0^q + pi a1) is the torsion-free oracle
for both laws.
"""

from __future__ import annotations

from .errors import SpecMismatch


class WittContext:
    """Coefficient ring with its q and pi, plus the negation constant.

    q is always the ring's own.  neg_const is (-1 - (-1)^q)/pi, the
    alternating sum of the carry coefficients binom(q,j)/pi, which
    negation needs; the sum and product live on the ring's kernels.
    """

    __slots__ = ("ring", "q", "pi", "neg_const")

    def __init__(self, ring):
        self.ring = ring
        self.q = q = ring.q
        self.pi = ring.pi()
        # int_div_pi divides the exact integer before reducing
        self.neg_const = ring.int_div_pi(-1 - (-1) ** q)

    def vec(self, a0, a1):
        r = self.ring
        if isinstance(a0, int):
            a0 = r.from_int(a0)
        if isinstance(a1, int):
            a1 = r.from_int(a1)
        return WittVec(self, a0, a1)

    def zero(self):
        return WittVec(self, self.ring.zero(), self.ring.zero())

    def one(self):
        return WittVec(self, self.ring.one(), self.ring.zero())


class WittVec:
    __slots__ = ("ctx", "a0", "a1")

    def __init__(self, ctx, a0, a1):
        self.ctx = ctx
        self.a0 = a0
        self.a1 = a1

    def _check(self, other):
        if not isinstance(other, WittVec) or other.ctx is not self.ctx:
            raise SpecMismatch("witt vectors from different contexts")

    def __add__(self, other):
        self._check(other)
        c0, c1 = self.ctx.ring.witt_add(self.a0, self.a1, other.a0, other.a1)
        return WittVec(self.ctx, c0, c1)

    def __neg__(self):
        ctx = self.ctx
        r = ctx.ring
        a1 = r.add(r.neg(self.a1), r.mul(ctx.neg_const, r.pow(self.a0, ctx.q)))
        return WittVec(ctx, r.neg(self.a0), a1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        c0, c1 = self.ctx.ring.witt_mul(self.a0, self.a1, other.a0, other.a1)
        return WittVec(self.ctx, c0, c1)

    def __eq__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        self._check(other)
        r = self.ctx.ring
        return r.eq(self.a0, other.a0) and r.eq(self.a1, other.a1)

    def __hash__(self):
        return hash((self.a0, self.a1))

    def __repr__(self):
        return "WittVec(%r, %r)" % (self.a0, self.a1)


def ghost(w: WittVec):
    """Ghost coordinates (a0, a0^q + pi a1); componentwise oracle."""
    r = w.ctx.ring
    return (w.a0, r.add(r.pow(w.a0, w.ctx.q), r.mul(w.ctx.pi, w.a1)))


def hom_from_delta(ctx: WittContext, g, delta):
    """The map x -> (g(x), delta(x)) into W_1 over ctx's ring."""

    def f(x):
        return WittVec(ctx, g(x), delta(x))

    return f


def is_pi_derivation(src_ring, ctx: WittContext, g, delta, pairs):
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
