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
coefficient ring implements the laws, negation and the ghost map as
kernels on its raw coefficients (witt_add, witt_mul, witt_neg,
witt_ghost); WittVec only dispatches to them.  Every WittVec carries
f = a0^q, the power that the carry, the product, negation and the ghost
map all read: the kernels take the operands' f and return the
result's.  A sum raises one q-th power, and a product multiplies its
operands' (over the integers it raises one, to bound its size first).
Associativity and distributivity are polynomial identities with those
integral constants, so they hold on the nose, not just mod pi.

A pi-derivation delta on A is the same thing as a ring homomorphism
x -> (g(x), delta(x)) into W_1(B), and the ghost map (a0, a0^q + pi a1)
is the torsion-free oracle for both laws.
"""

from __future__ import annotations

from .errors import SpecMismatch


class WittContext:
    """Coefficient ring with its q and pi, plus the negation constant.

    q is always the ring's own.  neg_const is (-1 - (-1)^q)/pi, the
    alternating sum of the carry coefficients binom(q,j)/pi, which
    negation needs; the laws live on the ring's kernels.
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
    """(a0, a1) in W_1 over ctx's ring, carrying f = a0^q.

    f is in the ring's raw form: for a truncated base ring the canonical
    coefficient tuple of a0^q mod pi^(min(a0.prec, N) + 1), for Z/p^k an
    int mod p^(k+1), for the integers the exact int.  A vector built
    outside the kernels (ctx.vec, zero, one, or WittVec(ctx, a0, a1)) has
    its coordinates checked against the ring and f computed here; every
    kernel takes the operands' f and returns its result's.
    """

    __slots__ = ("ctx", "a0", "a1", "f")

    def __init__(self, ctx, a0, a1, f=None):
        self.ctx = ctx
        self.a0 = a0
        self.a1 = a1
        self.f = ctx.ring.witt_power(a0, a1) if f is None else f

    def _check(self, other):
        if not isinstance(other, WittVec) or other.ctx is not self.ctx:
            raise SpecMismatch("witt vectors from different contexts")

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        return WittVec(ctx, *ctx.ring.witt_add(self.a0, self.a1, self.f,
                                               other.a0, other.a1, other.f))

    def __neg__(self):
        ctx = self.ctx
        return WittVec(ctx, *ctx.ring.witt_neg(self.a0, self.a1, self.f, ctx.neg_const))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        return WittVec(ctx, *ctx.ring.witt_mul(self.a0, self.a1, self.f,
                                               other.a0, other.a1, other.f))

    def __eq__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        self._check(other)
        r = self.ctx.ring
        return r.eq(self.a0, other.a0) and r.eq(self.a1, other.a1)

    def __repr__(self):
        return "WittVec(%r, %r)" % (self.a0, self.a1)


def ghost(w: WittVec):
    """Ghost coordinates (a0, a0^q + pi a1); componentwise oracle."""
    return w.ctx.ring.witt_ghost(w.a0, w.a1, w.f, w.ctx.pi)
