"""Truncated ramified extensions of the p-adic integers.

The base ring is Z_p[x]/(E(x)) for a monic Eisenstein polynomial E, with
pi the class of x, truncated at pi^N.  Elements are stored on the power
basis 1, pi, ..., pi^(e-1); the coefficient of pi^i is canonical modulo
p^ceil((N-i)/e) because pi^e = p * unit.

Every element carries the precision it is known to.  Ring operations
propagate the minimum of the operand precisions; exact division by pi
drops it by one.  That ledger is the whole point: a division that would
leave less than one tracked digit raises instead of silently lying.

Three coefficient rings answer one protocol, so callers never ask which
one they hold: BaseRingSpec (the ring above), IntRing (the exact
integers, pi = p, where the oracles run) and IntModRing (Z/p^k).  Each
has zero, one, from_int, pi, add, sub, neg, mul, pow, eq, is_zero,
div_pi, int_div_pi, base_delta, same, unit_inverse (None off the units),
power_bits (a bound on the bits of one coefficient of the q-th power of
a sum), precision (None where untracked) and the length-two Witt laws as
kernels on raw coefficients, witt_power, witt_add, witt_mul, witt_neg
and witt_ghost, which wf.witt dispatches to.  A vector carries
f = a0^q in the ring's raw form (witt_power builds it); each kernel
takes its operands' f and returns its result's, so no law raises a
coordinate to the q-th power again.  IntRing's exact powers are refused
above 2^20 bits (Inconclusive).

The coefficient Frobenius is the identity here (it fixes Z_p and sends
pi to pi); the residue Frobenius x -> x^q with q = p^frob_power is what
all higher layers twist by.
"""

from __future__ import annotations

from math import log2

from .bounds import require_at_least, require_prime, require_type
from .errors import (Inconclusive, NotDivisible, ParseError, PrecisionExceeded,
                     SpecMismatch, WfError)


def _vp(n: int, p: int) -> int:
    # p-adic valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# past this many bits IntRing refuses an exact power (IntRing._power)
_POWER_BITS = 1 << 20


def _require_ints(*coords):
    for x in coords:
        if not isinstance(x, int):
            raise SpecMismatch("witt coordinate %r is not an integer" % (x,))


def _reduce(coeffs, moduli):
    """Each coefficient reduced mod its own modulus."""
    n = len(coeffs)
    if n == 1:
        return (coeffs[0] % moduli[0],)
    if n == 2:
        return (coeffs[0] % moduli[0], coeffs[1] % moduli[1])
    return tuple([c % m for c, m in zip(coeffs, moduli)])


def _mul_coeffs(a, b, eis):
    """Product of two coefficient tuples in Z[x]/(E), not yet reduced."""
    e = len(a)
    if e == 1:
        return (a[0] * b[0],)
    if e == 2:
        a0, a1 = a
        b0, b1 = b
        c2 = a1 * b1
        return (a0 * b0 - c2 * eis[0], a0 * b1 + a1 * b0 - c2 * eis[1])
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    # fold degrees >= e down through pi^e = -(E - x^e)
    for d in range(2 * e - 2, e - 1, -1):
        c = conv[d]
        if c:
            conv[d] = 0
            for i in range(e):
                conv[d - e + i] -= c * eis[i]
    return tuple(conv[:e])


class BaseRingSpec:
    """Immutable description of one truncated base ring.

    eisenstein is the coefficient list of E, lowest degree first, e.g.
    [-2, 0, 1] for x^2 - 2.  The default is x - p (the unramified case,
    pi = p).  frob_power m sets q = p^m; the ring itself always has
    residue field F_p, q only drives the twisting exponent.
    """

    __slots__ = ("p", "eisenstein", "e", "precision", "frob_power", "q",
                 "_moduli", "_power_mods", "_unit0_inv", "_pi_coeffs")

    def __init__(self, p, eisenstein=None, precision=4, frob_power=1):
        require_prime(p, "p")
        if eisenstein is None:
            eisenstein = [-p, 1]
        eisenstein = tuple(int(c) for c in eisenstein)
        if len(eisenstein) < 2 or eisenstein[-1] != 1:
            raise WfError("eisenstein polynomial must be monic of degree >= 1")
        if any(c % p != 0 for c in eisenstein[:-1]):
            raise WfError("all lower eisenstein coefficients must be divisible by p")
        if eisenstein[0] == 0 or _vp(eisenstein[0], p) != 1:
            raise WfError("eisenstein constant term must have p-valuation exactly 1")
        require_at_least(precision, 2, "precision")
        require_at_least(frob_power, 1, "frob_power")
        self.p = p
        self.eisenstein = eisenstein
        self.e = len(eisenstein) - 1
        self.precision = int(precision)
        self.frob_power = int(frob_power)
        self.q = p ** frob_power
        self._moduli = {}
        self._power_mods = {}
        # constant term is p * unit0; cache unit0 inverses per modulus
        self._unit0_inv = {}
        self._pi_coeffs = (p,) if self.e == 1 else (0, 1) + (0,) * (self.e - 2)

    def moduli(self, prec):
        """Coefficient moduli p^ceil((prec-i)/e) at a given precision."""
        cached = self._moduli.get(prec)
        if cached is None:
            e, p = self.e, self.p
            cached = tuple(
                p ** (-(-(prec - i) // e)) if prec > i else 1 for i in range(e)
            )
            self._moduli[prec] = cached
        return cached

    def _inv_unit0(self, modulus):
        inv = self._unit0_inv.get(modulus)
        if inv is None:
            u0 = (self.eisenstein[0] // self.p) % modulus
            inv = pow(u0, -1, modulus) if modulus > 1 else 0
            self._unit0_inv[modulus] = inv
        return inv

    def _div_pi(self, coeffs, prec):
        """Coefficients of c/pi for c divisible by pi and known mod pi^prec.

        Writing c = sum c_i pi^i and pi*d = c gives
        c_0 = -d_{e-1} E_0 and c_i = d_{i-1} - d_{e-1} E_i for i >= 1.
        """
        p = self.p
        if self.e == 1:
            return (coeffs[0] // p,)
        big = self.moduli(prec)[0]
        d_top = (-(coeffs[0] // p) * self._inv_unit0(big)) % big
        eis = self.eisenstein
        if self.e == 2:
            return coeffs[1] + d_top * eis[1], d_top
        return tuple([coeffs[i] + d_top * eis[i] for i in range(1, self.e)]) + (d_top,)

    def _pow_coeffs(self, a, k, m):
        """a^k for k >= 1 on coefficient tuples, every coefficient reduced
        mod m after each product.  m = moduli(prec)[0] is a multiple of
        every coefficient modulus at prec, so the result is exact there."""
        e, eis = self.e, self.eisenstein
        if e == 1:
            return (pow(a[0], k, m),)
        if e == 2:
            # (x0 + x1 pi)(y0 + y1 pi) with pi^2 = -E1 pi - E0, inlined:
            # one _mul_coeffs call per product costs ~10% of a Witt op
            e0, e1 = eis[0], eis[1]
            x0, x1 = a
            r0 = r1 = None
            while True:
                if k & 1:
                    if r0 is None:
                        r0, r1 = x0, x1
                    else:
                        t = r1 * x1
                        r0, r1 = (r0 * x0 - t * e0) % m, (r0 * x1 + r1 * x0 - t * e1) % m
                k >>= 1
                if not k:
                    return r0, r1
                t = x1 * x1
                x0, x1 = (x0 * x0 - t * e0) % m, (2 * x0 * x1 - t * e1) % m
        result = None
        while True:
            if k & 1:
                result = a if result is None else tuple(
                    [c % m for c in _mul_coeffs(result, a, eis)])
            k >>= 1
            if not k:
                return result
            a = tuple([c % m for c in _mul_coeffs(a, a, eis)])

    # -- element constructors -------------------------------------------

    def elem(self, coeffs, prec=None):
        return BaseElem(self, coeffs, self.precision if prec is None else prec)

    def from_int(self, n, prec=None):
        return BaseElem(self, (n,) + (0,) * (self.e - 1),
                        self.precision if prec is None else prec)

    def zero(self, prec=None):
        return self.from_int(0, prec)

    def one(self, prec=None):
        return self.from_int(1, prec)

    def pi(self, prec=None):
        return self.elem(self._pi_coeffs, prec)

    # -- ring-adapter protocol (shared with IntRing / IntModRing) -------

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, k):
        return a ** k

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a.is_zero()

    def div_pi(self, a):
        return a.div_pi()

    def base_delta(self, a):
        return a.delta()

    def unit_inverse(self, c):
        return c.inverse() if c.is_unit() else None

    def power_bits(self, coeffs):
        # a power's coefficients lie below the moduli at their top precision
        return sum(m.bit_length() for m in self.moduli(max(c.prec for c in coeffs)))

    def int_div_pi(self, n):
        """n/pi for an exact integer n, carried at full precision.

        Unlike div_pi this does not spend a precision digit: the input is
        exact, so the quotient is computed at padded internal precision
        and truncated back to N.
        """
        pad = self.precision + self.e
        a = BaseElem(self, (n,) + (0,) * (self.e - 1), pad)
        return a.div_pi().reduce(self.precision - 1)

    # -- Witt laws on raw coefficients ------------------------------------
    #
    # A vector (a0, a1) carries f = a0^q as the canonical coefficients of
    # a0^q mod pi^(P+1), P = min(a0.prec, N).  A sum reads a0^q mod
    # pi^(prec+1) and a product mod pi^prec, for prec <= P, so f serves
    # both; a0^q mod pi^(P+1) does not depend on a0's representative,
    # since (a0 + pi^P t)^q - a0^q is divisible by q pi^P.  At e = 2 the
    # sum and the product are closed forms on coefficient pairs, with
    # pi^2 = -E1 pi - E0 inlined as in _pow_coeffs; every other e goes
    # through _mul_coeffs.

    def _power_moduli(self, prec):
        """Coefficient moduli of the power carried by an a0 known to prec."""
        # its own memo: calling moduli() on every Witt op was 4.4% slower
        mods = self._power_mods.get(prec)
        if mods is None:
            mods = self.moduli(min(prec, self.precision) + 1)
            self._power_mods[prec] = mods
        return mods

    def _carried_power(self, coeffs, prec):
        mods = self._power_moduli(prec)
        return _reduce(self._pow_coeffs(coeffs, self.q, mods[0]), mods)

    def witt_power(self, a0, a1):
        """The power f a vector (a0, a1) built outside the kernels carries;
        both coordinates must be elements of this ring."""
        for x in (a0, a1):
            if x.__class__ is not BaseElem or (x.spec is not self and not self.same(x.spec)):
                raise SpecMismatch("witt coordinate %r is not in %r" % (x, self))
        return self._carried_power(a0.coeffs, a0.prec)

    def witt_add(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) + (b0, b1) = (a0 + b0, a1 + b1 - C(a0, b0)) in W_1,
        with the sum's power (a0 + b0)^q.

        The carry C(x, y) = ((x+y)^q - x^q - y^q)/pi has the integral
        coefficients binom(q,j)/pi, so it does not depend on the
        representatives: its numerator is taken on the carried powers at
        precision prec+1 and divided by pi exactly, the padding trick of
        int_div_pi.
        """
        prec = min(a0.prec, a1.prec, b0.prec, b1.prec, self.precision)
        m = self.moduli(prec + 1)[0]
        if self.e == 2:
            # on coefficient pairs: the numerator pairwise, then _div_pi
            (x0, x1), (y0, y1) = a0.coeffs, b0.coeffs
            c0 = BaseElem(self, (x0 + y0, x1 + y1),
                          a0.prec if a0.prec <= b0.prec else b0.prec)
            mods = self._power_moduli(c0.prec)
            # q >= 2, so _pow_coeffs has reduced f0 mod mods[0] already
            f0, f1 = self._pow_coeffs(c0.coeffs, self.q, mods[0])
            f1 %= mods[1]
            d0, d1 = self._div_pi(((f0 - fa[0] - fb[0]) % m, (f1 - fa[1] - fb[1]) % m),
                                  prec + 1)
            (u0, u1), (v0, v1) = a1.coeffs, b1.coeffs
            return c0, BaseElem(self, (u0 + v0 - d0, u1 + v1 - d1), prec), (f0, f1)
        c0 = BaseElem(self, [u + v for u, v in zip(a0.coeffs, b0.coeffs)],
                      a0.prec if a0.prec <= b0.prec else b0.prec)
        fc = self._carried_power(c0.coeffs, c0.prec)
        carry = self._div_pi([(u - v - w) % m for u, v, w in zip(fc, fa, fb)], prec + 1)
        c1 = [u + v - w for u, v, w in zip(a1.coeffs, b1.coeffs, carry)]
        return c0, BaseElem(self, c1, prec), fc

    def witt_mul(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + pi a1 b1) in W_1,
        with the product's power a0^q b0^q."""
        prec = min(a0.prec, a1.prec, b0.prec, b1.prec, self.precision)
        eis = self.eisenstein
        u, v = a1.coeffs, b1.coeffs
        if self.e == 2:
            # on coefficient pairs, pi^2 = -E1 pi - E0: the second
            # coordinate is u fb + v w with w = fa + pi u, two products
            e0, e1 = eis[0], eis[1]
            (u0, u1), (v0, v1), (g0, g1), (h0, h1) = u, v, fa, fb
            w0, w1 = g0 - e0 * u1, g1 + u0 - e1 * u1
            t = u1 * h1 + v1 * w1
            c1 = (u0 * h0 + v0 * w0 - t * e0, u0 * h1 + u1 * h0 + v0 * w1 + v1 * w0 - t * e1)
            (x0, x1), (y0, y1) = a0.coeffs, b0.coeffs
            t = x1 * y1
            c0 = BaseElem(self, (x0 * y0 - t * e0, x0 * y1 + x1 * y0 - t * e1),
                          a0.prec if a0.prec <= b0.prec else b0.prec)
            m0, m1 = self._power_moduli(c0.prec)
            t = g1 * h1
            fc = (g0 * h0 - t * e0) % m0, (g0 * h1 + g1 * h0 - t * e1) % m1
            return c0, BaseElem(self, c1, prec), fc
        t1 = _mul_coeffs(u, fb, eis)
        t2 = _mul_coeffs(v, fa, eis)
        t3 = _mul_coeffs(_mul_coeffs(u, v, eis), self._pi_coeffs, eis)
        c0 = BaseElem(self, _mul_coeffs(a0.coeffs, b0.coeffs, eis),
                      a0.prec if a0.prec <= b0.prec else b0.prec)
        fc = _reduce(_mul_coeffs(fa, fb, eis), self._power_moduli(c0.prec))
        return c0, BaseElem(self, [i + j + k for i, j, k in zip(t1, t2, t3)], prec), fc

    def witt_neg(self, a0, a1, f, c):
        """-(a0, a1) = (-a0, -a1 + c a0^q) in W_1, c = (-1 - (-1)^q)/pi,
        with the power (-1)^q f."""
        if self.q & 1:
            f = _reduce([-x for x in f], self._power_moduli(a0.prec))
        return -a0, -a1 + c * self._power_elem(f, a0), f

    def witt_ghost(self, a0, a1, f, pi):
        """Ghost coordinates (a0, a0^q + pi a1), a0^q read off f."""
        return a0, self._power_elem(f, a0) + pi * a1

    def _power_elem(self, f, a0):
        # f is known to min(a0.prec, N) + 1 digits; the ghost map and
        # negation add it to an element known to N digits at most
        return BaseElem(self, f, min(a0.prec, self.precision + 1))

    def to_json(self):
        return {"p": self.p, "eisenstein": list(self.eisenstein),
                "precision": self.precision, "frob_power": self.frob_power}

    @classmethod
    def from_json(cls, data):
        require_type(data, dict, "ring")
        if "p" not in data:
            raise ParseError("ring has no 'p'")
        eisenstein = data.get("eisenstein")
        if eisenstein is not None:
            for c in require_type(eisenstein, list, "ring eisenstein"):
                require_type(c, int, "eisenstein coefficient")
        p, precision, frob_power = (
            require_type(data.get(key, default), int, "ring " + key)
            for key, default in (("p", None), ("precision", 4), ("frob_power", 1)))
        return cls(p, eisenstein, precision, frob_power)

    def same(self, other):
        return (self is other
                or (isinstance(other, BaseRingSpec)
                    and self.p == other.p
                    and self.eisenstein == other.eisenstein
                    and self.precision == other.precision
                    and self.frob_power == other.frob_power))

    def __repr__(self):
        return "BaseRingSpec(p=%d, eisenstein=%s, precision=%d, frob_power=%d)" % (
            self.p, list(self.eisenstein), self.precision, self.frob_power)


class BaseElem:
    """One element, canonical coefficients plus tracked precision."""

    __slots__ = ("spec", "coeffs", "prec")

    def __init__(self, spec, coeffs, prec):
        if prec < 1:
            raise PrecisionExceeded("precision fell below one tracked digit")
        self.spec = spec
        self.prec = prec
        moduli = spec._moduli.get(prec) or spec.moduli(prec)
        n = len(coeffs)
        if n == 1:
            self.coeffs = (coeffs[0] % moduli[0],)
        elif n == 2:
            self.coeffs = (coeffs[0] % moduli[0], coeffs[1] % moduli[1])
        else:
            self.coeffs = tuple(c % m for c, m in zip(coeffs, moduli))

    def _join(self, other):
        if not isinstance(other, BaseElem):
            if isinstance(other, int):
                other = self.spec.from_int(other, self.prec)
            else:
                return None
        elif not self.spec.same(other.spec):
            raise SpecMismatch("operands from different base rings")
        return other

    def __add__(self, other):
        if other.__class__ is not BaseElem or other.spec is not self.spec:
            other = self._join(other)
            if other is None:
                return NotImplemented
        prec = self.prec if self.prec <= other.prec else other.prec
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return BaseElem(self.spec, (a[0] + b[0],), prec)
        if n == 2:
            return BaseElem(self.spec, (a[0] + b[0], a[1] + b[1]), prec)
        return BaseElem(self.spec, tuple(x + y for x, y in zip(a, b)), prec)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not BaseElem or other.spec is not self.spec:
            other = self._join(other)
            if other is None:
                return NotImplemented
        prec = self.prec if self.prec <= other.prec else other.prec
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return BaseElem(self.spec, (a[0] - b[0],), prec)
        if n == 2:
            return BaseElem(self.spec, (a[0] - b[0], a[1] - b[1]), prec)
        return BaseElem(self.spec, tuple(x - y for x, y in zip(a, b)), prec)

    def __rsub__(self, other):
        other = self._join(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return BaseElem(self.spec, tuple(-a for a in self.coeffs), self.prec)

    def __mul__(self, other):
        if other.__class__ is not BaseElem or other.spec is not self.spec:
            other = self._join(other)
            if other is None:
                return NotImplemented
        prec = self.prec if self.prec <= other.prec else other.prec
        return BaseElem(self.spec, _mul_coeffs(self.coeffs, other.coeffs,
                                               self.spec.eisenstein), prec)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        spec = self.spec
        if k == 0:
            return spec.one(self.prec)
        return BaseElem(spec, spec._pow_coeffs(self.coeffs, k, spec.moduli(self.prec)[0]),
                        self.prec)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other, self.prec)
        if not isinstance(other, BaseElem):
            return NotImplemented
        return (self.spec.same(other.spec) and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.prec))

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        return self.coeffs[0] % self.spec.p != 0

    def div_pi(self):
        """Exact quotient by pi; one precision digit is spent."""
        spec = self.spec
        if self.prec - 1 < 1:
            raise PrecisionExceeded("cannot divide by pi at precision 1")
        if self.is_zero():
            return spec.zero(self.prec - 1)
        if self.coeffs[0] % spec.p != 0:
            raise NotDivisible("element has pi-valuation zero")
        return BaseElem(spec, spec._div_pi(self.coeffs, self.prec), self.prec - 1)

    def delta(self):
        """(phi(a) - a^q)/pi with phi the identity coefficient lift."""
        return (self - self ** self.spec.q).div_pi()

    def reduce(self, n):
        """Image in R_n = R/pi^(n+1)."""
        if n + 1 > self.prec:
            raise PrecisionExceeded("cannot refine precision %d to %d" % (self.prec, n + 1))
        if n + 1 == self.prec:
            return self
        return BaseElem(self.spec, self.coeffs, n + 1)

    def residue(self):
        return self.coeffs[0] % self.spec.p

    def inverse(self):
        if not self.is_unit():
            raise NotDivisible("element is not a unit")
        spec = self.spec
        p = spec.p
        x = spec.from_int(pow(self.coeffs[0] % p, -1, p), self.prec)
        two = spec.from_int(2, self.prec)
        # Newton doubles correct pi-digits each round
        steps = max(1, (self.prec - 1).bit_length() + 1)
        for _ in range(steps):
            x = x * (two - self * x)
        return x

    def __repr__(self):
        return "BaseElem(%s, prec=%d)" % (self.text(), self.prec)

    def text(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("pi" if c == 1 else "%d*pi" % c)
            else:
                parts.append("pi^%d" % i if c == 1 else "%d*pi^%d" % (c, i))
        return "+".join(parts) if parts else "0"


class IntRing:
    """Exact integers viewed as a torsion-free Z_p-algebra with pi = p.

    The ghost-map oracle runs here: no truncation, every division by p is
    checked exact.
    """

    __slots__ = ("p", "frob_power", "q")

    precision = None

    def __init__(self, p, frob_power=1):
        require_prime(p, "p")
        require_at_least(frob_power, 1, "frob_power")
        self.p = p
        self.frob_power = frob_power
        self.q = p ** frob_power

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, k):
        return self._power(a, k)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def pi(self):
        return self.p

    def div_pi(self, a):
        if a % self.p != 0:
            raise NotDivisible("%d is not divisible by %d" % (a, self.p))
        return a // self.p

    int_div_pi = div_pi

    def _power(self, a, k):
        """a^k exactly.  k * bit_length(a) bounds its size, and past
        _POWER_BITS bits it is refused as Inconclusive before any work;
        |a| <= 1 always passes."""
        bits = a.bit_length()
        if bits > 1 and k * bits > _POWER_BITS:
            raise Inconclusive(
                "a %d-bit integer to the power %d could have up to %d bits, "
                "past the bound of %d bits on an exact integer power"
                % (bits, k, k * bits, _POWER_BITS), bound=_POWER_BITS)
        return a ** k

    def witt_power(self, a0, a1):
        """The power a0^q a vector (a0, a1) built outside the kernels
        carries; both coordinates must be integers."""
        _require_ints(a0, a1)
        return self._power(a0, self.q)

    def witt_add(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) + (b0, b1) in W_1, carry ((a0+b0)^q - a0^q - b0^q)/p,
        with the sum's power (a0+b0)^q."""
        s = a0 + b0
        fs = self._power(s, self.q)
        return s, a1 + b1 - (fs - fa - fb) // self.p, fs

    def witt_mul(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + p a1 b1) in W_1,
        with the product's power, bounded like any other."""
        c0 = a0 * b0
        return c0, a1 * fb + b1 * fa + self.p * a1 * b1, self._power(c0, self.q)

    def witt_neg(self, a0, a1, f, c):
        """-(a0, a1) = (-a0, -a1 + c a0^q) in W_1, c = (-1 - (-1)^q)/p."""
        return -a0, c * f - a1, -f if self.q & 1 else f

    def witt_ghost(self, a0, a1, f, pi):
        """Ghost coordinates (a0, a0^q + pi a1)."""
        return a0, f + pi * a1

    def base_delta(self, a):
        return self.div_pi(a - self._power(a, self.q))

    def unit_inverse(self, c):
        return c if c in (1, -1) else None

    def power_bits(self, coeffs):
        # each coefficient of (sum c_i m_i)^q is at most (sum |c_i|)^q
        return int(self.q * log2(sum(map(abs, coeffs)))) + 1

    def same(self, other):
        return isinstance(other, IntRing) and self.p == other.p and self.q == other.q

    def __repr__(self):
        return "IntRing(p=%d, q=%d)" % (self.p, self.q)


class IntModRing:
    """Z/p^k with plain int elements; the k = 1 case is the residue field.

    Division by pi is refused: it is not canonical on residues.  The Witt
    structure constants and the Witt carry are integers divided exactly
    *before* reduction, which is what int_div_pi and witt_add do.
    """

    __slots__ = ("p", "k", "n", "frob_power", "q")

    precision = None

    def __init__(self, p, k=1, frob_power=1):
        require_prime(p, "p")
        require_at_least(k, 1, "k")
        require_at_least(frob_power, 1, "frob_power")
        self.p = p
        self.k = k
        self.n = p ** k
        self.frob_power = frob_power
        self.q = p ** frob_power

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def from_int(self, v):
        return v % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def pow(self, a, k):
        return pow(a, k, self.n)

    def eq(self, a, b):
        return a % self.n == b % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def pi(self):
        return self.p % self.n

    def div_pi(self, a):
        raise NotDivisible("division by p is not canonical in Z/p^k")

    def int_div_pi(self, v):
        # v is an exact integer, divided before reduction
        if v % self.p != 0:
            raise NotDivisible("%d is not divisible by %d" % (v, self.p))
        return (v // self.p) % self.n

    def witt_power(self, a0, a1):
        """The power a0^q mod p^(k+1) a vector (a0, a1) built outside the
        kernels carries; both coordinates must be integers."""
        _require_ints(a0, a1)
        return pow(a0, self.q, self.n * self.p)

    def witt_add(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) + (b0, b1) in W_1, with the sum's power mod p^(k+1);
        the carry's numerator is taken mod p^(k+1) and divided by p
        exactly before reducing mod p^k."""
        n, p = self.n, self.p
        big = n * p
        s = a0 + b0
        fs = pow(s, self.q, big)
        return s % n, (a1 + b1 - (fs - fa - fb) % big // p) % n, fs

    def witt_mul(self, a0, a1, fa, b0, b1, fb):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + p a1 b1) in W_1,
        with the product's power mod p^(k+1)."""
        n, p = self.n, self.p
        return ((a0 * b0) % n, (a1 * fb + b1 * fa + p * a1 * b1) % n,
                fa * fb % (n * p))

    def witt_neg(self, a0, a1, f, c):
        """-(a0, a1) = (-a0, -a1 + c a0^q) in W_1, c = (-1 - (-1)^q)/p."""
        n = self.n
        return -a0 % n, (c * f - a1) % n, -f % (n * self.p) if self.q & 1 else f

    def witt_ghost(self, a0, a1, f, pi):
        """Ghost coordinates (a0, a0^q + pi a1)."""
        return a0, (f + pi * a1) % self.n

    def base_delta(self, a):
        raise WfError("base_delta needs a precision-tracked ring")

    def unit_inverse(self, c):
        return pow(c, -1, self.n) if c % self.p else None

    def power_bits(self, coeffs):
        # below n, and at most the same coefficient of the power over Z
        return min(self.n.bit_length(), int(self.q * log2(sum(coeffs))) + 1)

    def same(self, other):
        return isinstance(other, IntModRing) and self.n == other.n and self.q == other.q

    def __repr__(self):
        return "IntModRing(%d^%d)" % (self.p, self.k)
