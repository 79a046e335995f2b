"""Truncated ramified extensions of the p-adic integers.

The base ring is Z_p[x]/(E(x)) for a monic Eisenstein polynomial E, with
pi the class of x, truncated at pi^N.  Elements are stored on the power
basis 1, pi, ..., pi^(e-1); the coefficient of pi^i is canonical modulo
p^ceil((N-i)/e) because pi^e = p * unit.

Every element carries the precision it is known to.  Ring operations
propagate the minimum of the operand precisions; exact division by pi
drops it by one.  That ledger is the whole point: a division that would
leave less than one tracked digit raises instead of silently lying.

The coefficient Frobenius is the identity here (it fixes Z_p and sends
pi to pi); the residue Frobenius x -> x^q with q = p^frob_power is what
all higher layers twist by.

Each ring here also carries the two length-two Witt laws as kernels on
its raw coefficients (witt_add, witt_mul), which wf.witt dispatches to.
"""

from __future__ import annotations

from .bounds import require_at_least, require_prime, require_type
from .errors import NotDivisible, ParseError, PrecisionExceeded, SpecMismatch, WfError


def _vp(n: int, p: int) -> int:
    # p-adic valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
                 "_moduli", "_unit0_inv", "_pi_coeffs")

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
        return tuple(coeffs[i] + d_top * eis[i] for i in range(1, self.e)) + (d_top,)

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

    def frob(self, a):
        # identity: the lift fixes Z_p and sends pi to pi
        return a

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

    def _witt_prec(self, *coords):
        """Tracked precision of a Witt output's second coordinate."""
        prec = self.precision
        for x in coords:
            if x.__class__ is not BaseElem or (x.spec is not self and not self.same(x.spec)):
                raise SpecMismatch("witt coordinate %r is not in %r" % (x, self))
            if x.prec < prec:
                prec = x.prec
        return prec

    def witt_add(self, a0, a1, b0, b1):
        """(a0, a1) + (b0, b1) = (a0 + b0, a1 + b1 - C(a0, b0)) in W_1.

        The carry C(x, y) = ((x+y)^q - x^q - y^q)/pi has the integral
        coefficients binom(q,j)/pi, so it does not depend on the
        representatives: the numerator is computed on the canonical
        coefficients at precision prec+1 and divided by pi exactly, the
        padding trick of int_div_pi.
        """
        prec = self._witt_prec(a0, a1, b0, b1)
        m = self.moduli(prec + 1)[0]
        q = self.q
        x, y = a0.coeffs, b0.coeffs
        s = tuple([u + v for u, v in zip(x, y)])
        num = tuple([(u - v - w) % m for u, v, w in zip(
            self._pow_coeffs(s, q, m), self._pow_coeffs(x, q, m),
            self._pow_coeffs(y, q, m))])
        carry = self._div_pi(num, prec + 1)
        c1 = tuple([u + v - w for u, v, w in zip(a1.coeffs, b1.coeffs, carry)])
        return (BaseElem(self, s, a0.prec if a0.prec <= b0.prec else b0.prec),
                BaseElem(self, c1, prec))

    def witt_mul(self, a0, a1, b0, b1):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + pi a1 b1) in W_1."""
        prec = self._witt_prec(a0, a1, b0, b1)
        m = self.moduli(prec)[0]
        q, eis = self.q, self.eisenstein
        x, y = a0.coeffs, b0.coeffs
        u, v = a1.coeffs, b1.coeffs
        t1 = _mul_coeffs(u, self._pow_coeffs(y, q, m), eis)
        t2 = _mul_coeffs(v, self._pow_coeffs(x, q, m), eis)
        t3 = _mul_coeffs(_mul_coeffs(u, v, eis), self._pi_coeffs, eis)
        return (BaseElem(self, _mul_coeffs(x, y, eis),
                         a0.prec if a0.prec <= b0.prec else b0.prec),
                BaseElem(self, tuple([i + j + k for i, j, k in zip(t1, t2, t3)]), prec))

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
        return a ** k

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

    def witt_add(self, a0, a1, b0, b1):
        """(a0, a1) + (b0, b1) in W_1, carry ((a0+b0)^q - a0^q - b0^q)/p."""
        q = self.q
        s = a0 + b0
        return s, a1 + b1 - (s ** q - a0 ** q - b0 ** q) // self.p

    def witt_mul(self, a0, a1, b0, b1):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + p a1 b1) in W_1."""
        q = self.q
        return a0 * b0, a1 * b0 ** q + b1 * a0 ** q + self.p * a1 * b1

    def base_delta(self, a):
        return self.div_pi(a - a ** self.q)

    def frob(self, a):
        return a

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

    def witt_add(self, a0, a1, b0, b1):
        """(a0, a1) + (b0, b1) in W_1; the carry's numerator is taken
        mod p^(k+1) and divided by p exactly before reducing mod p^k."""
        n, p, q = self.n, self.p, self.q
        big = n * p
        s = a0 + b0
        carry = (pow(s, q, big) - pow(a0, q, big) - pow(b0, q, big)) % big // p
        return s % n, (a1 + b1 - carry) % n

    def witt_mul(self, a0, a1, b0, b1):
        """(a0, a1) * (b0, b1) = (a0 b0, a1 b0^q + b1 a0^q + p a1 b1) in W_1."""
        n, q = self.n, self.q
        return ((a0 * b0) % n,
                (a1 * pow(b0, q, n) + b1 * pow(a0, q, n) + self.p * a1 * b1) % n)

    def base_delta(self, a):
        raise WfError("base_delta needs a precision-tracked ring")

    def frob(self, a):
        return a

    def inv(self, a):
        return pow(a, -1, self.n)

    def same(self, other):
        return isinstance(other, IntModRing) and self.n == other.n and self.q == other.q

    def __repr__(self):
        return "IntModRing(%d^%d)" % (self.p, self.k)
