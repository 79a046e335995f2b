"""Closed-form arithmetic: classical group orders and lifting-power bounds.

Everything here is exact big-integer arithmetic, no floating point.  The
quantities are desk-scale consequences of the structure theory behind
Frobenius-power bounds on abelian varieties with extra endomorphisms:
the order of the general symplectic group over a prime field, the
constant e(g, p) built from it, the resulting bound on the power of
Frobenius that descends, an order bound for abelian subgroups, and the
inequality deciding when the infinitesimal Torelli map fails to be
injective in characteristic p.

A power p^E is kept in exponent form by PrimePower and only expanded
when the decimal expansion is certifiably small; lcm(1..n) is likewise
reported as a recipe with a prime-exponent table only when n is small
enough to enumerate.
"""

from __future__ import annotations

from .errors import WfError

# largest digit count we are willing to expand into decimal
_EXPAND_DIGITS = 64


def is_prime(n):
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for r in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % r == 0:
            return n == r
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(value, name):
    """WfError unless value is a prime integer; name labels the message."""
    if not isinstance(value, int) or not is_prime(value):
        raise WfError("%s must be prime, got %r" % (name, value))


def require_at_least(value, floor, name):
    """WfError unless value is an integer >= floor."""
    if not isinstance(value, int) or value < floor:
        raise WfError("%s must be an integer >= %d, got %r" % (name, floor, value))


class PrimePower:
    """base^exponent held symbolically; expanded only when small.

    The size gate is integer-only: the expansion is allowed when
    exponent * digits(base) stays within _EXPAND_DIGITS, a bound on the
    decimal length of the value.
    """

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent

    def is_small(self):
        return self.exponent * len(str(self.base)) <= _EXPAND_DIGITS

    def value(self):
        if not self.is_small():
            raise WfError("p^%d is too large to expand" % (self.exponent,))
        return self.base ** self.exponent

    def to_json(self):
        data = {"base": self.base, "exponent": self.exponent}
        data["decimal"] = str(self.value()) if self.is_small() else None
        return data

    def __eq__(self, other):
        if not isinstance(other, PrimePower):
            return NotImplemented
        return self.base == other.base and self.exponent == other.exponent

    def __repr__(self):
        return "%d^%d" % (self.base, self.exponent)


def gsp_order(g, l):
    """Order of the general symplectic group of genus g over F_l:
    l^(g^2) * (l - 1) * product of (l^(2i) - 1) for i = 1..g."""
    require_at_least(g, 1, "g")
    require_prime(l, "l")
    order = l ** (g * g) * (l - 1)
    for i in range(1, g + 1):
        order *= l ** (2 * i) - 1
    return order


def e_const(g, p):
    """The auxiliary-level constant: the symplectic group order at level
    5, switched to level 7 when p = 5 so the level stays prime to p."""
    require_at_least(g, 1, "g")
    require_prime(p, "p")
    return gsp_order(g, 7) if p == 5 else gsp_order(g, 5)


def frob_power_bound(g, p, d):
    """(r_bound, n): the power of Frobenius that descends divides into
    r_bound = 2 g e(g,p) d steps, and its size divides n = p^(2 g e(g,p)).

    r_bound scales with the field-of-moduli degree d; the divisibility
    modulus n does not, so the pair is not redundant.
    """
    require_at_least(d, 1, "d")
    e = e_const(g, p)
    return 2 * g * e * d, PrimePower(p, 2 * g * e)


def abelian_subgroup_bound(g, l):
    """Order bound l^(g(2g+1)+1) for abelian l-subgroups of the genus-g
    symplectic group."""
    require_at_least(g, 1, "g")
    require_prime(l, "l")
    return l ** (g * (2 * g + 1) + 1)


def torelli_noninjective(g, p):
    """Whether (2p+1)(g-1) > g^2, with both sides.

    The left side is the dimension of the twisted tangent cohomology of
    a genus-g curve, the right side that of its Jacobian with its
    principal polarization; strict inequality forces a kernel.
    """
    require_at_least(g, 2, "g")
    require_prime(p, "p")
    h1_curve = (2 * p + 1) * (g - 1)
    h1_ab = g * g
    return h1_curve > h1_ab, h1_curve, h1_ab


def lcm_exponent_table(n):
    """Prime-exponent table of lcm(1..n): {r: largest k with r^k <= n}.

    Only for enumerable n; callers gate on size first.
    """
    require_at_least(n, 1, "n")
    if n > 10 ** 6:
        raise WfError("lcm table is only computed for n <= 10^6")
    sieve = bytearray(b"\x01") * (n + 1)
    table = {}
    for r in range(2, n + 1):
        if not sieve[r]:
            continue
        for mult in range(r * r, n + 1, r):
            sieve[mult] = 0
        k = 1
        while r ** (k + 1) <= n:
            k += 1
        table[r] = k
    return table


def lcm_recipe(g, p):
    """Symbolic form of lcm(1..n) for n = p^(2 g e(g,p)).

    The value is astronomically large for every honest input, so the
    report carries the definition and n in exponent form; the exponent
    table is filled in only when n is small enough to enumerate.
    """
    _, n = frob_power_bound(g, p, 1)
    table = None
    if n.is_small() and n.value() <= 10 ** 6:
        table = lcm_exponent_table(n.value())
    return {"definition": "lcm(1..n)", "n": n, "factor_exponents": table}


def bounds_report(g, p, d, l=5):
    """All five quantities for one query, plus the lcm recipe."""
    require_at_least(g, 1, "g")
    require_prime(p, "p")
    require_at_least(d, 1, "d")
    require_prime(l, "l")
    r_bound, n = frob_power_bound(g, p, d)
    report = {
        "g": g,
        "p": p,
        "d": d,
        "l": l,
        "gsp_order": gsp_order(g, l),
        "e": e_const(g, p),
        "r_bound": r_bound,
        "n": n.to_json(),
        "n_note": ("r_bound scales with the degree d; "
                   "the divisibility modulus n does not"),
        "abelian_subgroup_bound": abelian_subgroup_bound(g, l),
        "m": _recipe_json(lcm_recipe(g, p)),
    }
    if g >= 2:
        noninj, h1_curve, h1_ab = torelli_noninjective(g, p)
        report["torelli"] = {"applicable": True, "noninjective": noninj,
                             "h1_curve": h1_curve, "h1_ab": h1_ab}
    else:
        report["torelli"] = {"applicable": False,
                             "reason": "the criterion needs genus at least 2"}
    return report


def _recipe_json(recipe):
    return {"definition": recipe["definition"],
            "n": recipe["n"].to_json(),
            "factor_exponents": recipe["factor_exponents"]}
