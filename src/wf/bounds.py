"""Closed-form arithmetic: classical group orders and lifting-power bounds.

Everything here is exact big-integer arithmetic, no floating point.  The
quantities are desk-scale consequences of the structure theory behind
Frobenius-power bounds on abelian varieties with extra endomorphisms:
the order of the general symplectic group over a prime field, the
constant e(g, p) built from it, the resulting bound on the power of
Frobenius that descends, an order bound for abelian subgroups, and the
inequality deciding when the infinitesimal Torelli map fails to be
injective in characteristic p.

The divisibility modulus n = p^(2 g e(g, p)) is kept in exponent form,
as the object {"base", "exponent", "decimal": null}, and lcm(1..n) is
reported as a recipe, never expanded:
e(g, p) >= |GSp_2(F_5)| = 480, so n >= 2^960 for every valid query.
The decimal form of n would run to hundreds of digits and the
prime-exponent table of lcm(1..n) could never be enumerated, so the
report keeps both fields as null.
"""

from __future__ import annotations

from .errors import Inconclusive, ParseError, WfError


def is_prime(n):
    """Miller-Rabin to the prime bases up to 37.  False proves n
    composite; True proves n prime only below 2^64, and above it means
    only that no base witnessed compositeness (require_prime refuses
    that verdict)."""
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
    """WfError unless value is a prime integer; name labels the message.
    A value of 2^64 or more that no base proves composite is refused as
    Inconclusive: the test cannot tell it from a strong pseudoprime."""
    if not isinstance(value, int) or not is_prime(value):
        raise WfError("%s must be prime, got %r" % (name, value))
    if value >= 2 ** 64:
        raise Inconclusive("%s = %d passes Miller-Rabin to the prime bases "
                           "up to 37, which proves primality only below 2^64"
                           % (name, value), bound=2 ** 64)


def require_at_least(value, floor, name):
    """WfError unless value is an integer >= floor."""
    if not isinstance(value, int) or value < floor:
        raise WfError("%s must be an integer >= %d, got %r" % (name, floor, value))


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def require_type(value, kind, name):
    """value if it is a kind (a bool is never an integer); ParseError
    otherwise, as for any other malformed document."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError("%s must be %s, got %r" % (name, _KINDS[kind], value))
    return value


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
    r_bound = 2 g e(g,p) d steps, and its size divides n = p^(2 g e(g,p)),
    given in exponent form with a null "decimal" (n >= 2^960).

    r_bound scales with the field-of-moduli degree d; the divisibility
    modulus n does not, so the pair is not redundant.
    """
    require_at_least(d, 1, "d")
    e = e_const(g, p)
    return 2 * g * e * d, {"base": p, "exponent": 2 * g * e, "decimal": None}


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


def lcm_recipe(g, p):
    """The report's symbolic form of lcm(1..n) for n = p^(2 g e(g,p)):
    the definition and n in exponent form.  n >= 2^960, so its prime
    exponent table is out of reach and "factor_exponents" is null."""
    _, n = frob_power_bound(g, p, 1)
    return {"definition": "lcm(1..n)", "n": n,
            "factor_exponents": None}


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
        "n": n,
        "n_note": ("r_bound scales with the degree d; "
                   "the divisibility modulus n does not"),
        "abelian_subgroup_bound": abelian_subgroup_bound(g, l),
        "m": lcm_recipe(g, p),
    }
    if g >= 2:
        noninj, h1_curve, h1_ab = torelli_noninjective(g, p)
        report["torelli"] = {"applicable": True, "noninjective": noninj,
                             "h1_curve": h1_curve, "h1_ab": h1_ab}
    else:
        report["torelli"] = {"applicable": False,
                             "reason": "the criterion needs genus at least 2"}
    return report
