"""Prolongation calculus for pi-derivations on polynomial coordinates.

A pi-derivation delta is determined on generators; prolong extends it to
every polynomial through three rules:

    delta(x_i)   = x_i'                       (fresh jet variable)
    delta(c)     = base delta of the coefficient
    delta(u + v) = delta(u) + delta(v) + C_pi(u, v)
    delta(u v)   = u^q delta(v) + v^q delta(u) + pi delta(u) delta(v)

with C_pi(a, b) = (a^q + b^q - (a+b)^q)/pi, an exact division because the
binomial coefficients below q are divisible by p.  By induction on the
sum rule, delta(f) = sum_i delta(t_i) + (sum_i t_i^q - f^q)/pi over the
terms t_i of f, so f^q is the only power of a sum.  Its one exact
division spends one pi-digit, as a C_pi does: on full-precision
coefficients every term keeps the precision the sum rule gives it.
Each prefix of the graded lex (largest first) term order is refused as
Inconclusive, before f^q is computed, when a bound on the size of its
q-th power passes 2^20 bits, the bound on IntRing's exact powers.

Everything here runs over either exact integers (the Fermat-quotient
oracle lives there) or a tracked-precision base ring, where the divisions
spend one pi-digit each.
"""

from __future__ import annotations

from math import comb

from .base_ring import _POWER_BITS
from .errors import Inconclusive, WfError
from .poly import MvPoly

JET_SUFFIX = "_dot"


def jet_name(var: str) -> str:
    return var + JET_SUFFIX


class DeltaContext:
    """Variables plus their jet companions over one coefficient ring."""

    __slots__ = ("ring", "vars", "jet_vars", "all_vars", "q", "_pi_const")

    def __init__(self, ring, vars):
        self.ring = ring
        self.vars = tuple(vars)
        self.jet_vars = tuple(jet_name(v) for v in self.vars)
        clash = set(self.vars) & set(self.jet_vars)
        if clash:
            raise WfError("variable names collide with jet names: %r" % (sorted(clash),))
        self.all_vars = self.vars + self.jet_vars
        self.q = ring.q
        self._pi_const = ring.pi()

    def prolong(self, f: MvPoly) -> MvPoly:
        """delta(f) as a polynomial in the variables and their jets, by
        the closed form above.  Each term's delta, in graded lex order,
        comes before the size check of the prefix it ends, so a refusal
        names the shortest prefix whose q-th power could pass the bound."""
        if f.vars != self.all_vars:
            f = f.extend_vars(self.all_vars)
        n = len(self.vars)
        if any(any(e[n:]) for e in f.terms):
            raise WfError("prolong input already mentions jet variables")
        r, q, all_vars = self.ring, self.q, self.all_vars
        out, prefix = MvPoly.zero(r, all_vars), {}
        for e, c in f.sorted_terms():
            out = out + self._delta_term(e, c)
            prefix[e] = c
            if len(prefix) > 1:
                self._check_power_size(MvPoly(r, all_vars, prefix, _clean=False))
        # sum_i t_i^q: one term each, and e -> q e merges no two of them
        t_q = MvPoly(r, all_vars, {tuple([a * q for a in e]): r.pow(c, q)
                                   for e, c in prefix.items()})
        return out + (t_q - f ** q).map_coeffs(r.div_pi, r)

    def _check_power_size(self, f):
        """Refuse f^q past _POWER_BITS bits, before any work: it has at
        most min(C(q+t-1, t-1), C(q*deg+v, v)) terms, t being f's terms and
        v the variables in f, each of at most the ring's power_bits."""
        q, t = self.q, len(f.terms)
        v = sum(1 for column in zip(*f.terms) if any(column))
        count = min(comb(q + t - 1, t - 1), comb(q * f.total_deg() + v, v))
        bits = count * self.ring.power_bits(f.terms.values())
        if bits > _POWER_BITS:
            raise Inconclusive(
                "the %d-th power of a %d-term sum could have up to %d bits, "
                "past the bound of %d bits on an exact power"
                % (q, t, bits, _POWER_BITS), bound=_POWER_BITS)

    def _delta_term(self, e, c):
        # delta(c * m) = c^q delta(m) + m^q delta(c) + pi delta(c) delta(m)
        r = self.ring
        dm = self._delta_mono(e)
        dc = r.base_delta(c)
        cq = r.pow(c, self.q)
        out = dm * cq
        if not r.is_zero(dc):
            mq = MvPoly(r, self.all_vars, {tuple(a * self.q for a in e): r.one()},
                        _clean=False)
            out = out + mq * dc + (dm * dc) * self._pi_const
        return out

    def _delta_mono(self, e):
        """delta(x^e) = (phi(x)^e - x^(qe))/pi with phi(x) = x^q + pi x',
        expanded: the sum over 0 != k <= e of prod_i binom(e_i, k_i) times
        pi^(|k|-1) x^(q(e-k)) x'^k.  Every coefficient is exact, so each
        carries full precision.  Terms come in the order the product rule
        delta(uv) = u^q delta(v) + v^q delta(u) + pi delta(u) delta(v)
        forms them, peeling variables first to last."""
        r, q, n = self.ring, self.q, len(self.vars)
        zero = (0,) * n
        ks = []  # (k, prod_i binom(e_i, k_i)), rightmost variables first
        for i in reversed(range(n)):
            heads = [(j, comb(e[i], j)) for j in range(1, e[i] + 1)]
            ks += ([(zero[:i] + (j,) + zero[i + 1:], b) for j, b in heads]
                   + [(k[:i] + (j,) + k[i + 1:], b * c)
                      for j, b in heads for k, c in ks])
        terms = {}
        for k, b in ks:
            exps = tuple([q * (a - j) for a, j in zip(e, k)]) + k
            terms[exps] = r.mul(r.from_int(b), r.pow(self._pi_const, sum(k) - 1))
        return MvPoly(r, self.all_vars, terms)
