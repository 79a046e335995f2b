"""Prolongation calculus for pi-derivations on polynomial coordinates.

A pi-derivation delta is determined on generators; prolong extends it to
every polynomial through three rules applied to one monomial at a time,
left fold over the canonical (graded lex, largest first) term order:

    delta(x_i)   = x_i'                       (fresh jet variable)
    delta(c)     = base delta of the coefficient
    delta(u + v) = delta(u) + delta(v) + C_pi(u, v)
    delta(u v)   = u^q delta(v) + v^q delta(u) + pi delta(u) delta(v)

with C_pi(a, b) = (a^q + b^q - (a+b)^q)/pi, an exact division because the
binomial coefficients below q are divisible by p.  Folding the constant
term last makes prolong(f + c) literally equal
prolong(f) + base_delta(c) + c_pi(f, c), precision included.  The fold
carries acc^q: one step's (acc + t)^q is the next step's acc^q.

Everything here runs over either exact integers (the Fermat-quotient
oracle lives there) or a tracked-precision base ring, where the divisions
spend one pi-digit each.
"""

from __future__ import annotations

from math import comb

from .errors import WfError
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

    # -- the three rules ----------------------------------------------------

    def c_pi(self, a: MvPoly, b: MvPoly) -> MvPoly:
        """(a^q + b^q - (a+b)^q)/pi, coefficientwise exact division."""
        return self._c_pi_q(a ** self.q, b ** self.q, (a + b) ** self.q)

    def _c_pi_q(self, aq, bq, sq):
        return (aq + bq - sq).map_coeffs(self.ring.div_pi, self.ring)

    def prolong(self, f: MvPoly) -> MvPoly:
        """delta(f) as a polynomial in the variables and their jets; each
        fold step keeps (acc + t)^q as the next step's acc^q."""
        if f.vars != self.all_vars:
            f = f.extend_vars(self.all_vars)
        n = len(self.vars)
        if any(any(e[n:]) for e in f.terms):
            raise WfError("prolong input already mentions jet variables")
        terms = f.sorted_terms()
        if not terms:
            return MvPoly.zero(self.ring, self.all_vars)
        acc_val = acc_del = acc_q = None
        for e, c in terms:
            t_val = MvPoly(self.ring, self.all_vars, {e: c})
            t_del = self._delta_term(e, c)
            if acc_val is None:
                acc_val, acc_del = t_val, t_del
                continue
            if acc_q is None:
                acc_q = acc_val ** self.q
            acc_val = acc_val + t_val
            s_q = acc_val ** self.q
            acc_del = acc_del + t_del + self._c_pi_q(acc_q, t_val ** self.q, s_q)
            acc_q = s_q
        return acc_del

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
