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
prolong(f) + base_delta(c) + c_pi(f, c), precision included.

Everything here runs over either exact integers (the Fermat-quotient
oracle lives there) or a tracked-precision base ring, where the divisions
spend one pi-digit each.
"""

from __future__ import annotations

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

    # -- small constructors ------------------------------------------------

    def poly(self, f: MvPoly) -> MvPoly:
        """View a polynomial in the base variables inside the jet space."""
        return f.extend_vars(self.all_vars)

    def jet_var(self, name: str) -> MvPoly:
        return MvPoly.var(self.ring, self.all_vars, jet_name(name))

    # -- the three rules ----------------------------------------------------

    def c_pi(self, a: MvPoly, b: MvPoly) -> MvPoly:
        """(a^q + b^q - (a+b)^q)/pi, coefficientwise exact division."""
        q = self.q
        num = a ** q + b ** q - (a + b) ** q
        return num.map_coeffs(self.ring.div_pi, self.ring)

    def prolong(self, f: MvPoly) -> MvPoly:
        """delta(f) as a polynomial in the variables and their jets."""
        if f.vars != self.all_vars:
            f = f.extend_vars(self.all_vars)
        n = len(self.vars)
        if any(any(e[n:]) for e in f.terms):
            raise WfError("prolong input already mentions jet variables")
        terms = f.sorted_terms()
        if not terms:
            return MvPoly.zero(self.ring, self.all_vars)
        memo = {}
        acc_val = None
        acc_del = None
        for e, c in terms:
            t_val = MvPoly(self.ring, self.all_vars, {e: c})
            t_del = self._delta_term(e, c, memo)
            if acc_val is None:
                acc_val, acc_del = t_val, t_del
            else:
                acc_del = acc_del + t_del + self.c_pi(acc_val, t_val)
                acc_val = acc_val + t_val
        return acc_del

    def _delta_term(self, e, c, memo):
        # delta(c * m) = c^q delta(m) + m^q delta(c) + pi delta(c) delta(m)
        r = self.ring
        dm = self._delta_mono(e, memo)
        dc = r.base_delta(c)
        cq = r.pow(c, self.q)
        out = dm * cq
        if not r.is_zero(dc):
            mq = MvPoly(r, self.all_vars, {tuple(a * self.q for a in e): r.one()},
                        _clean=False)
            out = out + mq * dc + (dm * dc) * self._pi_const
        return out

    def _delta_mono(self, e, memo):
        got = memo.get(e)
        if got is not None:
            return got
        total = sum(e)
        r = self.ring
        if total == 0:
            result = MvPoly.zero(r, self.all_vars)
        elif total == 1:
            i = e.index(1)
            result = self.jet_var(self.all_vars[i])
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
            du = self._delta_mono(u, memo)
            dv = self._delta_mono(v, memo)
            uq = MvPoly(r, self.all_vars, {tuple(a * self.q for a in u): r.one()},
                        _clean=False)
            vq = MvPoly(r, self.all_vars, {tuple(a * self.q for a in v): r.one()},
                        _clean=False)
            result = uq * dv + vq * du + (du * dv) * self._pi_const
        memo[e] = result
        return result

    # -- lift descriptors -----------------------------------------------------

    def lift_from_delta(self, assignment):
        """phi(x) = x^q + pi * delta(x) from a delta-value table.

        assignment maps variable names to polynomials in the base
        variables; the result maps each variable to its phi image.
        """
        out = {}
        for name in self.vars:
            if name not in assignment:
                raise WfError("no delta value for variable %r" % (name,))
            dval = assignment[name]
            if dval.vars != self.vars:
                dval = dval.extend_vars(self.vars)
            xq = MvPoly.var(self.ring, self.vars, name, self.q)
            out[name] = xq + dval * self._pi_const
        return out

    def delta_from_lift(self, phi):
        """Invert lift_from_delta; NotDivisible flags a non-lift.

        Each coefficient division is exact only when phi(x) = x^q mod pi,
        which is exactly the Frobenius-lift condition.
        """
        out = {}
        for name in self.vars:
            if name not in phi:
                raise WfError("no phi image for variable %r" % (name,))
            img = phi[name]
            if img.vars != self.vars:
                img = img.extend_vars(self.vars)
            xq = MvPoly.var(self.ring, self.vars, name, self.q)
            out[name] = (img - xq).map_coeffs(self.ring.div_pi, self.ring)
        return out
