"""Sparse multivariate polynomials over the supported coefficient rings.

Terms map exponent tuples to coefficients; the canonical order everywhere
is graded lexicographic, largest first.  No Groebner machinery: ideal
reduction is restricted to the two structured shapes the jet pipeline
needs, generators monic in one variable and localization relations
u*v = 1, and refuses anything else rather than guessing.

Normal forms terminate by construction.  The rules are acyclic, so their
head variables have a topological order in which each rule comes before
every rule its right-hand side uses.  Key a monomial by its exponents of
the head variables in that order: rewriting with rule i keeps every
earlier component and lowers component i, and striking u*v only lowers
components, so the key strictly decreases in the lexicographic order of
N^k, a well-order.  Every chain of rewrites is therefore finite, and as
each rewrite yields finitely many terms, so is the whole reduction.
Pending monomials are popped largest key first (Monagan & Pearce's
heap), so a monomial is never produced again once it is popped: it is
rewritten once, with its like terms already merged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add as _plus

from .errors import NotPrepared, ParseError, VariableMismatch, WfError


def term_key(exps):
    # graded lex, for descending sorts
    return (sum(exps), exps)


class MvPoly:
    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring, vars, terms, _clean=True):
        self.ring = ring
        self.vars = tuple(vars)
        if _clean:
            terms = {e: c for e, c in terms.items() if not ring.is_zero(c)}
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ring, vars):
        return cls(ring, vars, {}, _clean=False)

    @classmethod
    def const(cls, ring, vars, c):
        if isinstance(c, int):
            c = ring.from_int(c)
        z = (0,) * len(vars)
        return cls(ring, vars, {z: c})

    @classmethod
    def var(cls, ring, vars, name, power=1):
        vars = tuple(vars)
        if name not in vars:
            raise VariableMismatch("unknown variable %r" % (name,))
        e = tuple(power if v == name else 0 for v in vars)
        return cls(ring, vars, {e: ring.one()}, _clean=False)

    # -- basics ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, MvPoly):
            # an int or a bare coefficient
            return MvPoly.const(self.ring, self.vars, other)
        if self.vars != other.vars:
            raise VariableMismatch("operands over %r and %r" % (self.vars, other.vars))
        return other

    def is_zero(self):
        return not self.terms

    def total_deg(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name):
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: term_key(t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, MvPoly):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.ring.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        r = self.ring
        add, is_zero = r.add, r.is_zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                # both operands store no zeros: only a merged key can cancel
                c = add(out[e], c)
                if is_zero(c):
                    del out[e]
                    continue
            out[e] = c
        return MvPoly(r, self.vars, out, _clean=False)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        r = self.ring
        sub, neg, is_zero = r.sub, r.neg, r.is_zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c = sub(out[e], c)
                if is_zero(c):
                    del out[e]
                    continue
                out[e] = c
            else:
                out[e] = neg(c)
        return MvPoly(r, self.vars, out, _clean=False)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        r = self.ring
        return MvPoly(r, self.vars, {e: r.neg(c) for e, c in self.terms.items()},
                      _clean=False)

    def __mul__(self, other):
        r = self.ring
        if isinstance(other, int):
            other = r.from_int(other)
        if not isinstance(other, MvPoly):
            # scalar multiple
            return MvPoly(r, self.vars,
                          {e: r.mul(c, other) for e, c in self.terms.items()})
        if self.vars != other.vars:
            raise VariableMismatch("operands over %r and %r" % (self.vars, other.vars))
        if len(other.terms) == 1:
            # adding one exponent tuple is injective: no two terms merge
            (e2, c2), = other.terms.items()
            mul, is_zero = r.mul, r.is_zero
            return MvPoly(r, self.vars,
                          {tuple(map(_plus, e1, e2)): c
                           for e1, c1 in self.terms.items()
                           if not is_zero(c := mul(c1, c2))},
                          _clean=False)
        if other is self:
            return self._square()
        mul, add = r.mul, r.add
        items = list(other.terms.items())
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                e = tuple(map(_plus, e1, e2))
                c = mul(c1, c2)
                if e in out:
                    out[e] = add(out[e], c)
                else:
                    out[e] = c
        return MvPoly(r, self.vars, _drop_zeros(out, r.is_zero), _clean=False)

    def _square(self):
        """self * self from the products c_i c_j with i <= j, each cross
        term doubled.  Every exponent tuple first occurs, in row-major
        order, at a pair with i <= j, so the terms keep the general
        product's order, and each coefficient is the same sum over the
        same pairs, so it keeps its value and precision."""
        r = self.ring
        mul, add = r.mul, r.add
        items = list(self.terms.items())
        out = {}
        for i, (e1, c1) in enumerate(items):
            e = tuple(map(_plus, e1, e1))
            c = mul(c1, c1)
            if e in out:
                out[e] = add(out[e], c)
            else:
                out[e] = c
            for e2, c2 in items[i + 1:]:
                e = tuple(map(_plus, e1, e2))
                c = mul(c1, c2)
                c = add(c, c)
                if e in out:
                    out[e] = add(out[e], c)
                else:
                    out[e] = c
        return MvPoly(r, self.vars, _drop_zeros(out, r.is_zero), _clean=False)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise WfError("negative polynomial power")
        if k and len(self.terms) == 1:
            # (c x^e)^k = c^k x^(k e): one ring power, one exponent scaling
            r = self.ring
            (e, c), = self.terms.items()
            c = r.pow(c, k)
            return MvPoly(r, self.vars,
                          {} if r.is_zero(c) else {tuple([a * k for a in e]): c},
                          _clean=False)
        result = MvPoly.const(self.ring, self.vars, self.ring.one())
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square past the top bit: it would never be read
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, name):
        i = self.vars.index(name)
        r = self.ring
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            k = d[i]
            d[i] = k - 1
            d = tuple(d)
            c2 = r.mul(c, r.from_int(k))
            if d in out:
                out[d] = r.add(out[d], c2)
            else:
                out[d] = c2
        return MvPoly(r, self.vars, out)

    def q_power_vars(self, q):
        """Substitute every variable x by x^q (exponents scale by q)."""
        return MvPoly(self.ring, self.vars,
                      {tuple(a * q for a in e): c for e, c in self.terms.items()},
                      _clean=False)

    # -- substitution -------------------------------------------------------

    def subst(self, mapping, ring, vars):
        """Substitute every variable; the images live over (ring, vars).

        mapping maps variable names to MvPoly over that space.  Any
        variable of self that actually occurs must be covered by mapping.
        The terms of self are taken largest first; each term's image, the
        product of the powers of its variables' images, is merged into
        one running sum as __add__ merges, a key deleted where it cancels.
        """
        vars = tuple(vars)
        if any(val.vars != vars for val in mapping.values()):
            raise VariableMismatch("substitution images over mixed spaces")
        add, is_zero = ring.add, ring.is_zero
        out = {}
        for e, c in self.sorted_terms():
            term = MvPoly.const(ring, vars, self._convert_coeff(c, ring))
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                if name not in mapping:
                    raise VariableMismatch("no image for variable %r" % (name,))
                term = term * (mapping[name] ** k)
            for e2, c2 in term.terms.items():
                if e2 in out:
                    c2 = add(out[e2], c2)
                    if is_zero(c2):
                        del out[e2]
                        continue
                out[e2] = c2
        return MvPoly(ring, vars, out, _clean=False)

    def _convert_coeff(self, c, ring):
        if ring is self.ring or ring.same(self.ring):
            return c
        raise WfError("cannot move coefficients between unrelated rings")

    def evaluate(self, point):
        """Evaluate at a dict of ring elements; returns a ring element."""
        r = self.ring
        acc = r.zero()
        for e, c in self.sorted_terms():
            val = c
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                val = r.mul(val, r.pow(point[name], k))
            acc = r.add(acc, val)
        return acc

    def map_coeffs(self, fn, ring):
        out = {}
        for e, c in self.terms.items():
            out[e] = fn(c)
        return MvPoly(ring, self.vars, out)

    def extend_vars(self, vars):
        """Reinterpret over a superset variable tuple."""
        vars = tuple(vars)
        idx = []
        for v in self.vars:
            if v not in vars:
                raise VariableMismatch("variable %r missing from extension" % (v,))
            idx.append(vars.index(v))
        n = len(vars)
        out = {}
        for e, c in self.terms.items():
            d = [0] * n
            for i, k in zip(idx, e):
                d[i] = k
            out[tuple(d)] = c
        return MvPoly(self.ring, vars, out, _clean=False)

    # -- text ---------------------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = []
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                mono.append(name if k == 1 else "%s^%d" % (name, k))
            ctext = _coeff_text(c)
            if mono and ctext == "1":
                body = "*".join(mono)
            elif mono and ctext == "-1":
                body = "-%s" % ("*".join(mono),)
            elif mono:
                body = "%s*%s" % (ctext, "*".join(mono))
            else:
                body = ctext
            pieces.append(body)
        text = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return "MvPoly(%s)" % (self.to_text(),)


def _drop_zeros(terms, is_zero):
    """Delete the zero coefficients of terms in place, keeping the order
    of the rest; returns terms."""
    for e in [e for e, c in terms.items() if is_zero(c)]:
        del terms[e]
    return terms


def _coeff_text(c):
    if isinstance(c, int):
        return str(c)
    text = c.text()
    if "+" in text or ("*" in text):
        return "(%s)" % (text,)
    return text


# -- parser -----------------------------------------------------------------

_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_BODY = _WORD_START | set("0123456789")


class _Parser:
    def __init__(self, text, ring, vars):
        self.text = text
        self.ring = ring
        self.vars = tuple(vars)
        self.pos = 0

    def error(self, message):
        raise ParseError("%s at position %d" % (message, self.pos), self.pos)

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self):
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def take_word(self):
        self.skip()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _WORD_START:
            self.error("expected a name")
        while self.pos < len(self.text) and self.text[self.pos] in _WORD_BODY:
            self.pos += 1
        return self.text[start:self.pos]

    def parse(self):
        value = self.expr()
        self.skip()
        if self.pos != len(self.text):
            self.error("trailing input")
        return value

    def expr(self):
        sign = 1
        ch = self.peek()
        if ch == "+" or ch == "-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
        elif ch.isdigit():
            value = MvPoly.const(self.ring, self.vars, self.take_int())
        elif ch in _WORD_START:
            word = self.take_word()
            if word == "pi":
                value = MvPoly.const(self.ring, self.vars, self.ring.pi())
            elif word in self.vars:
                value = MvPoly.var(self.ring, self.vars, word)
            else:
                self.pos -= len(word)
                self.error("unknown name %r" % (word,))
        else:
            self.error("expected a factor")
        if self.peek() == "^":
            self.pos += 1
            value = value ** self.take_int()
        return value


def parse_poly(text, ring, vars):
    """Parse the term grammar: c*x1^2*x2 with integer or pi coefficients."""
    if not isinstance(text, str):
        raise ParseError("expected polynomial text, got %r" % (text,))
    return _Parser(text, ring, vars).parse()


# -- structured ideal reduction ----------------------------------------------


class ReductionContext:
    """Normal forms modulo generators monic in one variable plus u*v = 1.

    relations: polynomials, each of which must be monic (unit constant
    leading coefficient) in some variable, all its other terms of lower
    degree in that variable.  loc_pairs: (companion, base) variable pairs
    with companion*base = 1.  Anything outside this fragment raises
    NotPrepared at construction, never a wrong answer later.  Every normal
    form terminates: each rewrite strictly lowers the monomial's key, the
    rule-variable exponents in topological order, in a well-order (see
    the module docstring).

    avoid: variable names not to orient rules on when another choice
    exists.  A rule headed by an inverted variable breaks canonicity of
    the normal form (u * rhs and the struck power are distinct normal
    forms of one element), so localized presentations pass their
    inverted variables here.
    """

    __slots__ = ("ring", "vars", "monic_rules", "loc_pairs", "_loc_index",
                 "_rules", "_order")

    def __init__(self, ring, vars, relations=(), loc_pairs=(), avoid=()):
        self.ring = ring
        self.vars = tuple(vars)
        self.loc_pairs = tuple((u, v) for u, v in loc_pairs)
        for u, v in self.loc_pairs:
            if u not in self.vars or v not in self.vars:
                raise NotPrepared("localization pair outside the variable tuple")
        self._loc_index = tuple((self.vars.index(u), self.vars.index(v))
                                for u, v in self.loc_pairs)
        avoid = frozenset(avoid)
        rules = {}
        for g in relations:
            name, deg, rhs = self._classify(g, avoid)
            if name in rules:
                raise NotPrepared("two generators monic in the same variable %r" % (name,))
            rules[name] = (deg, rhs)
        self.monic_rules = rules
        # (head index, degree, rhs terms), tried first to last
        self._rules = tuple((self.vars.index(name), deg, tuple(rhs.terms.items()))
                            for name, (deg, rhs) in rules.items())
        self._order = self._check_acyclic()

    def _classify(self, g, avoid=frozenset()):
        if g.vars != self.vars:
            g = g.extend_vars(self.vars)
        r = self.ring
        fallback = None
        for i, name in enumerate(self.vars):
            d = max((e[i] for e in g.terms), default=0)
            if d == 0:
                continue
            # leading coefficient in this variable must be a unit constant
            lead = {e: c for e, c in g.terms.items() if e[i] == d}
            if len(lead) != 1:
                continue
            (le, lc), = lead.items()
            if sum(le) != d:
                continue  # leading term must be the bare power of the variable
            inv = r.unit_inverse(lc)
            if inv is None:
                continue
            rest = {}
            ok = True
            for e, c in g.terms.items():
                if e == le:
                    continue
                if e[i] >= d:
                    ok = False
                    break
                rest[e] = r.neg(r.mul(c, inv))
            if ok:
                if name not in avoid:
                    return name, d, MvPoly(r, self.vars, rest)
                if fallback is None:
                    fallback = (name, d, MvPoly(r, self.vars, rest))
        if fallback is not None:
            return fallback
        raise NotPrepared("generator %s is not monic in any variable" % (g.to_text(),))

    def _check_acyclic(self):
        """Head-variable indices with each rule before every rule its
        right-hand side uses.  A rule variable may appear in its own
        right-hand side at lower degree, but distinct rules feeding each
        other are refused."""
        deps = {name: [other for other in self.monic_rules
                       if other != name and rhs.degree_in(other) > 0]
                for name, (_, rhs) in self.monic_rules.items()}
        seen = {}
        finished = []

        def visit(n):
            state = seen.get(n)
            if state == 1:
                raise NotPrepared("monic rewrite rules form a cycle at %r" % (n,))
            if state == 2:
                return
            seen[n] = 1
            for m in deps[n]:
                visit(m)
            seen[n] = 2
            finished.append(n)

        for n in deps:
            visit(n)
        return tuple(self.vars.index(n) for n in reversed(finished))

    def normal_form(self, f):
        if f.vars != self.vars:
            f = f.extend_vars(self.vars)
        r = self.ring
        is_zero, add, mul = r.is_zero, r.add, r.mul
        full = r.precision
        rules, order, loc = self._rules, self._order, self._loc_index
        out = {}
        # monomials some rule rewrites: merged coefficients, and a heap of
        # (negated key, exponents, first matching rule), largest key first
        pending = {}
        heap = []
        batch = f.terms.items()
        while True:
            for e, c in batch:
                # strike companion pairs
                struck = None
                for iu, iv in loc:
                    t = min(e[iu], e[iv])
                    if t:
                        struck = list(e) if struck is None else struck
                        struck[iu] -= t
                        struck[iv] -= t
                if struck is not None:
                    e = tuple(struck)
                for rule in rules:
                    if e[rule[0]] >= rule[1]:
                        if e in pending:
                            pending[e] = add(pending[e], c)
                        else:
                            pending[e] = c
                            heappush(heap, (tuple([-e[i] for i in order]), e, rule))
                        break
                else:
                    if e in out:
                        out[e] = add(out[e], c)
                    else:
                        out[e] = c
            if not heap:
                return MvPoly(r, self.vars, _drop_zeros(out, is_zero),
                              _clean=False)
            _, e, (i, deg, rhs) = heappop(heap)
            c = pending.pop(e)
            # a zero known only below full precision still lowers the
            # precision of every term its rewrite is merged into
            if is_zero(c) and (full is None or c.prec >= full):
                batch = ()
                continue
            base = list(e)
            base[i] -= deg
            batch = [(tuple([a + b for a, b in zip(base, e2)]), mul(c, c2))
                     for e2, c2 in rhs]

    def monomials_up_to(self, bound):
        """NF-basis exponent tuples of total degree <= bound, graded lex
        ascending; deterministic.  A variable and its companion are never
        both nonzero in a normal form, so the recursion gives the later of
        the two exponent 0 once the earlier is nonzero."""
        caps = []
        for name in self.vars:
            rule = self.monic_rules.get(name)
            caps.append(min(bound, rule[0] - 1) if rule else bound)
        earlier = [[] for _ in self.vars]
        for iu, iv in self._loc_index:
            earlier[max(iu, iv)].append(min(iu, iv))
        results = []

        def rec(i, left, acc):
            if i == len(self.vars):
                results.append(tuple(acc))
                return
            top = 0 if any(acc[j] for j in earlier[i]) else min(caps[i], left)
            for k in range(top + 1):
                acc.append(k)
                rec(i + 1, left - k, acc)
                acc.pop()

        rec(0, bound, [])
        results.sort(key=term_key)
        return results

    def invertible_vars(self):
        inv = {}
        for u, v in self.loc_pairs:
            inv[u] = v
            inv[v] = u
        return inv

    def try_invert(self, f):
        """Inverse of a unit of the shape c * monomial-in-invertible-vars.

        Returns None when f is not recognizably of that shape; callers
        treat None as 'not certified invertible'.
        """
        nf = self.normal_form(f)
        if len(nf.terms) != 1:
            return None
        (e, c), = nf.terms.items()
        cinv = self.ring.unit_inverse(c)
        if cinv is None:
            return None
        invof = self.invertible_vars()
        exps = [0] * len(self.vars)
        for i, (name, k) in enumerate(zip(self.vars, e)):
            if k == 0:
                continue
            if name not in invof:
                return None
            exps[self.vars.index(invof[name])] = k
        return self.normal_form(MvPoly(self.ring, self.vars, {tuple(exps): cinv}))

