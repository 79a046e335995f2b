"""First jet spaces of glued presentations and their linearizations.

The jet space of one chart adjoins a jet variable per coordinate
(companions included) and imposes the prolonged relations next to the
original ones; `wf jet` prints it.  The lift solver needs only
delta(g) mod pi, an affine function of the jets, and reads it in closed
form without prolonging: the constant part is (g(X^q) - g^q)/pi and the
Jacobian row is scheme.twisted_partials, the partials of g with
exponents q-scaled (Buium, Arithmetic Differential Equations, ch. 2).
The constant is read mod pi, so its numerator is needed mod pi^2 only:
it is computed in the chart's precision-2 clone, normal-formed after
every product.  That gives the same residue because the quotient over R/pi^2 is flat
(free on the normal-form monomials) and the residue normal form is
canonical; see _lift_constant.

On a localized chart the jet of the companion u = 1/v is not free: the
prolonged relation u^q dv + v^q du + pi du dv = 0 determines du, and
since pi is nilpotent at finite precision the solution is an honest
polynomial in u and dv.  substitute_companion_jets puts it in place of
du.  Mod pi it is du = -u^(2q) dv, the companion rule of wf.scheme, and
collapse_companion_jets folds linear rows through scheme.fold_companions.

The étale base-change check (etale_basechange_check) prolongs each chart
pullback once, companion jets substituted, and at random points of the
relation-free charts pushes random source jets forward and solves them
back by Newton iteration; an étale map must return the jets it sent.
"""

from __future__ import annotations

from .delta import DeltaContext, jet_name
from .errors import NotEtale
from .poly import MvPoly
from .scheme import (Presentation, fold_companions, relative_jacobian_unit,
                     twisted_partials)


class JetPresentation:
    """Chart of the jet space: doubled variables, prolonged relations."""

    __slots__ = ("pres", "dctx", "generators")

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.dctx = DeltaContext(pres.ring, pres.all_vars)
        gens = [g.extend_vars(self.dctx.all_vars) for g in pres.generators()]
        self.generators = tuple(gens + [self.dctx.prolong(g) for g in gens])

    @property
    def all_vars(self):
        return self.dctx.all_vars

    def to_json(self):
        return {"chart": self.pres.name,
                "vars": list(self.pres.all_vars),
                "jet_vars": list(self.dctx.jet_vars),
                "generators": [g.to_text() for g in self.generators]}


# -- linearization mod pi -----------------------------------------------------


class LinearRow:
    """delta(g) = const + sum_v jac[v] * (jet of v), taken mod pi."""

    __slots__ = ("const", "jac")

    def __init__(self, const, jac):
        self.const = const
        self.jac = jac  # base-or-companion variable name -> residue poly


def linearize_generator(pres: Presentation, g: MvPoly) -> LinearRow:
    """delta(g) mod pi in closed form, without prolonging g.

    With every jet zero the lift is X -> X^q, so the constant part is
    (g(X^q) - g^q)/pi (the coefficient Frobenius is the identity), taken
    in normal form and computed in the chart mod pi^2 (_lift_constant);
    the Jacobian is twisted_partials, raw until collapse_companion_jets
    folds it.
    """
    return LinearRow(_lift_constant(pres, g), twisted_partials(pres, g))


def _lift_constant(pres: Presentation, g: MvPoly) -> MvPoly:
    """nf((g(X^q) - g^q)/pi mod pi), reducing as it goes.

    Only the numerator mod pi^2 is read, so it is computed in the chart's
    precision-2 clone: A = nf_R(g(X^q)), and B = nf_R(g^q) by
    square-and-multiply with nf_R after every product.  For g in the
    ideal B is 0 after the first normal form, so g^q is never expanded.
    The rules over R/pi^2 are monic in distinct variables, so the
    quotient is free on the normal-form monomials, hence flat, and its
    normal form is canonical mod pi as well.  So A - B vanishes mod pi,
    and (A - B)/pi = (g(X^q) - g^q)/pi modulo (ideal, pi); the residue
    normal form is canonical, so both give the same constant.
    """
    pres2 = pres.mod_pi2()
    ring2 = pres2.ring
    g = g.map_coeffs(lambda c: ring2.elem(c.coeffs, min(c.prec, 2)), ring2)
    a = pres2.nf_R(g.q_power_vars(pres.q))
    b = _power_nf(pres2, g, pres.q)
    return pres.nf(pres.to_res((a - b).map_coeffs(ring2.div_pi, ring2)))


def _power_nf(pres: Presentation, f: MvPoly, k: int) -> MvPoly:
    """nf_R(f^k) for k >= 1 by square-and-multiply, normal-forming every
    product; zero as soon as a square is."""
    base = pres.nf_R(f)
    result = None
    while True:
        if k & 1:
            result = base if result is None else pres.nf_R(result * base)
        k >>= 1
        if not k:
            return result
        if base.is_zero():
            return base
        base = pres.nf_R(base * base)


def linearize_mod_pi(pres: Presentation):
    """Linear rows for every relation and companion product of the chart.
    wf.di builds its conditions one polynomial at a time and does not
    call this."""
    return tuple(linearize_generator(pres, g) for g in pres.generators())


def collapse_companion_jets(pres: Presentation, row: LinearRow) -> LinearRow:
    """Eliminate companion jets via du = -u^(2q) dv (mod pi); each folded
    Jacobian entry is normal-formed once, vanishing ones are dropped."""
    return LinearRow(row.const, fold_companions(pres, row.jac))


# -- the étale base-change check ----------------------------------------------


def substitute_companion_jets(pres: Presentation, dctx: DeltaContext, f: MvPoly) -> MvPoly:
    """Rewrite each companion jet du in f, over dctx.all_vars, as a
    polynomial in u and the jet dv of its base variable, exact at
    precision N.

    From u^q dv + v^q du + pi du dv = 0 and u v = 1:
    du = -u^(2q) dv * sum_{k<N} (-pi u^q dv)^k, the geometric series being
    finite because pi^N = 0 at the working precision.  No power is 0 early:
    the coefficient of (-pi u^q dv)^k is +-pi^k, nonzero for k < N.
    """
    ring, vars = pres.ring, dctx.all_vars
    mapping = {name: MvPoly.var(ring, vars, name) for name in vars}
    for u, v in pres.loc_pairs:
        vdot = MvPoly.var(ring, vars, jet_name(v))
        t = MvPoly.const(ring, vars, ring.pi()) * MvPoly.var(ring, vars, u, pres.q) * vdot
        geom = MvPoly.const(ring, vars, 1)
        power = MvPoly.const(ring, vars, 1)
        for _ in range(1, ring.precision):
            power = -(power * t)
            geom = geom + power
        mapping[jet_name(u)] = -(MvPoly.var(ring, vars, u, 2 * pres.q) * vdot * geom)
    return f.subst(mapping, ring=ring, vars=vars)


def random_elem(ring, rng, unit=False):
    """Uniform element of the truncated base ring; a unit if requested."""
    moduli = ring.moduli(ring.precision)
    coeffs = [rng.randrange(m) for m in moduli]
    if unit and coeffs[0] % ring.p == 0:
        coeffs[0] += 1  # p divides every modulus, so this stays in range
    return ring.elem(coeffs)


def _solve_unit_system(mat, rhs):
    """Solve mat * x = rhs over the base ring; pivots must be units."""
    n = len(rhs)
    m = [row[:] for row in mat]
    b = rhs[:]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col].is_unit():
                piv = r
                break
        if piv is None:
            raise NotEtale("induced jet system is singular at the sample point")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            b[col], b[piv] = b[piv], b[col]
        inv = m[col][col].inverse()
        for r in range(n):
            if r == col:
                continue
            f = m[r][col] * inv
            if f.is_zero():
                continue
            for c2 in range(col, n):
                m[r][c2] = m[r][c2] - f * m[col][c2]
            b[r] = b[r] - f * b[col]
    return [b[r] * m[r][r].inverse() for r in range(n)]


def etale_basechange_check(morphism, rng):
    """Certify jets pull back bijectively along an étale morphism.

    Symbolic certificate first (unit twisted Jacobian per chart), then a
    numeric round trip at three random points of every relation-free
    chart.  Per chart, delta(pullback(t)) with companion jets substituted
    and its partials in the source jets are built once.  At each point
    random source jets are pushed forward and solved back by Newton
    iteration with unit pivots; NotEtale on a singular step or when the
    sent jets are not recovered.  Recovery is read at the precision the
    forward values carry: the prolongation's one division by pi spends a
    pi-digit, so an exact match would also compare precisions.
    """
    for i in range(len(morphism.charts)):
        relative_jacobian_unit(morphism, i)
    for i, chart in enumerate(morphism.charts):
        src = morphism.source.patches[i]
        if src.relations:
            continue
        ring = src.ring
        dctx = DeltaContext(ring, src.all_vars)
        jets = [jet_name(x) for x in src.vars]
        system = []
        for t in morphism.target_patch(i).vars:
            dimg = substitute_companion_jets(src, dctx, dctx.prolong(chart.pullback[t]))
            system.append((dimg, [dimg.partial(j) for j in jets]))
        for _ in range(3):
            env = {name: ring.zero() for name in dctx.all_vars}
            for x in src.vars:
                env[x] = random_elem(ring, rng, unit=(x in src.inverted))
            for u, v in src.loc_pairs:
                env[u] = env[v].inverse()
            sent = {j: random_elem(ring, rng) for j in jets}
            forward = [g.evaluate({**env, **sent}) for g, _ in system]
            for _ in range(ring.precision + 2):
                residuals = [g.evaluate(env) - f for (g, _), f in zip(system, forward)]
                if all(r.is_zero() for r in residuals):
                    break
                step = _solve_unit_system(
                    [[d.evaluate(env) for d in partials] for _, partials in system],
                    residuals)
                for j, s in zip(jets, step):
                    env[j] = env[j] - s
            else:
                raise NotEtale("induced jet iteration did not converge")
            if not all((env[j] - sent[j]).is_zero() for j in jets):
                raise NotEtale(
                    "jet round trip failed at a sample point of chart %d" % (i,))
    return True
