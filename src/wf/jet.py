"""First jet spaces of glued presentations and their linearizations.

The jet space of one chart adjoins a jet variable per coordinate
(companions included) and imposes the prolonged relations next to the
original ones; `wf jet` prints it and the étale base-change check
solves in it.  The lift solver needs only delta(g) mod pi, an affine
function of the jets, and reads it in closed form without prolonging:
the constant part is (g(X^q) - g^q)/pi and the Jacobian row is
scheme.twisted_partials, the partials of g with exponents q-scaled
(Buium, Arithmetic Differential Equations, ch. 2).

On a localized chart the jet of the companion u = 1/v is not free: the
prolonged relation u^q dv + v^q du + pi du dv = 0 determines du, and
since pi is nilpotent at finite precision the solution is an honest
polynomial in u and dv.  companion_jet_poly builds it; the étale
base-change check substitutes it before solving numerically.  Mod pi it
is du = -u^(2q) dv, the companion rule of wf.scheme, and
collapse_companion_jets folds linear rows through scheme.fold_companions.
"""

from __future__ import annotations

from .delta import DeltaContext, jet_name
from .errors import NotEtale, WfError
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

    def __repr__(self):
        return "JetPresentation(%s, %d generators)" % (self.pres.name,
                                                       len(self.generators))


# -- linearization mod pi -----------------------------------------------------


class LinearRow:
    """delta(g) = const + sum_v jac[v] * (jet of v), taken mod pi."""

    __slots__ = ("const", "jac")

    def __init__(self, const, jac):
        self.const = const
        self.jac = jac  # base-or-companion variable name -> residue poly

    def __repr__(self):
        inner = ", ".join("%s: %s" % (v, g.to_text())
                          for v, g in sorted(self.jac.items()))
        return "LinearRow(%s; %s)" % (self.const.to_text(), inner)


def linearize_generator(pres: Presentation, g: MvPoly) -> LinearRow:
    """delta(g) mod pi in closed form, without prolonging g.

    With every jet zero the lift is X -> X^q, so the constant part is
    (g(X^q) - g^q)/pi (the coefficient Frobenius is the identity), taken
    in normal form; the Jacobian is twisted_partials, raw until
    collapse_companion_jets folds it.
    """
    ring = pres.ring
    lifted = (g.q_power_vars(pres.q) - g ** pres.q).map_coeffs(ring.div_pi, ring)
    return LinearRow(pres.nf(pres.to_res(lifted)), twisted_partials(pres, g))


def linearize_mod_pi(pres: Presentation):
    """Linear rows for every relation and companion product of the chart."""
    return tuple(linearize_generator(pres, g) for g in pres.generators())


def collapse_companion_jets(pres: Presentation, row: LinearRow) -> LinearRow:
    """Eliminate companion jets via du = -u^(2q) dv (mod pi); each folded
    Jacobian entry is normal-formed once, vanishing ones are dropped."""
    return LinearRow(row.const, fold_companions(pres, row.jac))


# -- companion jets at full precision ----------------------------------------


def companion_jet_poly(pres: Presentation, dctx: DeltaContext, u: str, v: str) -> MvPoly:
    """delta(u) as a polynomial in u and the jet of v, exact at precision N.

    From u^q dv + v^q du + pi du dv = 0 and u v = 1:
    du = -u^(2q) dv * sum_{k<N} (-pi u^q dv)^k, the geometric series being
    finite because pi^N = 0 at the working precision.
    """
    ring = pres.ring
    N = ring.precision
    q = pres.q
    vars = dctx.all_vars
    uq = MvPoly.var(ring, vars, u, q)
    vdot = MvPoly.var(ring, vars, jet_name(v))
    t = MvPoly.const(ring, vars, ring.pi()) * uq * vdot
    geom = MvPoly.const(ring, vars, 1)
    power = MvPoly.const(ring, vars, 1)
    for _ in range(1, N):
        power = -(power * t)
        if power.is_zero():
            break
        geom = geom + power
    return -(MvPoly.var(ring, vars, u, 2 * q) * vdot * geom)


def substitute_companion_jets(pres: Presentation, dctx: DeltaContext, f: MvPoly) -> MvPoly:
    """Rewrite companion jet variables through companion_jet_poly."""
    if f.vars != dctx.all_vars:
        f = f.extend_vars(dctx.all_vars)
    mapping = {name: MvPoly.var(pres.ring, dctx.all_vars, name)
               for name in dctx.all_vars}
    for u, v in pres.loc_pairs:
        mapping[jet_name(u)] = companion_jet_poly(pres, dctx, u, v)
    return f.subst(mapping, ring=pres.ring, vars=dctx.all_vars)


# -- sampling and the étale base-change check ---------------------------------


def random_elem(ring, rng, unit=False):
    """Uniform element of the truncated base ring; a unit if requested."""
    moduli = ring.moduli(ring.precision)
    coeffs = [rng.randrange(m) for m in moduli]
    if unit and coeffs[0] % ring.p == 0:
        coeffs[0] += 1  # p divides every modulus, so this stays in range
    return ring.elem(coeffs)


def sample_point(pres: Presentation, rng):
    """Random base-ring point of a relation-free chart, companions set."""
    if pres.relations:
        raise WfError("point sampling is only supported on relation-free charts")
    point = {}
    for v in pres.vars:
        point[v] = random_elem(pres.ring, rng, unit=(v in pres.inverted))
    for u, v in pres.loc_pairs:
        point[u] = point[v].inverse()
    return point


def _solve_unit_system(ring, mat, rhs):
    """Solve mat * x = rhs over the base ring; pivots must be units."""
    n = len(rhs)
    m = [row[:] for row in mat]
    b = rhs[:]
    perm = list(range(n))
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col].is_unit():
                piv = r
                break
        if piv is None:
            raise NotEtale("jet system pivot is not a unit")
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


def induced_jet_solve(morphism, chart_index, point, target_jets):
    """Jet values over a source point matching given target jets.

    Solves delta(pullback(t)) = dt for the source jets by Newton
    iteration; the twisted relative Jacobian must stay a unit at the
    point, otherwise NotEtale.  Returns a dict over source jet names.
    """
    src = morphism.source.patches[chart_index]
    tgt = morphism.target_patch(chart_index)
    ring = src.ring
    dctx = DeltaContext(ring, src.all_vars)
    names = list(src.vars)
    systems = []
    for tname in tgt.vars:
        img = morphism.charts[chart_index].pullback[tname]
        dimg = substitute_companion_jets(src, dctx, dctx.prolong(img))
        systems.append((tname, dimg,
                        [dimg.partial(jet_name(x)) for x in names]))
    guess = {jet_name(x): ring.zero() for x in names}
    env = dict(point)
    for extra in dctx.all_vars:
        env.setdefault(extra, ring.zero())
    for _ in range(ring.precision + 2):
        env.update(guess)
        residuals = []
        for tname, dimg, _ in systems:
            residuals.append(dimg.evaluate(env) - target_jets[tname])
        if all(r.is_zero() for r in residuals):
            return dict(guess)
        mat = [[d.evaluate(env) for d in partials]
               for _, _, partials in systems]
        try:
            step = _solve_unit_system(ring, mat, residuals)
        except NotEtale:
            raise NotEtale("induced jet system is singular at the sample point")
        for k, x in enumerate(names):
            guess[jet_name(x)] = guess[jet_name(x)] - step[k]
    raise NotEtale("induced jet iteration did not converge")


def etale_basechange_check(morphism, rng, samples=3):
    """Certify jets pull back bijectively along an étale morphism.

    Symbolic certificate first (unit twisted Jacobian per chart), then a
    numeric round trip at random points of every relation-free chart:
    push random source jets forward, solve back, demand recovery.
    """
    for i in range(len(morphism.charts)):
        relative_jacobian_unit(morphism, i)
    for i in range(len(morphism.charts)):
        src = morphism.source.patches[i]
        tgt = morphism.target_patch(i)
        if src.relations:
            continue
        ring = src.ring
        dctx = DeltaContext(ring, src.all_vars)
        pullbacks = {t: morphism.charts[i].pullback[t] for t in tgt.vars}
        prolonged = {t: substitute_companion_jets(src, dctx, dctx.prolong(g))
                     for t, g in pullbacks.items()}
        for _ in range(samples):
            point = sample_point(src, rng)
            jets = {jet_name(x): random_elem(ring, rng) for x in src.vars}
            env = dict(point)
            env.update(jets)
            for extra in dctx.all_vars:
                env.setdefault(extra, ring.zero())
            forward = {t: g.evaluate(env) for t, g in prolonged.items()}
            solved = induced_jet_solve(morphism, i, point, forward)
            for x in src.vars:
                if not (solved[jet_name(x)] == jets[jet_name(x)]):
                    raise NotEtale(
                        "jet round trip failed at a sample point of chart %d" % (i,))
    return True
