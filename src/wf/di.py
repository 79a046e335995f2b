"""Frobenius lifts mod pi^2 and the obstruction class against gluing them.

On each chart a lift is phi(v) = v^q + pi A_v with A_v over the residue
field; it is admissible when every relation maps into (ideal, pi^2).
Since phi_A(r) = r^q + pi * delta(r) with delta(r) affine in A mod pi,
that is an affine condition mod pi: const_r + sum_v J_{r,v} A_v = 0 in
the chart's normal form, with const_r = (r(X^q) - r^q)/pi and J_r the
twisted partials of r (wf.jet.linearize_generator).  Once A is confined
to a degree bound it is a finite F_p linear system.  The difference of
two chart lifts is an F-twisted vector field, so the lifts of a glued
scheme produce a Cech 1-cocycle valued in F*T; the class of that
cocycle is the obstruction, and a 0-cochain witness with controlled
pole degree decides vanishing.

The chart lifts, the coboundary witness and the lifts that commute with
a morphism are all systems of such conditions, and one set of helpers
assembles them: _register adds the unknowns tag + (v, m) for a chart and
a monomial basis, _condition builds the condition of one polynomial and
keeps it with the chart, _conditions lists those of a chart's relations,
_add_condition adds one condition, constant and normal-formed Jacobian
block, and _degree_ladder runs the degree-doubling search for both lift
searches.

Negative coboundary answers are only definitive at or above the
completeness threshold for the family; below it the solver refuses with
Inconclusive rather than guessing.
"""

from __future__ import annotations

from .bounds import require_at_least
from .errors import Inconclusive, KindMismatch, NoSolutionAtBound, WfError
from .gfp import insert_row, solve as gfp_solve
from .jet import collapse_companion_jets, linearize_generator
from .poly import MvPoly
from .scheme import (FDerSection, MonomialImages, fder_apply, transport,
                     twisted_gradient)


class LinearSystem:
    """F_p system with hashable unknown and equation keys.

    Unknown order is insertion order, and so is equation order.  The
    solution does not depend on the equation order: gfp.solve returns the
    one solution whose free variables are zero, which the row space alone
    determines.
    """

    __slots__ = ("p", "cols", "col_order", "rows", "rhs")

    def __init__(self, p):
        self.p = p
        self.cols = {}
        self.col_order = []
        self.rows = {}
        self.rhs = {}

    def col(self, key):
        idx = self.cols.get(key)
        if idx is None:
            idx = len(self.col_order)
            self.cols[key] = idx
            self.col_order.append(key)
        return idx

    def add(self, eq, unknown, coeff):
        row = self.rows.setdefault(eq, {})
        c = self.col(unknown)
        row[c] = (row.get(c, 0) + coeff) % self.p

    def add_terms(self, eq, unknown, poly, sign=1):
        """add(eq + (e,), unknown, sign * c) for each term c x^e of poly."""
        rows, p = self.rows, self.p
        c = self.col(unknown)
        for e, v in poly.terms.items():
            row = rows.setdefault(eq + (e,), {})
            row[c] = (row.get(c, 0) + sign * v) % p

    def add_rhs(self, eq, value):
        self.rows.setdefault(eq, {})
        self.rhs[eq] = (self.rhs.get(eq, 0) + value) % self.p

    def solve(self):
        rows = [[(c, v) for c, v in entries.items() if v]
                for entries in self.rows.values()]
        rhs = [self.rhs.get(key, 0) for key in self.rows]
        sol = gfp_solve(self.p, rows, rhs, len(self.col_order))
        if sol is None:
            return None
        return {key: sol[i] for key, i in self.cols.items()}


# -- chart lifts ---------------------------------------------------------------


def lift_substitution(pres, coeffs):
    """phi images for the chart: v -> v^q + pi A_v, companions forced.

    The companion image u^q - pi u^(2q) A_v is the inverse of phi(v)
    mod pi^2, which is the precision the lift lives at.
    """
    ring, vars, q = pres.ring, pres.all_vars, pres.q
    pi = MvPoly.const(ring, vars, ring.pi())
    mapping = {}
    for v in pres.vars:
        img = MvPoly.var(ring, vars, v, q)
        a = coeffs.get(v)
        if a is not None and not a.is_zero():
            lifted = a.map_coeffs(lambda c: ring.from_int(c), ring)
            img = img + pi * lifted.extend_vars(vars)
        mapping[v] = img
    for u, v in pres.loc_pairs:
        img = MvPoly.var(ring, vars, u, q)
        a = coeffs.get(v)
        if a is not None and not a.is_zero():
            lifted = a.map_coeffs(lambda c: ring.from_int(c), ring)
            img = img - (pi * MvPoly.var(ring, vars, u, 2 * q)
                         * lifted.extend_vars(vars))
        mapping[u] = img
    return mapping


class LocalLift:
    """One admissible Frobenius lift mod pi^2 on one chart."""

    __slots__ = ("pres", "fder", "degree")

    def __init__(self, pres, coeffs, degree=None):
        self.pres = pres
        self.fder = FDerSection(pres, coeffs)
        self.degree = degree

    @property
    def coeffs(self):
        return self.fder.coeffs

    def verify(self):
        """Exact mod-pi^2 admissibility check, independent of the solver.

        Works in a precision-2 clone of the chart so that large solver
        outputs cannot blow up intermediate powers.
        """
        pres2 = self.pres.mod_pi2()
        ring2 = pres2.ring
        mapping = lift_substitution(pres2, self.coeffs)
        for g in pres2.generators():
            img = g.subst(mapping, ring=ring2, vars=pres2.all_vars)
            if not pres2.nf_R(img).is_zero():
                raise WfError("lift candidate does not preserve %s mod pi^2"
                              % (g.to_text(),))
        return True

    def to_json(self):
        return {"chart": self.pres.name,
                "degree": self.degree,
                "delta": {v: self.coeffs[v].to_text() for v in self.pres.vars}}

    def __repr__(self):
        inner = ", ".join("%s: %s" % (v, self.coeffs[v].to_text())
                          for v in self.pres.vars)
        return "LocalLift(%s; %s)" % (self.pres.name, inner)


def _coeffs_from_solution(pres, basis, sol, tag):
    """A_v = sum of sol[tag + (v, m)] x^m over the basis, per chart
    variable v.  The solver's values are reduced mod p, so only the
    nonzero ones are built into coefficients."""
    res = pres.res
    return {v: MvPoly(res, pres.all_vars,
                      {m: res.from_int(c) for m in basis
                       if (c := sol.get(tag + (v, m)))}, _clean=False)
            for v in pres.vars}


def _register(sys, tag, pres, basis):
    """One unknown tag + (v, m) per chart variable v and basis monomial m;
    the free-variables-zero solution depends on this column order."""
    for v in pres.vars:
        for m in basis:
            sys.col(tag + (v, m))


def _condition(pres, g):
    """(const, Jacobian tables) of the affine condition const + sum_v
    J_v A_v = 0 that delta(g) = 0 mod pi puts on a lift, companion jets
    eliminated; tables[v] is seeded with J_v, so its entry m is the
    block entry nf(J_v * x^m).  The only builder of a lift condition,
    for relations and pullbacks alike.  The constant depends on g mod
    pi^2, not on its residue alone, so the condition is kept in
    pres.conditions by g itself, its terms with their coefficients and
    precisions: the lift ladder, the witness's tangency rows, every
    compatible-lift attempt and the discrepancy re-check read the same
    one.  A table holds no reference back to the chart; callers must not
    mutate the condition."""
    key = (g.vars, tuple(g.terms.items()))
    cond = pres.conditions.get(key)
    if cond is None:
        row = collapse_companion_jets(pres, linearize_generator(pres, g))
        cond = pres.conditions[key] = (row.const, {
            v: MonomialImages.shifted(pres, pres.all_vars, row.jac[v])
            for v in pres.vars if v in row.jac})
    return cond


def _conditions(pres):
    """The lift conditions of the chart's relations.  A companion product
    u v - 1 adds none: its constant is 0, and its folded Jacobian
    u^q - u^(2q) v^q has normal form 0."""
    return [_condition(pres, g) for g in pres.relations]


def _add_condition(sys, eq, const, tables, tag, basis):
    """The condition const + sum_v J_v * A_v = 0 in the chart's normal
    form, on the equations eq + (e,): A_v ranges over the unknowns
    tag + (v, m) and tables[v][m] is nf(J_v * x^m)."""
    for e, c in const.terms.items():
        sys.add_rhs(eq + (e,), -c)
    for v, table in tables.items():
        for m in basis:
            sys.add_terms(eq, tag + (v, m), table[m])


def _degree_ladder(attempt, start_degree, max_degree, what):
    """attempt(d) at d = start, 2 start, ... up to max_degree (default
    8 * start), stepping 0 to 1; a start above the cap is lowered to it.
    The first result that is not None wins, and past the cap
    NoSolutionAtBound names what was sought and the last degree tried.
    Every step raises d until it reaches the cap, so the ladder ends."""
    require_at_least(start_degree, 0, "start degree")
    if max_degree is None:
        max_degree = 8 * start_degree
    require_at_least(max_degree, 0, "max degree")
    d = min(start_degree, max_degree)
    while True:
        result = attempt(d)
        if result is not None:
            return result
        if d >= max_degree:
            raise NoSolutionAtBound(
                "no %s with coefficients of degree <= %d" % (what, d), d)
        d = min(2 * d or 1, max_degree)


def local_frobenius_lift(pres, start_degree=None, max_degree=None):
    """Smallest-degree-first search for an admissible lift on one chart.

    The coefficient degree bound starts at q * (max relation degree) and
    doubles until a solution appears; NoSolutionAtBound past the cap.
    The returned lift is re-verified exactly mod pi^2.
    """
    conditions = _conditions(pres)
    if start_degree is None:
        start_degree = max(1, pres.q * pres.max_relation_degree())

    def attempt(degree):
        sys = LinearSystem(pres.ring.p)
        basis = pres.red.monomials_up_to(degree)
        _register(sys, ("A",), pres, basis)
        for r, (const, tables) in enumerate(conditions):
            _add_condition(sys, ("lift", r), const, tables, ("A",), basis)
        sol = sys.solve()
        if sol is None:
            return None
        return LocalLift(pres, _coeffs_from_solution(pres, basis, sol, ("A",)),
                         degree=degree)

    lift = _degree_ladder(attempt, start_degree, max_degree,
                          "admissible lift on %s" % (pres.name,))
    lift.verify()
    return lift


# -- the Cech cocycle -----------------------------------------------------------


def express_fder(coeffs, src_pres, dst_pres, dst_to_src, src_to_dst):
    """Express an F-derivation given in src coordinates in dst coordinates.

    dst_to_src maps dst base variables to src-side images, src_to_dst
    the other way; both are transition data of one overlap.
    """
    out = {}
    for v in dst_pres.vars:
        val = fder_apply(src_pres, coeffs, dst_to_src[v])
        out[v] = transport(val, src_pres, src_to_dst, dst_pres, level="res")
    return FDerSection(dst_pres, out)


def _overlap_difference(scheme, a, b, sec_a, sec_b):
    """sec_a - sec_b on the (a, b) overlap, in a-side coordinates."""
    view = scheme.view(a, b)
    return (FDerSection(view.pres_a, sec_a.coeffs)
            - express_fder(sec_b.coeffs, view.pres_b, view.pres_a,
                           view.map_ab, view.map_ba))


def di_cocycle_pair(scheme, lifts, a, b):
    """delta_a - delta_b on the (a, b) overlap, in a-side coordinates."""
    return _overlap_difference(scheme, a, b, lifts[a].fder, lifts[b].fder)


class Cochain1:
    """F*T-valued 1-cochain: one section per stored overlap, represented
    on the lower-index side."""

    __slots__ = ("scheme", "values")

    def __init__(self, scheme, values):
        self.scheme = scheme
        self.values = dict(values)

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())

    def to_json(self):
        out = {}
        for (i, j) in sorted(self.values):
            sec = self.values[(i, j)]
            out["%d,%d" % (i, j)] = {v: g.to_text()
                                     for v, g in sec.coeffs.items()}
        return out


def di_cocycle(scheme, lifts):
    """The obstruction cocycle of a family of chart lifts.

    Antisymmetry is confirmed by recomputing each value from the other
    side, and the cocycle identity is confirmed on every stored triple;
    failures raise WfError since they indicate broken gluing data rather
    than a mathematical negative.
    """
    values = {}
    for (i, j) in scheme.overlap_pairs():
        values[(i, j)] = di_cocycle_pair(scheme, lifts, i, j)
    for (i, j) in scheme.overlap_pairs():
        view = scheme.view(i, j)
        dji = di_cocycle_pair(scheme, lifts, j, i)
        moved = express_fder(dji.coeffs, view.pres_b, view.pres_a,
                             view.map_ab, view.map_ba)
        if not (moved == -values[(i, j)]):
            raise WfError("cocycle antisymmetry failed on overlap (%d,%d)"
                          % (i, j))
    for (i, j, k) in scheme.triples():
        vij = scheme.view(i, j)
        vik = scheme.view(i, k)
        vjk = scheme.view(j, k)
        triple_i = scheme.patches[i].localize((vij.invert_a, vik.invert_a))
        triple_j = scheme.patches[j].localize((vij.invert_b, vjk.invert_a))
        dij = FDerSection(triple_i, values[(i, j)].coeffs)
        dik = FDerSection(triple_i, values[(i, k)].coeffs)
        djk = express_fder(values[(j, k)].coeffs, triple_j, triple_i,
                           vij.map_ab, vij.map_ba)
        if not (dij + djk == dik):
            raise WfError("cocycle identity failed on triple (%d,%d,%d)"
                          % (i, j, k))
    return Cochain1(scheme, values)


def coboundary_of(scheme, sections):
    """The 1-cochain (W_i - W_j)_{ij} of a family of patch sections."""
    values = {(i, j): _overlap_difference(scheme, i, j, sections[i],
                                          sections[j])
              for (i, j) in scheme.overlap_pairs()}
    return Cochain1(scheme, values)


def zero_sections(scheme):
    return [FDerSection(pres, {}) for pres in scheme.patches]


# -- coboundary decision ---------------------------------------------------------


def completeness_threshold(scheme):
    """Pole degree past which a missing witness is conclusive.

    For a curve of known genus g the bound is q(2g + 2); otherwise
    q * (max relation degree + 2) is used.
    """
    q = scheme.ring.q
    if scheme.genus is not None:
        return q * (2 * scheme.genus + 2)
    maxdeg = max((p.max_relation_degree() for p in scheme.patches), default=1)
    return q * (maxdeg + 2)


def _pole_bound_and_threshold(scheme, pole_bound):
    """The witness pole bound, defaulting to the completeness threshold
    and refused unless it is an integer >= 0, and that threshold."""
    threshold = completeness_threshold(scheme)
    if pole_bound is None:
        pole_bound = threshold
    require_at_least(pole_bound, 0, "pole bound")
    return pole_bound, threshold


def _pair_tables(scheme, i, j):
    """The b-side blocks of the witness pair rows on overlap (i, j), in
    a-side coordinates: tables[(v, w)][m] = moved(nf_b(mat * x^m)), where
    mat = grad[w] is an entry of the twisted gradient of v's image and
    moved is the transport pb -> pa.  Transport is a ring map and nf_a is
    canonical, so that is entry m of one table in pa seeded with
    moved(mat), over patch j's variables."""
    view = scheme.view(i, j)
    pa, pb = view.pres_a, view.pres_b
    return {(v, w): MonomialImages.transported(
                pb, view.map_ba, pa, seed=transport(mat, pb, view.map_ba, pa),
                names=scheme.patches[j].all_vars)
            for v in pa.vars
            for w, mat in twisted_gradient(pb, view.map_ab[v]).items()}


def is_coboundary(scheme, cochain, pole_bound=None):
    """Decide whether a 1-cochain is the coboundary of patch sections.

    A zero cochain (every cocycle of chart lifts that agree on the
    overlaps, and every cochain of a scheme without overlaps) is decided
    at once: (True, zero sections), with no system built.  The witness
    system is homogeneous then, so its free-variables-zero solution is
    that same zero witness, at every pole bound.  Otherwise the system
    reads the tangency rows from the charts' lift conditions.  Returns
    (True, sections) with an honestly re-verified witness, or (False,
    None) when no witness exists within pole_bound and the bound is at
    or past the completeness threshold.  A negative result under the
    threshold raises Inconclusive instead of guessing.
    """
    pole_bound, threshold = _pole_bound_and_threshold(scheme, pole_bound)
    if cochain.is_zero():
        return True, zero_sections(scheme)
    p = scheme.ring.p
    sys = LinearSystem(p)
    bases = []
    for idx, pres in enumerate(scheme.patches):
        bases.append(pres.red.monomials_up_to(pole_bound))
        _register(sys, ("W", idx), pres, bases[idx])
    # tangency: each section must kill the patch relations; only the
    # Jacobian tables of the chart's lift conditions enter
    for idx, pres in enumerate(scheme.patches):
        zero = MvPoly.zero(pres.res, pres.all_vars)
        for ridx, (_, tables) in enumerate(_conditions(pres)):
            _add_condition(sys, ("tan", idx, ridx), zero, tables,
                           ("W", idx), bases[idx])
    # difference equations on every overlap, in a-side coordinates: the
    # a-side block reads nf_a(x^m), the b-side block the seeded a-side
    # tables of _pair_tables
    for (i, j) in scheme.overlap_pairs():
        view = scheme.view(i, j)
        pa, pb = view.pres_a, view.pres_b
        one = MvPoly.const(pa.res, pa.all_vars, 1)
        nf_a = MonomialImages.shifted(pa, scheme.patches[i].all_vars, one)
        images_a = [nf_a[m] for m in bases[i]]
        for v in pa.vars:
            for m, img in zip(bases[i], images_a):
                sys.add_terms(("pair", i, j, v), ("W", i, v, m), img)
        tables = _pair_tables(scheme, i, j)
        for w in pb.vars:
            for m in bases[j]:
                for v in pa.vars:
                    table = tables.get((v, w))
                    if table is None:
                        continue
                    sys.add_terms(("pair", i, j, v), ("W", j, w, m),
                                  table[m], -1)
        dval = cochain.values[(i, j)]
        for v in pa.vars:
            for e, c in dval.coeffs[v].terms.items():
                sys.add_rhs(("pair", i, j, v, e), c)
    sol = sys.solve()
    if sol is None:
        if pole_bound >= threshold:
            return False, None
        raise Inconclusive(
            "no witness with pole degree <= %d; the decision threshold is %d"
            % (pole_bound, threshold), pole_bound, threshold)
    sections = []
    for idx, pres in enumerate(scheme.patches):
        coeffs = _coeffs_from_solution(pres, bases[idx], sol, ("W", idx))
        sections.append(FDerSection(pres, coeffs))
    back = coboundary_of(scheme, sections)
    for key, val in cochain.values.items():
        if not (back.values[key] == val):
            raise WfError("witness failed re-verification on overlap %r" % (key,))
    return True, sections


class DIClassReport:
    __slots__ = ("scheme", "lifts", "cochain", "vanishes", "witness",
                 "pole_bound", "threshold")

    def __init__(self, scheme, lifts, cochain, vanishes, witness,
                 pole_bound, threshold):
        self.scheme = scheme
        self.lifts = lifts
        self.cochain = cochain
        self.vanishes = vanishes
        self.witness = witness
        self.pole_bound = pole_bound
        self.threshold = threshold

    def to_json(self):
        data = {
            "scheme": self.scheme.name,
            "ring": self.scheme.ring.to_json(),
            "pole_bound": self.pole_bound,
            "threshold": self.threshold,
            "vanishes": self.vanishes,
            "lifts": [lift.to_json() for lift in self.lifts],
            "cocycle": self.cochain.to_json(),
        }
        if self.witness is not None:
            data["witness"] = [
                {v: sec.coeffs[v].to_text() for v in sec.pres.vars}
                for sec in self.witness]
        return data


def compute_di_class(scheme, pole_bound=None, start_degree=None):
    """Chart lifts, their cocycle, and the vanishing decision in one go;
    a bad pole bound is refused before any lift is searched."""
    pole_bound, threshold = _pole_bound_and_threshold(scheme, pole_bound)
    lifts = [local_frobenius_lift(pres, start_degree)
             for pres in scheme.patches]
    cochain = di_cocycle(scheme, lifts)
    vanishes, witness = is_coboundary(scheme, cochain, pole_bound)
    return DIClassReport(scheme, lifts, cochain, vanishes, witness,
                         pole_bound, threshold)


# -- compatibility along morphisms ---------------------------------------------


def lift_discrepancy(morphism, x_lifts, y_lifts):
    """Per chart: e_i[t] = (f*(phi_Y(t)) - phi_X(f*(t)))/pi mod pi.

    With P = pullback(t), phi_X(P) = P(X^q) + pi * sum_v M_{t,v} A^X_v
    and f*(phi_Y(t)) = P^q + pi * pullback(A^Y_t) mod pi^2, so
    e_i[t] = pullback(A^Y_t) - delta_X(P) - (P(X^q) - P^q)/pi: the
    transported target lift, minus the twisted chain rule on the source
    lift, minus P's lift constant (read from _condition, which
    _compatible_attempt solves with too).  These are the components of
    an F-derivation along the morphism; they all vanish exactly when the
    chart lifts commute with the morphism.  The constant is 0 when P is
    a monomial with coefficient +-1 (p odd), as every builtin pullback
    is.
    """
    out = []
    for i, chart in enumerate(morphism.charts):
        src = morphism.source.patches[i]
        tgt = morphism.target_patch(i)
        ay = y_lifts[chart.target_index].fder
        comp = {}
        for t in tgt.vars:
            pulled = transport(ay.coeffs[t], tgt, chart.pullback, src,
                               level="res")
            applied = fder_apply(src, x_lifts[i].fder.coeffs,
                                 chart.pullback[t])
            const, _ = _condition(src, chart.pullback[t])
            comp[t] = src.nf(pulled - applied - const)
        out.append(comp)
    return out


def pushforward_cochain(morphism, x_cochain):
    """Source cocycle pushed into the along-the-morphism frame.

    Component t of pair (i, j): D^X_ij applied to the pullback of t,
    living on the source overlap in i-side coordinates.
    """
    vals = {}
    for (i, j) in morphism.source.overlap_pairs():
        sv = morphism.source.view(i, j)
        sec = x_cochain.values[(i, j)]
        comp = {}
        for t in morphism.target_patch(i).vars:
            comp[t] = fder_apply(sv.pres_a, sec.coeffs,
                                 morphism.charts[i].pullback[t])
        vals[(i, j)] = comp
    return vals


def pullback_cochain(morphism, y_lifts):
    """Target cocycle pulled back to the source overlaps.

    Pairs whose charts land in one target chart read the identity view
    of that chart, on which the target cocycle is zero.
    """
    vals = {}
    for (i, j) in morphism.source.overlap_pairs():
        sv = morphism.source.view(i, j)
        ti = morphism.charts[i].target_index
        tj = morphism.charts[j].target_index
        dy = di_cocycle_pair(morphism.target, y_lifts, ti, tj)
        tv = morphism.target.view(ti, tj)
        comp = {}
        for t in tv.pres_a.vars:
            comp[t] = transport(dy.coeffs[t], tv.pres_a,
                                morphism.charts[i].pullback, sv.pres_a,
                                level="res")
        vals[(i, j)] = comp
    return vals


def _frame_change(morphism, i, j, comp_j):
    """Components of an along-derivation given on chart j in the tau(j)
    frame, re-expressed in the tau(i) frame on the (i, j) overlap,
    i-side coordinates; one target chart is its own identity view."""
    sv = morphism.source.view(i, j)
    tv = morphism.target.view(morphism.charts[i].target_index,
                              morphism.charts[j].target_index)
    out = {}
    for t in tv.pres_a.vars:
        grad = twisted_gradient(tv.pres_b, tv.map_ab[t])
        acc = MvPoly.zero(sv.pres_b.res, sv.pres_b.all_vars)
        for w in sorted(grad):
            pulled = transport(grad[w], tv.pres_b,
                               morphism.charts[j].pullback, sv.pres_b,
                               level="res")
            acc = acc + sv.pres_b.to_res(comp_j[w]) * pulled
        out[t] = transport(sv.pres_b.nf(acc), sv.pres_b, sv.map_ba, sv.pres_a,
                           level="res")
    return out


class CompatReport:
    __slots__ = ("morphism", "compatible", "discrepancy", "pairs")

    def __init__(self, morphism, compatible, discrepancy, pairs):
        self.morphism = morphism
        self.compatible = compatible
        self.discrepancy = discrepancy
        self.pairs = pairs

    def to_json(self):
        return {
            "morphism": self.morphism.name,
            "kind": self.morphism.kind,
            "compatible": self.compatible,
            "charts": [
                {"index": i,
                 "target": self.morphism.charts[i].target_index,
                 "discrepancy": {t: g.to_text() for t, g in sorted(e.items())}}
                for i, e in enumerate(self.discrepancy)],
            "pairs": [
                {"i": i, "j": j,
                 "pullback": {t: g.to_text() for t, g in sorted(pb.items())},
                 "pushforward": {t: g.to_text() for t, g in sorted(pf.items())},
                 "identity_checked": True}
                for (i, j, pb, pf) in self.pairs],
        }


def compatibility_check(morphism, x_lifts, y_lifts):
    """Verify pullback and pushforward of the obstruction cocycles match.

    The difference (pullback of the target cocycle) minus (pushforward
    of the source cocycle) must equal the coboundary e_i - e_j of the
    per-chart lift discrepancy; that identity is checked exactly on
    every source overlap and proves the two classes correspond.  When
    every e_i vanishes the two cochains agree on the nose.
    """
    disc = lift_discrepancy(morphism, x_lifts, y_lifts)
    x_cochain = di_cocycle(morphism.source, x_lifts)
    pf = pushforward_cochain(morphism, x_cochain)
    pb = pullback_cochain(morphism, y_lifts)
    pairs = []
    for (i, j) in morphism.source.overlap_pairs():
        sv = morphism.source.view(i, j)
        e_i = {t: sv.pres_a.nf(sv.pres_a.to_res(g))
               for t, g in disc[i].items()}
        e_j = _frame_change(morphism, i, j, disc[j])
        for t in morphism.target_patch(i).vars:
            delta = sv.pres_a.nf(pb[(i, j)][t] - pf[(i, j)][t])
            expect = sv.pres_a.nf(e_i[t] - e_j[t])
            if not (delta == expect):
                raise WfError(
                    "pullback/pushforward difference on overlap (%d,%d) is "
                    "not the coboundary of the lift discrepancy at %r"
                    % (i, j, t))
        pairs.append((i, j, pb[(i, j)], pf[(i, j)]))
    compatible = all(all(g.is_zero() for g in e.values()) for e in disc)
    return CompatReport(morphism, compatible, disc, pairs)


def build_compatible_lifts(morphism, start_degree=None, max_degree=None):
    """Chart lifts on source and target that commute with the morphism.

    The source coefficients and the coefficients of every target chart
    the morphism hits are unknowns of one F_p system per degree, so both
    sides are solved jointly; target charts not hit get independent
    lifts.  Past the degree cap NoSolutionAtBound is raised.  Every lift
    is re-verified and the discrepancy re-checked to be zero.  Returns
    (x_lifts, y_lifts).
    """
    kind = morphism.kind
    if kind not in ("closed_immersion", "etale", "projection"):
        raise KindMismatch("unsupported morphism kind %r" % (kind,))
    q = morphism.source.ring.q
    if start_degree is None:
        start_degree = max(
            [q * p.max_relation_degree() for p in morphism.source.patches]
            + [q * p.max_relation_degree() for p in morphism.target.patches]
            + [q])
    x_lifts, y_lifts = _degree_ladder(
        lambda d: _compatible_attempt(morphism, d),
        start_degree, max_degree, "compatible lifts")
    for lift in x_lifts + y_lifts:
        lift.verify()
    disc = lift_discrepancy(morphism, x_lifts, y_lifts)
    for e in disc:
        for g in e.values():
            if not g.is_zero():
                raise WfError("compatible lift solution failed the "
                              "discrepancy re-check")
    return x_lifts, y_lifts


def _compatible_attempt(morphism, degree):
    """The joint system of source and target lifts at one degree, solved:
    (x_lifts, y_lifts), or None.

    Columns are registered AX first, then AY chart by chart in the order
    (t, m).  A column in the span of the columns before it is never a
    pivot and is 0 in the free-variables-zero solution, and dropping it
    changes neither the rank nor any other column's pivot status or
    value.  So each target column (t, m) is built once, as its entries
    -pullback(x^m) in the compat rows of each source chart over the
    target chart and nf(J_{r,t} * x^m) in its ylift rows r, and added
    only when an incremental echelon of the chart's columns finds it
    independent of those before it: the solution is the one the full
    basis gives.  With no Jacobian entries the columns of each t are
    copies of those of the first, on rows of their own, so the first
    variable decides for all.  A target chart with no relations and no
    companions has only compat rows, and its basis is every monomial up
    to degree.  Pullback is a ring map there and graded order respects
    products, so a multiple of a dependent monomial is dependent too:
    the minimal dependent monomials are recorded, and their multiples
    are skipped without their table entries or span tests.  With
    relations the basis is cut off at degree, and a dependency of (t, m)
    may use columns of another variable of higher degree than m, whose
    multiples fall outside the basis; every column is tested there.
    Charts with companions are tested in full too.  Their basis strikes
    u*v, so a product of basis monomials is a multiple only where
    pullback(u) * pullback(v) = 1 in the source's residue ring.
    _variable_image certifies that for the companion images it computes,
    and validate_morphism refuses a companion image given directly that
    breaks it, but a library caller may pass a morphism that was never
    validated: on G_m -> G_m with t -> x and t_inv -> x^2, skipping
    multiples there would drop the pivot column t^3 at degree 3.
    """
    p = morphism.source.ring.p
    sys = LinearSystem(p)
    src_bases = []
    # the source lifts and their admissibility, then the commuting
    # condition per chart and target variable:
    #   const(pullback(t)) + sum_v M_{t,v} A^X_v = pullback(A^Y_t)
    for idx, pres in enumerate(morphism.source.patches):
        src_bases.append(pres.red.monomials_up_to(degree))
        _register(sys, ("AX", idx), pres, src_bases[idx])
        for r, (const, tables) in enumerate(_conditions(pres)):
            _add_condition(sys, ("xlift", idx, r), const, tables,
                           ("AX", idx), src_bases[idx])
    for idx, chart in enumerate(morphism.charts):
        src = morphism.source.patches[idx]
        for t in morphism.target_patch(idx).vars:
            const, tables = _condition(src, chart.pullback[t])
            _add_condition(sys, ("compat", idx, t), const, tables,
                           ("AX", idx), src_bases[idx])
    # the target columns: admissibility constants, then each independent
    # column with its compat and ylift entries
    tgt_bases = {}
    for idx in sorted({c.target_index for c in morphism.charts}):
        pres = morphism.target.patches[idx]
        conditions = _conditions(pres)
        for r, (const, _) in enumerate(conditions):
            _add_condition(sys, ("ylift", idx, r), const, {}, ("AY", idx), ())
        over = {k: MonomialImages.transported(pres, chart.pullback,
                                              morphism.source.patches[k])
                for k, chart in enumerate(morphism.charts)
                if chart.target_index == idx}
        deciding = (pres.vars if any(tables for _, tables in conditions)
                    else pres.vars[:1])
        basis = pres.red.monomials_up_to(degree)
        echelon, kept, dependent = {}, set(), []
        for t in pres.vars:
            for m in basis:
                if t not in deciding and m not in kept:
                    continue
                if any(all(a <= b for a, b in zip(d, m)) for d in dependent):
                    continue
                col = {}
                for k, pulled_back in over.items():
                    for e, c in pulled_back[m].terms.items():
                        col[("compat", k, t, e)] = -c
                for r, (_, tables) in enumerate(conditions):
                    if t in tables:
                        for e, c in tables[t][m].terms.items():
                            col[("ylift", idx, r, e)] = c
                if t in deciding and insert_row(p, echelon, col) is None:
                    if not (pres.relations or pres.loc_pairs):
                        dependent.append(m)
                    continue
                kept.add(m)
                for eq, c in col.items():
                    sys.add(eq, ("AY", idx, t, m), c)
        tgt_bases[idx] = [m for m in basis if m in kept]
    sol = sys.solve()
    if sol is None:
        return None
    x_lifts = []
    for idx, pres in enumerate(morphism.source.patches):
        coeffs = _coeffs_from_solution(pres, src_bases[idx], sol, ("AX", idx))
        x_lifts.append(LocalLift(pres, coeffs, degree=degree))
    y_lifts = []
    for idx, pres in enumerate(morphism.target.patches):
        if idx in tgt_bases:
            coeffs = _coeffs_from_solution(pres, tgt_bases[idx], sol,
                                           ("AY", idx))
            y_lifts.append(LocalLift(pres, coeffs, degree=degree))
        else:
            y_lifts.append(local_frobenius_lift(pres))
    return x_lifts, y_lifts
