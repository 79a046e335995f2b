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
a morphism are all systems of such conditions, and one set of builders
assembles them: _register adds the unknowns tag + (v, m) for a chart and
a monomial basis, _add_jacobian adds a normal-formed Jacobian block,
_add_affine and _add_admissibility add the constants with it, and
_degree_ladder runs the degree-doubling search for both lift searches.

At the residue level normal form and transport are ring maps onto the
normal-form basis, so the images of basis monomials come from
wf.scheme.MonomialImages tables (the multiplication-matrix idea of
Faugere, Gianni, Lazard & Mora's FGLM): each entry is one product of a
cached smaller entry by a variable's image, normal-formed once.  The
tables are built per call.  In is_coboundary each overlap (i, j) keeps
one table for the a-side basis, one seeded with each twisted-gradient
entry for nf_b(mat * x^m), and one transport table for pb -> pa; the
joint compatible-lift system keeps one transport table per chart.  A
moved polynomial is sum c * T[e] over its terms: each T[e] is a normal
form and sums of normal forms are normal forms, so the sum takes no
normal_form call.

Negative coboundary answers are only definitive at or above the
completeness threshold for the family; below it the solver refuses with
Inconclusive rather than guessing.
"""

from __future__ import annotations

from .bounds import require_at_least
from .errors import Inconclusive, KindMismatch, NoSolutionAtBound, WfError
from .gfp import solve as gfp_solve
from .jet import collapse_companion_jets, linearize_generator, linearize_mod_pi
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
        pres2 = self.pres.at_precision(2)
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


def _patch_rows(pres):
    """Collapsed linear rows of the chart's generators, companion jets
    eliminated.  The constants (g(X^q) - g^q)/pi are the costly part at
    q = p^2, so callers that read only the Jacobians use
    twisted_gradient instead."""
    return [collapse_companion_jets(pres, row)
            for row in linearize_mod_pi(pres)]


def _coeffs_from_solution(pres, basis, sol, tag):
    res = pres.res
    return {v: MvPoly(res, pres.all_vars,
                      {m: res.from_int(sol.get(tag + (v, m), 0)) for m in basis})
            for v in pres.vars}


def _register(sys, tag, pres, basis):
    """One unknown tag + (v, m) per chart variable v and basis monomial m;
    the free-variables-zero solution depends on this column order."""
    for v in pres.vars:
        for m in basis:
            sys.col(tag + (v, m))


def _add_jacobian(sys, eq, pres, jac, tag, basis):
    """Add sum_v jac[v] * A_v, in the chart's normal form, to the
    equations eq + (e,), where A_v ranges over the unknowns tag + (v, m)."""
    for v in pres.vars:
        j = jac.get(v)
        if j is None:
            continue
        for m in basis:
            unknown = tag + (v, m)
            prod = pres.nf(j * MvPoly.monomial(pres.res, pres.all_vars, m))
            for e, c in prod.terms.items():
                sys.add(eq + (e,), unknown, c)


def _add_affine(sys, eq, pres, row, tag, basis):
    """The condition row.const + sum_v row.jac[v] * A_v = 0."""
    for e, c in row.const.terms.items():
        sys.add_rhs(eq + (e,), -c)
    _add_jacobian(sys, eq, pres, row.jac, tag, basis)


def _add_admissibility(sys, eq, pres, rows, tag, basis):
    """One affine condition per collapsed generator row of the chart."""
    for ridx, row in enumerate(rows):
        _add_affine(sys, eq + (ridx,), pres, row, tag, basis)


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
    rows = _patch_rows(pres)
    if start_degree is None:
        start_degree = max(1, pres.q * pres.max_relation_degree())

    def attempt(degree):
        sys = LinearSystem(pres.ring.p)
        basis = pres.red.monomials_up_to(degree)
        _register(sys, ("A",), pres, basis)
        _add_admissibility(sys, ("lift",), pres, rows, ("A",), basis)
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


def is_coboundary(scheme, cochain, pole_bound=None):
    """Decide whether a 1-cochain is the coboundary of patch sections.

    Returns (True, sections) with an honestly re-verified witness, or
    (False, None) when no witness exists within pole_bound and the bound
    is at or past the completeness threshold.  A negative result under
    the threshold raises Inconclusive instead of guessing.
    """
    threshold = completeness_threshold(scheme)
    if pole_bound is None:
        pole_bound = threshold
    if not scheme.overlap_pairs():
        return True, zero_sections(scheme)
    p = scheme.ring.p
    sys = LinearSystem(p)
    bases = []
    for idx, pres in enumerate(scheme.patches):
        bases.append(pres.red.monomials_up_to(pole_bound))
        _register(sys, ("W", idx), pres, bases[idx])
    # tangency: each section must kill the patch relations; only the
    # Jacobians enter, so no constant (g(X^q) - g^q)/pi is computed
    for idx, pres in enumerate(scheme.patches):
        for ridx, g in enumerate(pres.generators()):
            _add_jacobian(sys, ("tan", idx, ridx), pres,
                          twisted_gradient(pres, g), ("W", idx), bases[idx])
    # difference equations on every overlap, in a-side coordinates
    for (i, j) in scheme.overlap_pairs():
        view = scheme.view(i, j)
        pa, pb = view.pres_a, view.pres_b
        one = MvPoly.const(pa.res, pa.all_vars, 1)
        nf_a = MonomialImages.shifted(pa, scheme.patches[i].all_vars, one)
        images_a = [nf_a[m] for m in bases[i]]
        for v in pa.vars:
            for m, img in zip(bases[i], images_a):
                for e, c in img.terms.items():
                    sys.add(("pair", i, j, v, e), ("W", i, v, m), c)
        # moved(nf_b(mat * x^m)) from a seeded table per (v, w) and one
        # transport table for the map pb -> pa
        to_a = MonomialImages.transported(pb, view.map_ba, pa)
        shifted_b = {}
        for v in pa.vars:
            grad = twisted_gradient(pb, pb.to_res(view.map_ab[v]))
            for w, mat in grad.items():
                shifted_b[(v, w)] = MonomialImages.shifted(
                    pb, scheme.patches[j].all_vars, mat)
        for w in pb.vars:
            for m in bases[j]:
                for v in pa.vars:
                    table = shifted_b.get((v, w))
                    if table is None:
                        continue
                    for e, c in to_a.apply(table[m]).terms.items():
                        sys.add(("pair", i, j, v, e), ("W", j, w, m), -c)
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
    """Chart lifts, their cocycle, and the vanishing decision in one go."""
    lifts = [local_frobenius_lift(pres, start_degree)
             for pres in scheme.patches]
    cochain = di_cocycle(scheme, lifts)
    threshold = completeness_threshold(scheme)
    if pole_bound is None:
        pole_bound = threshold
    vanishes, witness = is_coboundary(scheme, cochain, pole_bound)
    return DIClassReport(scheme, lifts, cochain, vanishes, witness,
                         pole_bound, threshold)


# -- compatibility along morphisms ---------------------------------------------


def lift_discrepancy(morphism, x_lifts, y_lifts):
    """Per chart: e_i[t] = (pullback of delta_Y(t)) - delta_X(pullback(t)).

    These are the components of an F-derivation along the morphism; they
    all vanish exactly when the chart lifts commute with the morphism.
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
            comp[t] = src.nf(pulled - applied)
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

    Pairs whose charts land in one target chart pull back to zero since
    the target cocycle is zero on the diagonal.
    """
    vals = {}
    for (i, j) in morphism.source.overlap_pairs():
        sv = morphism.source.view(i, j)
        ti = morphism.charts[i].target_index
        tj = morphism.charts[j].target_index
        tgt_vars = morphism.target_patch(i).vars
        if ti == tj:
            zero = MvPoly.zero(sv.pres_a.res, sv.pres_a.all_vars)
            vals[(i, j)] = {t: zero for t in tgt_vars}
            continue
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
    i-side coordinates."""
    sv = morphism.source.view(i, j)
    ti = morphism.charts[i].target_index
    tj = morphism.charts[j].target_index
    if ti == tj:
        out = {}
        for t, g in comp_j.items():
            out[t] = transport(g, sv.pres_b, sv.map_ba, sv.pres_a, level="res")
        return out
    tv = morphism.target.view(ti, tj)
    out = {}
    for t in tv.pres_a.vars:
        grad = twisted_gradient(tv.pres_b, tv.pres_b.to_res(tv.map_ab[t]))
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


def build_compatible_lifts(morphism, y_lifts=None, start_degree=None,
                           max_degree=None):
    """Chart lifts on the source commuting with lifts on the target.

    With y_lifts fixed, solves for the source coefficients alone and
    reports NoSolutionAtBound honestly when that is impossible.  With
    y_lifts None, source and target coefficients are solved jointly
    (target charts not hit by the morphism get independent lifts).
    Returns (x_lifts, y_lifts).
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
    joint = y_lifts is None
    x_lifts, y_out = _degree_ladder(
        lambda d: _compatible_attempt(morphism, y_lifts, d, joint),
        start_degree, max_degree, "compatible lifts")
    for lift in x_lifts:
        lift.verify()
    for lift in y_out:
        lift.verify()
    disc = lift_discrepancy(morphism, x_lifts, y_out)
    for e in disc:
        for g in e.values():
            if not g.is_zero():
                raise WfError("compatible lift solution failed the "
                              "discrepancy re-check")
    return x_lifts, y_out


def _compatible_attempt(morphism, y_lifts, degree, joint):
    sys = LinearSystem(morphism.source.ring.p)
    src_bases = []
    for idx, pres in enumerate(morphism.source.patches):
        src_bases.append(pres.red.monomials_up_to(degree))
        _register(sys, ("AX", idx), pres, src_bases[idx])
    tgt_bases = {}
    if joint:
        for idx in sorted({c.target_index for c in morphism.charts}):
            pres = morphism.target.patches[idx]
            tgt_bases[idx] = pres.red.monomials_up_to(degree)
            _register(sys, ("AY", idx), pres, tgt_bases[idx])
    # admissibility of the source lifts, then of the target lifts
    for idx, pres in enumerate(morphism.source.patches):
        _add_admissibility(sys, ("xlift", idx), pres, _patch_rows(pres),
                           ("AX", idx), src_bases[idx])
    for idx, basis in tgt_bases.items():
        pres = morphism.target.patches[idx]
        _add_admissibility(sys, ("ylift", idx), pres, _patch_rows(pres),
                           ("AY", idx), basis)
    # the commuting condition per chart and target variable:
    #   const(pullback(t)) + sum_v M_{t,v} A^X_v = pullback(A^Y_t)
    for idx, chart in enumerate(morphism.charts):
        src = morphism.source.patches[idx]
        tgt = morphism.target_patch(idx)
        if joint:
            pulled_back = MonomialImages.transported(tgt, chart.pullback, src)
        for t in tgt.vars:
            row = collapse_companion_jets(
                src, linearize_generator(src, chart.pullback[t]))
            eqbase = ("compat", idx, t)
            _add_affine(sys, eqbase, src, row, ("AX", idx), src_bases[idx])
            if joint:
                for m in tgt_bases[chart.target_index]:
                    for e, c in pulled_back[m].terms.items():
                        sys.add(eqbase + (e,),
                                ("AY", chart.target_index, t, m), -c)
            else:
                ay = y_lifts[chart.target_index].fder
                pulled = transport(ay.coeffs[t], tgt, chart.pullback, src,
                                   level="res")
                for e, c in pulled.terms.items():
                    sys.add_rhs(eqbase + (e,), c)
    sol = sys.solve()
    if sol is None:
        return None
    x_lifts = []
    for idx, pres in enumerate(morphism.source.patches):
        coeffs = _coeffs_from_solution(pres, src_bases[idx], sol, ("AX", idx))
        x_lifts.append(LocalLift(pres, coeffs, degree=degree))
    if joint:
        y_out = []
        for idx, pres in enumerate(morphism.target.patches):
            if idx in tgt_bases:
                coeffs = _coeffs_from_solution(pres, tgt_bases[idx], sol,
                                               ("AY", idx))
                y_out.append(LocalLift(pres, coeffs, degree=degree))
            else:
                y_out.append(local_frobenius_lift(pres))
    else:
        y_out = list(y_lifts)
    return x_lifts, y_out
