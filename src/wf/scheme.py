"""Glued affine patches, transition transports, and twisted derivations.

A presentation is a polynomial coordinate ring over the base ring: base
variables, relations, and a set of inverted variables, each inverted
variable v getting a companion v_inv with v * v_inv = 1.  Overlaps of a
glued scheme are further localizations of the two patches with explicit
transition maps on base variables; companion images are never stored,
they are derived by inverting the image of the base variable.

Transition and chart maps are given as polynomial text (or polynomials).
GluedScheme builds each overlap view once, localizing both sides and
parsing the maps there; SchemeMorphism parses its chart maps likewise.

F-derivations (sections of F*T, Frobenius-twisted vector fields) are
coefficient vectors over the base variables; their action follows the
twisted Leibniz rule D(fg) = f^q D(g) + D(f) g^q, which on a localized
ring forces D(v_inv) = -v_inv^(2q) D(v).  That rule is fold_companions
mod pi; wf.di.lift_substitution writes phi(u) = u^q - pi u^(2q) A_v mod
pi^2, and wf.jet.substitute_companion_jets the exact series for du.
Every twisted Jacobian is built from twisted_partials (the partials with
exponents q-scaled):
twisted_gradient folds them through it, the étale certificate reads its
rows from twisted_gradient, and wf.jet linearizes a relation or a
pullback mod pi with them and folds the row through it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from operator import add as _plus

from .base_ring import BaseRingSpec, IntModRing
from .bounds import require_at_least, require_type
from .errors import (KindMismatch, NonSmooth, NotEtale, ParseError,
                     SpecMismatch, TransitionError, WfError)
from .gfp import insert_row
from .poly import MvPoly, ReductionContext, parse_poly

INV_SUFFIX = "_inv"


class Presentation:
    """One affine chart: variables, relations, inverted variables."""

    __slots__ = ("name", "ring", "vars", "inverted", "companions", "all_vars",
                 "relations", "res", "relations_res", "red", "red_R",
                 "loc_pairs", "_mod_pi2", "conditions", "gradients",
                 "inverses")

    def __init__(self, name, ring, vars, relations=(), inverted=()):
        self.name = name
        self.ring = ring
        self.vars = tuple(vars)
        self.inverted = tuple(inverted)
        for v in self.inverted:
            if v not in self.vars:
                raise WfError("inverted name %r is not a variable" % (v,))
        self.companions = tuple(v + INV_SUFFIX for v in self.inverted)
        self.all_vars = self.vars + self.companions
        self.loc_pairs = tuple(zip(self.companions, self.inverted))
        rel = []
        for g in relations:
            if not isinstance(g, MvPoly):
                g = parse_poly(g, ring, self.all_vars)
            elif g.vars != self.all_vars:
                g = g.extend_vars(self.all_vars)
            rel.append(g)
        self.relations = tuple(rel)
        self.res = IntModRing(ring.p, 1, ring.frob_power)
        self.relations_res = tuple(
            r for r in (self.to_res(g) for g in self.relations) if not r.is_zero())
        self.red = ReductionContext(self.res, self.all_vars,
                                    self.relations_res, self.loc_pairs)
        self.red_R = ReductionContext(ring, self.all_vars,
                                      self.relations, self.loc_pairs)
        self._mod_pi2 = None
        # built on first use and kept with the chart, none holding a
        # reference back to it: wf.di's lift conditions, keyed by the
        # polynomial itself; twisted gradients, keyed by residue
        # polynomial; certified companion inverses, keyed by level and
        # the image at that level
        self.conditions = {}
        self.gradients = {}
        self.inverses = {}

    @property
    def q(self):
        return self.ring.q

    def to_res(self, f: MvPoly) -> MvPoly:
        """Reduce coefficients modulo pi into the residue field."""
        if f.ring is self.res or f.ring.same(self.res):
            return f if f.vars == self.all_vars else f.extend_vars(self.all_vars)
        if f.vars != self.all_vars:
            f = f.extend_vars(self.all_vars)
        return f.map_coeffs(lambda c: c.residue(), self.res)

    def nf(self, f: MvPoly) -> MvPoly:
        return self.red.normal_form(f)

    def nf_R(self, f: MvPoly) -> MvPoly:
        return self.red_R.normal_form(f)

    def localize(self, extra):
        """This chart with extra inverted too; None and repeats are skipped."""
        extra = tuple(v for v in extra if v and v not in self.inverted)
        for v in extra:
            if v not in self.vars:
                raise WfError("cannot invert %r: not a variable" % (v,))
        if not extra:
            return self
        return Presentation("%s[1/%s]" % (self.name, ",".join(extra)),
                            self.ring, self.vars, self.relations,
                            self.inverted + extra)

    def generators(self):
        """The relations, then u*v - 1 for every companion pair (u, v)."""
        return list(self.relations) + [
            MvPoly.var(self.ring, self.all_vars, u)
            * MvPoly.var(self.ring, self.all_vars, v) - 1
            for u, v in self.loc_pairs]

    def max_relation_degree(self):
        return max((g.total_deg() for g in self.relations), default=1)

    def mod_pi2(self):
        """Clone of this chart over the same ring truncated at pi^2, built
        on the first call and kept with this chart; the clone holds no
        reference back to it."""
        if self._mod_pi2 is None:
            ring2 = BaseRingSpec(self.ring.p, list(self.ring.eisenstein), 2,
                                 self.ring.frob_power)
            rel2 = [r.map_coeffs(lambda c: ring2.elem(c.coeffs), ring2)
                    for r in self.relations]
            self._mod_pi2 = Presentation(self.name, ring2, self.vars, rel2,
                                         self.inverted)
        return self._mod_pi2

    def to_json(self):
        return {"name": self.name, "vars": list(self.vars),
                "inverted": list(self.inverted),
                "relations": [g.to_text() for g in self.relations]}


def _at_level(poly, pres, level):
    """Coerce a polynomial onto pres.all_vars at the requested level."""
    if level == "R":
        if poly.vars != pres.all_vars:
            poly = poly.extend_vars(pres.all_vars)
        return poly
    return pres.to_res(poly)


def _variable_image(name, src_pres, base_map, dst_pres, level="res"):
    """Image over dst_pres.all_vars of one src variable under base_map.

    A base variable's image is read from base_map; a companion's is the
    inverse in dst of its base variable's image, kept in dst_pres.inverses
    once certified, and TransitionError is raised, on every call, when
    that image is not certified invertible or no image is given.
    """
    if name in base_map:
        return _at_level(base_map[name], dst_pres, level)
    base = dict(src_pres.loc_pairs).get(name)  # companion -> base var
    if base is None:
        raise TransitionError("no image for variable %r" % (name,))
    if base not in base_map:
        raise TransitionError("no image for %r or its base %r" % (name, base))
    image = _at_level(base_map[base], dst_pres, level)
    key = (level, tuple(image.terms.items()))
    inv = dst_pres.inverses.get(key)
    if inv is None:
        red = dst_pres.red_R if level == "R" else dst_pres.red
        inv = red.try_invert(image)
        if inv is None:
            raise TransitionError("image of %r is not certified invertible" % (base,))
        dst_pres.inverses[key] = inv
    return inv


def transport(expr, src_pres, base_map, dst_pres, level="res"):
    """Move expr from src coordinates to dst coordinates.

    base_map sends src base variables to polynomials over dst.all_vars;
    the image of each variable that occurs comes from _variable_image,
    which MonomialImages.transported shares.
    level selects exact base-ring coefficients ("R") or the residue
    field ("res"); inputs are coerced to that level.
    """
    ring = dst_pres.ring if level == "R" else dst_pres.res
    red = dst_pres.red_R if level == "R" else dst_pres.red
    expr = _at_level(expr, src_pres, level)
    used = set()
    for e in expr.terms:
        for name, k in zip(expr.vars, e):
            if k:
                used.add(name)
    mapping = {name: _variable_image(name, src_pres, base_map, dst_pres, level)
               for name in used}
    return red.normal_form(expr.subst(mapping, ring=ring, vars=dst_pres.all_vars))


class MonomialImages:
    """Residue normal forms nf(seed * prod_n image_of(n)^e_n) in pres, by
    exponent tuple e over names, filled lazily: the multiplication-matrix
    idea of Faugere, Gianni, Lazard & Mora's FGLM.

    Two kinds of table exist.  A shifted table's images are the names
    themselves: seeded with a Jacobian entry J, entry m is nf(J * x^m),
    the block entry of a lift condition in wf.di.  A transported table's
    images are those of a transition or chart map; the witness pair rows
    of wf.di seed one with a moved gradient entry, so its entries are
    already in the overlap's a-side chart.

    image_of(n) is called once per name, the first time an exponent
    needs it, so a name that never occurs never raises.  A new entry is
    the cached entry one lower in its last nonzero exponent times one
    image, normal-formed once.  The residue normal form is canonical, so
    that equals normal-forming the whole product at once.  An image that
    is one term with coefficient 1 (every image of a shifted table) is
    kept as its exponent tuple and shifts the entry's exponents, with no
    product.  The names in `free` are variables whose image is
    themselves and which head no rule and sit in no localization pair:
    a normal form times one of them is already a normal form, so those
    entries skip normal_form.
    A table keeps pres's residue normal form, ring and variables, not
    pres itself, so a chart can keep the Jacobian tables of its lift
    conditions (Presentation.conditions) without a reference cycle; the
    other tables live for one call.
    """

    __slots__ = ("nf", "res", "all_vars", "names", "image_of", "images",
                 "free", "entries")

    def __init__(self, pres, names, image_of, seed, free=()):
        self.nf = pres.red.normal_form
        self.res = pres.res
        self.all_vars = pres.all_vars
        self.names = tuple(names)
        self.image_of = image_of
        self.images = [None] * len(self.names)
        self.free = tuple(name in free for name in self.names)
        self.entries = {(0,) * len(self.names): self.nf(seed)}

    @classmethod
    def shifted(cls, pres, names, seed):
        """nf(seed * x^e) in pres, for monomials over names, a subset of
        pres.all_vars; seeded with a Jacobian entry J, entry m is the
        block entry nf(J * x^m) of wf.di."""
        res, all_vars, red = pres.res, pres.all_vars, pres.red
        bound = set(red.monic_rules).union(*red.loc_pairs)
        return cls(pres, names,
                   lambda name: MvPoly.var(res, all_vars, name), seed,
                   free=set(names) - bound)

    @classmethod
    def transported(cls, src_pres, base_map, dst_pres, seed=None):
        """nf(seed * transport(x^e, src_pres, base_map, dst_pres)) at the
        residue level, for monomials over src_pres.all_vars; seed is over
        dst_pres (default 1)."""
        if seed is None:
            seed = MvPoly.const(dst_pres.res, dst_pres.all_vars, 1)
        return cls(dst_pres, src_pres.all_vars,
                   lambda name: _variable_image(name, src_pres, base_map, dst_pres),
                   seed)

    def _image(self, k):
        """The image of names[k]: its exponent tuple when it is one term
        with coefficient 1, the polynomial otherwise."""
        img = self.image_of(self.names[k])
        if len(img.terms) == 1:
            (e, c), = img.terms.items()
            if self.res.eq(c, self.res.one()):
                return e
        return img

    def __getitem__(self, e):
        entries = self.entries
        chain = []
        while e not in entries:
            k = max(i for i, a in enumerate(e) if a)
            chain.append((e, k))
            e = e[:k] + (e[k] - 1,) + e[k + 1:]
        val = entries[e]
        for e, k in reversed(chain):
            img = self.images[k]
            if img is None:
                img = self.images[k] = self._image(k)
            if img.__class__ is tuple:
                # adding one exponent tuple is injective: no two terms merge
                val = MvPoly(self.res, self.all_vars,
                             {tuple(map(_plus, e2, img)): c
                              for e2, c in val.terms.items()}, _clean=False)
            else:
                val = val * img
            if not self.free[k]:
                val = self.nf(val)
            entries[e] = val
        return val


def _parse_images(images, ring, pres):
    """Images of base variables as polynomials over pres.all_vars; text
    is parsed there, polynomials are kept as given."""
    return {k: v if isinstance(v, MvPoly) else parse_poly(v, ring, pres.all_vars)
            for k, v in images.items()}


def _texts(images):
    return {k: v.to_text() for k, v in images.items()}


def _fields(data, what, *keys):
    """data[key] for each key; ParseError unless data is an object with
    every key, naming the first key missing."""
    require_type(data, dict, what)
    for key in keys:
        if key not in data:
            raise ParseError("%s has no %r" % (what, key))
    return [data[key] for key in keys]


def _names(value, what):
    """A list of variable names as a tuple; ParseError otherwise, so a
    string is not read one character per name."""
    for name in require_type(value, list, what):
        require_type(name, str, what + " entry")
    return tuple(value)


# An overlap seen from the ordered pair (a, b): both localized sides, the
# transition maps (map_ab: a-side base vars -> polys over pres_b) and the
# inverted functions.
OverlapView = namedtuple("OverlapView",
                         "pres_a pres_b map_ab map_ba invert_a invert_b")


class GluedScheme:
    """Patches glued along overlaps, each given as a document writes it
    (i < j, invert_i, invert_j, to_j, to_i).  Every OverlapView is built
    here, once: (a, a) for each patch, and both orders of each overlap."""

    __slots__ = ("name", "ring", "patches", "views", "genus")

    def __init__(self, name, ring, patches, overlaps=(), genus=None):
        self.name = name
        self.ring = ring
        self.patches = tuple(patches)
        views = {}
        for a, pres in enumerate(self.patches):
            ident = {v: MvPoly.var(ring, pres.all_vars, v) for v in pres.vars}
            views[(a, a)] = OverlapView(pres, pres, ident, dict(ident), None, None)
        for ov in overlaps:
            i, j, to_j, to_i = _fields(ov, "overlap", "i", "j", "to_j", "to_i")
            if not (require_type(i, int, "overlap index i")
                    < require_type(j, int, "overlap index j")):
                raise WfError("store overlaps with i < j")
            require_type(to_j, dict, "overlap to_j")
            require_type(to_i, dict, "overlap to_i")
            if i < 0 or j >= len(self.patches):
                raise WfError("overlap (%d,%d) names a patch outside 0..%d"
                              % (i, j, len(self.patches) - 1))
            if (i, j) in views:
                raise WfError("overlap (%d,%d) is given twice" % (i, j))
            invert_i, invert_j = ov.get("invert_i"), ov.get("invert_j")
            pres_i = self.patches[i].localize((invert_i,))
            pres_j = self.patches[j].localize((invert_j,))
            to_j = _parse_images(to_j, ring, pres_j)
            to_i = _parse_images(to_i, ring, pres_i)
            views[(i, j)] = OverlapView(pres_i, pres_j, to_j, to_i,
                                        invert_i, invert_j)
            views[(j, i)] = OverlapView(pres_j, pres_i, to_i, to_j,
                                        invert_j, invert_i)
        self.views = views
        self.genus = genus

    def overlap_pairs(self):
        return sorted((a, b) for (a, b) in self.views if a < b)

    def triples(self):
        pairs = set(self.overlap_pairs())
        return [(i, j, k) for i, j, k in combinations(range(len(self.patches)), 3)
                if {(i, j), (i, k), (j, k)} <= pairs]

    def view(self, a, b):
        """OverlapView for the ordered pair (a, b)."""
        v = self.views.get((a, b))
        if v is None:
            raise WfError("no overlap between patches %d and %d" % (a, b))
        return v

    def to_json(self):
        overlaps = []
        for (i, j) in self.overlap_pairs():
            v = self.views[(i, j)]
            overlaps.append({"i": i, "j": j,
                             "invert_i": v.invert_a, "invert_j": v.invert_b,
                             "to_j": _texts(v.map_ab), "to_i": _texts(v.map_ba)})
        data = {"name": self.name, "ring": self.ring.to_json(),
                "patches": [p.to_json() for p in self.patches],
                "overlaps": overlaps}
        if self.genus is not None:
            data["genus"] = self.genus
        return data

    @classmethod
    def from_json(cls, data, ring=None):
        name, patch_data = _fields(data, "scheme document", "name", "patches")
        if ring is None:
            ring = BaseRingSpec.from_json(*_fields(data, "scheme document", "ring"))
        patches = []
        for p in require_type(patch_data, list, "scheme patches"):
            pname, pvars = _fields(p, "patch", "name", "vars")
            patches.append(Presentation(
                pname, ring, _names(pvars, "patch vars"),
                require_type(p.get("relations", []), list, "patch relations"),
                _names(p.get("inverted", []), "patch inverted")))
        overlaps = require_type(data.get("overlaps", []), list, "scheme overlaps")
        genus = data.get("genus")
        if genus is not None:
            require_at_least(require_type(genus, int, "genus"), 0, "genus")
            # a chart that is a plane curve of degree d is open in the
            # smooth model, which is its normalization: g <= (d-1)(d-2)/2
            for pres in patches:
                if len(pres.vars) == 2 and len(pres.relations) == 1:
                    d = pres.relations[0].total_deg()
                    cap = (d - 1) * (d - 2) // 2
                    if d >= 1 and genus > cap:
                        raise WfError(
                            "genus %d exceeds %d, the most a plane curve of "
                            "degree %d has (chart %r)"
                            % (genus, cap, d, pres.name))
        return cls(name, ring, patches, overlaps, genus=genus)


# -- gluing validation ---------------------------------------------------------


def validate_gluing(scheme: GluedScheme):
    """Round trips on every overlap, cocycle identity on every triple.

    Exact check over the base ring, not just mod pi.  Raises
    TransitionError with the offending data; returns True otherwise.
    """
    for (i, j) in scheme.overlap_pairs():
        for v in (scheme.view(i, j), scheme.view(j, i)):
            for name in v.pres_a.vars:
                x = MvPoly.var(scheme.ring, v.pres_a.all_vars, name)
                img = transport(x, v.pres_a, v.map_ab, v.pres_b, level="R")
                back = transport(img, v.pres_b, v.map_ba, v.pres_a, level="R")
                expect = v.pres_a.nf_R(x)
                if back != expect:
                    raise TransitionError(
                        "round trip failed on overlap (%d,%d) at %r: %s != %s"
                        % (i, j, name, back.to_text(), expect.to_text()))
    for (i, j, k) in scheme.triples():
        vij = scheme.view(i, j)
        vik = scheme.view(i, k)
        vjk = scheme.view(j, k)
        triple_k = scheme.patches[k].localize((vik.invert_b, vjk.invert_b))
        for name in scheme.patches[i].vars:
            x = MvPoly.var(scheme.ring, vik.pres_a.all_vars, name)
            direct = transport(x, vik.pres_a, vik.map_ab, triple_k, level="R")
            step = transport(MvPoly.var(scheme.ring, vij.pres_a.all_vars, name),
                             vij.pres_a, vij.map_ab, vij.pres_b, level="R")
            composed = transport(step, vjk.pres_a.localize((vij.invert_b,)),
                                 vjk.map_ab, triple_k, level="R")
            if direct != composed:
                raise TransitionError(
                    "cocycle failed on triple (%d,%d,%d) at %r: %s != %s"
                    % (i, j, k, name, direct.to_text(), composed.to_text()))
    return True


# -- morphisms -------------------------------------------------------------------


class ChartMap:
    """Target patch index, pullbacks of the target base variables and an
    optional section, as given (polynomials or text)."""

    __slots__ = ("target_index", "pullback", "section")

    def __init__(self, target_index, pullback, section=None):
        self.target_index = require_type(target_index, int, "chart target")
        self.pullback = dict(require_type(pullback, dict, "chart pullback"))
        self.section = (dict(require_type(section, dict, "chart section"))
                        if section else None)

    def to_json(self):
        data = {"target": self.target_index, "pullback": _texts(self.pullback)}
        if self.section:
            data["section"] = _texts(self.section)
        return data


class SchemeMorphism:
    __slots__ = ("name", "source", "target", "charts", "kind")

    def __init__(self, name, source, target, charts, kind=None):
        if not source.ring.same(target.ring):
            # coefficients cannot move between the two sides
            raise SpecMismatch("morphism source ring %r differs from its "
                               "target ring %r" % (source.ring, target.ring))
        self.name = name
        self.source = source
        self.target = target
        charts = tuple(charts)
        if len(charts) != len(source.patches):
            raise WfError("one chart map per source patch is required")
        for i, c in enumerate(charts):
            if not 0 <= c.target_index < len(target.patches):
                raise WfError("chart %d maps to target patch %d, outside 0..%d"
                              % (i, c.target_index, len(target.patches) - 1))
        self.charts = tuple(
            ChartMap(c.target_index,
                     _parse_images(c.pullback, source.ring, source.patches[i]),
                     c.section and _parse_images(c.section, target.ring,
                                                 target.patches[c.target_index]))
            for i, c in enumerate(charts))
        self.kind = kind

    def target_patch(self, i):
        return self.target.patches[self.charts[i].target_index]

    def to_json(self):
        return {"name": self.name, "kind": self.kind,
                "source": self.source.to_json(), "target": self.target.to_json(),
                "charts": [c.to_json() for c in self.charts]}

    @classmethod
    def from_json(cls, data, ring=None):
        src, tgt, chart_data = _fields(data, "morphism document",
                                       "source", "target", "charts")
        source = GluedScheme.from_json(require_type(src, dict, "morphism source"), ring)
        target = GluedScheme.from_json(require_type(tgt, dict, "morphism target"), ring)
        charts = [ChartMap(*_fields(c, "chart", "target", "pullback"), c.get("section"))
                  for c in require_type(chart_data, list, "morphism charts")]
        return cls(data.get("name", "morphism"), source, target, charts,
                   kind=data.get("kind"))


def validate_morphism(m: SchemeMorphism):
    """Both gluings hold; every pullback names a target chart variable
    and a companion's given image inverts its base variable's; relations
    pull back to zero; chart maps agree on overlaps."""
    validate_gluing(m.source)
    validate_gluing(m.target)
    for i, chart in enumerate(m.charts):
        src = m.source.patches[i]
        tgt = m.target_patch(i)
        for name in chart.pullback:
            if name not in tgt.all_vars:
                raise WfError("chart %d pulls back %r, which is not a variable "
                              "of target chart %r" % (i, name, tgt.name))
        for name in tgt.vars:
            if name not in chart.pullback:
                raise WfError("chart %d has no pullback for %r" % (i, name))
        for u, v in tgt.loc_pairs:
            if u in chart.pullback and not src.nf_R(
                    chart.pullback[u] * chart.pullback[v] - 1).is_zero():
                raise WfError("chart %d: the pullback of %r is not the inverse "
                              "of the pullback of %r" % (i, u, v))
        for g in tgt.relations:
            img = transport(g, tgt, chart.pullback, src, level="R")
            if not img.is_zero():
                raise WfError(
                    "relation %s does not pull back to zero on chart %d"
                    % (g.to_text(), i))
    # overlap agreement: both routes from a target variable into the
    # source overlap ring must agree
    for (i, j) in m.source.overlap_pairs():
        sv = m.source.view(i, j)
        ti, tj = m.charts[i].target_index, m.charts[j].target_index
        tv = m.target.view(ti, tj)
        src_i = sv.pres_a
        for name in tv.pres_a.vars:
            direct = src_i.nf_R(m.charts[i].pullback[name])
            via_j = transport(MvPoly.var(m.source.ring, tv.pres_a.all_vars, name),
                              tv.pres_a, tv.map_ab, tv.pres_b, level="R")
            pulled = transport(via_j, tv.pres_b, m.charts[j].pullback,
                               sv.pres_b, level="R")
            crossed = transport(pulled, sv.pres_b, sv.map_ba, src_i, level="R")
            if direct != crossed:
                raise TransitionError(
                    "pullbacks of %r disagree on source overlap (%d,%d): %s != %s"
                    % (name, i, j, direct.to_text(), crossed.to_text()))
    _validate_kind(m)
    return True


def _validate_kind(m: SchemeMorphism):
    if m.kind is None:
        return
    if m.kind == "closed_immersion":
        for i, chart in enumerate(m.charts):
            src = m.source.patches[i]
            tgt = m.target_patch(i)
            if not chart.section:
                raise KindMismatch("closed immersion chart %d needs a section" % (i,))
            for name in src.vars:
                if name not in chart.section:
                    raise KindMismatch("no section entry for source variable %r" % (name,))
                round_trip = transport(chart.section[name], tgt, chart.pullback,
                                       src, level="R")
                expect = src.nf_R(MvPoly.var(m.source.ring, src.all_vars, name))
                if round_trip != expect:
                    raise KindMismatch(
                        "section of %r does not split the pullback on chart %d"
                        % (name, i))
    elif m.kind == "projection":
        for i, chart in enumerate(m.charts):
            src = m.source.patches[i]
            seen = set()
            for name, img in chart.pullback.items():
                nz = [(v, k) for e in img.terms for v, k in zip(img.vars, e) if k]
                if len(img.terms) != 1 or len(nz) != 1 or nz[0][1] != 1:
                    raise KindMismatch(
                        "projection pullback of %r is not a bare variable" % (name,))
                if nz[0][0] in seen:
                    raise KindMismatch("projection pullbacks collide on %r" % (nz[0][0],))
                seen.add(nz[0][0])
    elif m.kind == "etale":
        for i in range(len(m.charts)):
            relative_jacobian_unit(m, i)
    else:
        raise KindMismatch("unknown morphism kind %r" % (m.kind,))


def relative_jacobian_unit(m: SchemeMorphism, i):
    """Certify the twisted relative Jacobian of chart i is a unit mod pi.

    Square check on base variables, rows from twisted_gradient so that a
    pullback through companions (t -> x_inv) is differentiated too;
    NotEtale when the determinant is not certified invertible in the
    source coordinate ring.
    """
    src = m.source.patches[i]
    tgt = m.target_patch(i)
    if len(src.vars) != len(tgt.vars):
        raise NotEtale("chart %d relates %d variables to %d"
                       % (i, len(src.vars), len(tgt.vars)))
    zero = MvPoly.zero(src.res, src.all_vars)
    rows = []
    for tname in tgt.vars:
        grad = twisted_gradient(src, m.charts[i].pullback[tname])
        rows.append([grad.get(xname, zero) for xname in src.vars])
    det = _poly_det(rows, src)
    inv = src.red.try_invert(det)
    if inv is None:
        raise NotEtale("relative Jacobian determinant %s is not certified a unit"
                       % (det.to_text(),))
    return det, inv


def _poly_det(rows, pres):
    n = len(rows)
    if n == 0:
        return MvPoly.const(pres.res, pres.all_vars, 1)
    if n == 1:
        return rows[0][0]
    total = MvPoly.zero(pres.res, pres.all_vars)
    for c in range(n):
        minor = [[rows[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        piece = rows[0][c] * _poly_det(minor, pres)
        total = total + piece if c % 2 == 0 else total - piece
    return pres.nf(total)


# -- twisted derivations ----------------------------------------------------------


class FDerSection:
    """Sum g_v F*(d/dv) over the base variables of one presentation."""

    __slots__ = ("pres", "coeffs")

    def __init__(self, pres, coeffs):
        self.pres = pres
        table = {}
        for v in pres.vars:
            g = coeffs.get(v)
            if g is None:
                g = MvPoly.zero(pres.res, pres.all_vars)
            else:
                g = pres.to_res(g)
            table[v] = pres.nf(g)
        self.coeffs = table

    def is_zero(self):
        return all(g.is_zero() for g in self.coeffs.values())

    def __add__(self, other):
        return FDerSection(self.pres, {v: self.coeffs[v] + other.coeffs[v]
                                       for v in self.pres.vars})

    def __sub__(self, other):
        return FDerSection(self.pres, {v: self.coeffs[v] - other.coeffs[v]
                                       for v in self.pres.vars})

    def __neg__(self):
        return FDerSection(self.pres, {v: -self.coeffs[v] for v in self.pres.vars})

    def __eq__(self, other):
        if not isinstance(other, FDerSection):
            return NotImplemented
        return all(self.coeffs[v] == other.coeffs[v] for v in self.pres.vars)


def fold_companions(pres: Presentation, table):
    """Move entries keyed by companions onto their base variables.

    table maps base and companion names to residue polynomials; the
    entry of the companion u = 1/v joins v's as -u^(2q) * entry, which
    is D(u) = -u^(2q) D(v).  Keys are the base variables; every entry is
    normal-formed and entries that vanish are omitted.
    """
    out = {v: table[v] for v in pres.vars if v in table}
    for u, v in pres.loc_pairs:
        g = table.get(u)
        if g is None:
            continue
        shift = MvPoly.var(pres.res, pres.all_vars, u, 2 * pres.q) * g
        out[v] = out.get(v, MvPoly.zero(pres.res, pres.all_vars)) - shift
    out = {v: pres.nf(g) for v, g in out.items()}
    return {v: g for v, g in out.items() if not g.is_zero()}


def twisted_partials(pres: Presentation, f: MvPoly):
    """Residue partials of f over pres.all_vars, companions included, with
    exponents q-scaled; vanishing ones are omitted, none is normal-formed."""
    f = pres.to_res(f)
    partials = {}
    for name in pres.all_vars:
        d = f.partial(name)
        if not d.is_zero():
            partials[name] = d.q_power_vars(pres.q)
    return partials


def twisted_gradient(pres: Presentation, f: MvPoly):
    """Coefficients M_v with D(f) = sum_v D(v) * M_v for any F-derivation D:
    the twisted partials of f folded by fold_companions.  Built once per
    residue polynomial and kept in pres.gradients; callers must not
    mutate the dict or its polynomials."""
    f = pres.to_res(f)
    key = tuple(f.terms.items())
    grad = pres.gradients.get(key)
    if grad is None:
        grad = pres.gradients[key] = fold_companions(pres, twisted_partials(pres, f))
    return grad


def fder_apply(pres: Presentation, coeffs, f: MvPoly) -> MvPoly:
    """Twisted chain rule: D(f) = sum_v D(v) * (df/dv with exponents q-scaled).

    Companion variables contribute through the forced value
    D(v_inv) = -v_inv^(2q) D(v).  The result is normal-formed.
    """
    out = MvPoly.zero(pres.res, pres.all_vars)
    for v, m in twisted_gradient(pres, f).items():
        g = coeffs.get(v)
        if g is None or g.is_zero():
            continue
        out = out + pres.to_res(g) * m
    return pres.nf(out)


# -- built-in schemes ---------------------------------------------------------------


_AFFINE_NAMES = ("x", "y", "z", "w")


def affine_names(n):
    if n <= len(_AFFINE_NAMES):
        return _AFFINE_NAMES[:n]
    return tuple("x%d" % (k + 1,) for k in range(n))


def affine_space(ring, n, name=None):
    patch = Presentation("A%d" % (n,), ring, affine_names(n))
    return GluedScheme(name or "A%d" % (n,), ring, [patch])


def multiplicative_group(ring):
    patch = Presentation("Gm", ring, ("x",), inverted=("x",))
    return GluedScheme("Gm", ring, [patch])


def projective_line(ring):
    c0 = Presentation("U0", ring, ("x",))
    c1 = Presentation("U1", ring, ("u",))
    ov = {"i": 0, "j": 1, "invert_i": "x", "invert_j": "u",
          "to_j": {"x": "u_inv"}, "to_i": {"u": "x_inv"}}
    return GluedScheme("P1", ring, [c0, c1], [ov])


def projective_plane(ring):
    # charts of [X0:X1:X2]: U0 has (a,b) = (X1/X0, X2/X0),
    # U1 has (c,d) = (X0/X1, X2/X1), U2 has (e,g) = (X0/X2, X1/X2)
    c0 = Presentation("U0", ring, ("a", "b"))
    c1 = Presentation("U1", ring, ("c", "d"))
    c2 = Presentation("U2", ring, ("e", "g"))
    ov01 = {"i": 0, "j": 1, "invert_i": "a", "invert_j": "c",
            "to_j": {"a": "c_inv", "b": "d*c_inv"},
            "to_i": {"c": "a_inv", "d": "b*a_inv"}}
    ov02 = {"i": 0, "j": 2, "invert_i": "b", "invert_j": "e",
            "to_j": {"a": "g*e_inv", "b": "e_inv"},
            "to_i": {"e": "b_inv", "g": "a*b_inv"}}
    ov12 = {"i": 1, "j": 2, "invert_i": "d", "invert_j": "g",
            "to_j": {"c": "e*g_inv", "d": "g_inv"},
            "to_i": {"e": "c*d_inv", "g": "d_inv"}}
    return GluedScheme("P2", ring, [c0, c1, c2], [ov01, ov02, ov12])


def weierstrass_curve(ring, a, b):
    """y^2 = x^3 + a x + b with its standard chart at infinity."""
    p = ring.p
    if p == 2:
        raise NonSmooth("short Weierstrass models are singular in characteristic 2")
    disc = (4 * a ** 3 + 27 * b ** 2) % p
    if disc == 0:
        raise NonSmooth("discriminant vanishes mod %d" % (p,))
    aff = Presentation("Eaff", ring, ("x", "y"),
                       relations=["y^2 - x^3 - %d*x - %d" % (a % p, b % p)])
    inf = Presentation("Einf", ring, ("w", "z"),
                       relations=["w^3 - z + %d*w*z^2 + %d*z^3" % (a % p, b % p)])
    ov = {"i": 0, "j": 1, "invert_i": "y", "invert_j": "z",
          "to_j": {"x": "w*z_inv", "y": "-z_inv"},
          "to_i": {"w": "-x*y_inv", "z": "-y_inv"}}
    return GluedScheme("E[%d,%d]" % (a % p, b % p), ring, [aff, inf], [ov],
                       genus=1)


def _univariate_separable(h, p):
    """gcd(h, h') = 1 over F_p, for h given low-to-high with h[-1] != 0 mod
    p: the 2d - 1 rows of the Sylvester matrix of h and h', h' taken at
    formal degree d - 1, are independent.  h' = 0 gives zero rows."""
    d = len(h) - 1
    dh = [k * c for k, c in enumerate(h)][1:]
    table = {}
    return all(insert_row(p, table, dict(enumerate(f, k))) is not None
               for f, n in ((h, d - 1), (dh, d)) for k in range(n))


def hyperelliptic_curve(ring, h_coeffs):
    """y^2 = h(x), h given low-to-high; two charts, w^2 = v^(2g+2) h(1/v)."""
    p = ring.p
    if p == 2:
        raise NonSmooth("y^2 = h(x) is singular in characteristic 2")
    h = [c % p for c in h_coeffs]
    while h and h[-1] == 0:
        h.pop()
    d = len(h) - 1
    if d < 3:
        raise WfError("need deg h >= 3")
    g = (d - 1) // 2
    mdeg = g + 1
    # twisted model: w^2 = sum h_k v^(2g+2-k)
    ht = [0] * (2 * g + 3)
    for k, c in enumerate(h):
        ht[2 * g + 2 - k] = c
    # ht is rev(h), or v * rev(h) with rev(h)(0) = h_d != 0; reversal keeps
    # the multiplicity of every nonzero root, so ht is separable with h
    if not _univariate_separable(h, p):
        raise NonSmooth("h has a repeated root mod %d" % (p,))

    def double_cover(names, coeffs):
        # names[1]^2 - sum of coeffs[k] * names[0]^k, highest k first
        terms = {(0, 2): ring.one()}
        for k in range(len(coeffs) - 1, -1, -1):
            terms[(k, 0)] = ring.from_int(-coeffs[k])
        return MvPoly(ring, names, terms)

    aff = Presentation("Haff", ring, ("x", "y"),
                       relations=[double_cover(("x", "y"), h)])
    inf = Presentation("Hinf", ring, ("v", "w"),
                       relations=[double_cover(("v", "w"), ht)])
    ov = {"i": 0, "j": 1, "invert_i": "x", "invert_j": "v",
          "to_j": {"x": "v_inv", "y": "w*v_inv^%d" % (mdeg,)},
          "to_i": {"v": "x_inv", "w": "y*x_inv^%d" % (mdeg,)}}
    return GluedScheme("H[deg %d]" % (d,), ring, [aff, inf], [ov], genus=g)


BUILTIN_SCHEMES = {
    "a1": lambda ring: affine_space(ring, 1),
    "a2": lambda ring: affine_space(ring, 2),
    "a3": lambda ring: affine_space(ring, 3),
    "gm": multiplicative_group,
    "p1": projective_line,
    "p2": projective_plane,
    "weierstrass": lambda ring: weierstrass_curve(ring, 1, 0),
    "genus2": lambda ring: hyperelliptic_curve(ring, [-1, 0, 0, 0, 0, 1]),
}


# -- built-in morphisms ----------------------------------------------------------


def imm_parabola(ring):
    """V(y - x^2) inside the affine plane, a closed immersion."""
    curve = GluedScheme("parabola", ring,
                        [Presentation("C", ring, ("x", "y"), relations=["y - x^2"])])
    plane = affine_space(ring, 2)
    chart = ChartMap(0, pullback={"x": "x", "y": "y"}, section={"x": "x", "y": "y"})
    return SchemeMorphism("parabola_in_a2", curve, plane, [chart],
                          kind="closed_immersion")


def proj_plane_to_line(ring):
    plane = affine_space(ring, 2)
    line = affine_space(ring, 1)
    chart = ChartMap(0, pullback={"x": "x"})
    return SchemeMorphism("a2_to_a1", plane, line, [chart], kind="projection")


def etale_gm_square(ring):
    src = multiplicative_group(ring)
    tgt = GluedScheme("Gm", ring, [Presentation("Gm", ring, ("t",), inverted=("t",))])
    chart = ChartMap(0, pullback={"t": "x^2"})
    return SchemeMorphism("gm_square", src, tgt, [chart], kind="etale")


def weierstrass_in_p2(ring):
    """The curve y^2 = x^3 + x inside the projective plane."""
    curve = weierstrass_curve(ring, 1, 0)
    plane = projective_plane(ring)
    chart0 = ChartMap(0, pullback={"a": "x", "b": "y"},
                      section={"x": "a", "y": "b"})
    chart1 = ChartMap(2, pullback={"e": "-z", "g": "-w"},
                      section={"w": "-g", "z": "-e"})
    return SchemeMorphism("weierstrass_in_p2", curve, plane, [chart0, chart1],
                          kind="closed_immersion")


BUILTIN_MORPHISMS = {
    "parabola_in_a2": imm_parabola,
    "a2_to_a1": proj_plane_to_line,
    "gm_square": etale_gm_square,
    "weierstrass_in_p2": weierstrass_in_p2,
}
