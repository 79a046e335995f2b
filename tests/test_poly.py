"""Sparse polynomial arithmetic, parsing, and monic normal forms."""

import itertools
import random
from graphlib import TopologicalSorter

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.errors import NonSmooth, NotPrepared, ParseError, VariableMismatch
from wf.poly import MvPoly, ReductionContext, parse_poly
from wf.scheme import BUILTIN_MORPHISMS, BUILTIN_SCHEMES


def rand_poly(ring, vars, rng, deg=4, terms=6, span=9, coeff=None):
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        budget = rng.randint(0, deg)
        for _ in range(budget):
            e[rng.randrange(len(vars))] += 1
        out[tuple(e)] = (coeff(ring, rng) if coeff
                         else ring.from_int(rng.randint(-span, span)))
    return MvPoly(ring, vars, out)


def test_parse_and_text_round_trip():
    rng = random.Random(31)
    ring = IntRing(5)
    vars = ("x", "y", "z")
    for _ in range(200):
        f = rand_poly(ring, vars, rng)
        assert parse_poly(f.to_text(), ring, vars) == f


def test_parse_accepts_standard_forms():
    ring = IntRing(3)
    vars = ("x", "y")
    f = parse_poly("x^2*y - 3*x + 7", ring, vars)
    assert f.degree_in("x") == 2
    assert f.evaluate({"x": 1, "y": 1}) == 5
    assert parse_poly("-x", ring, vars) == -MvPoly.var(ring, vars, "x")
    assert parse_poly("(x + y)^2", ring, vars) == \
        parse_poly("x^2 + 2*x*y + y^2", ring, vars)
    assert parse_poly("0", ring, vars).is_zero()


def test_parse_error_carries_position():
    ring = IntRing(3)
    with pytest.raises(ParseError) as info:
        parse_poly("x^^2", ring, ("x",))
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_poly("x + q", ring, ("x",))
    assert info.value.position is not None


def test_arithmetic_laws():
    rng = random.Random(32)
    ring = IntModRing(7, 2)
    vars = ("x", "y")
    for _ in range(120):
        f = rand_poly(ring, vars, rng)
        g = rand_poly(ring, vars, rng)
        h = rand_poly(ring, vars, rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == MvPoly.zero(ring, vars)
        assert (f * g) * h == f * (g * h)


def test_zero_coefficients_dropped():
    ring = IntModRing(3)
    vars = ("x",)
    f = MvPoly(ring, vars, {(1,): 3, (0,): 1})
    assert f.terms == {(0,): 1}
    x = MvPoly.var(ring, vars, "x")
    assert (x + 2 * x).is_zero()


def test_partial_derivative():
    ring = IntRing(3)
    f = parse_poly("x^3*y + 2*x*y^2 - 5", ring, ("x", "y"))
    assert f.partial("x") == parse_poly("3*x^2*y + 2*y^2", ring, ("x", "y"))
    assert f.partial("y") == parse_poly("x^3 + 4*x*y", ring, ("x", "y"))


def test_q_power_and_frobenius_twist():
    ring = IntModRing(3)
    vars = ("x", "y")
    f = parse_poly("x^2*y + 2*x", ring, vars)
    g = f.q_power_vars(3)
    assert g == parse_poly("x^6*y^3 + 2*x^3", ring, vars)
    # over F_p, f(X)^p = f(X^p): the coefficient Frobenius is the identity
    assert f ** 3 == f.q_power_vars(3)


def test_subst_and_evaluate_agree():
    rng = random.Random(33)
    ring = IntRing(2)
    vars = ("x", "y")
    for _ in range(60):
        f = rand_poly(ring, vars, rng, deg=3)
        gx = rand_poly(ring, vars, rng, deg=2, terms=3)
        gy = rand_poly(ring, vars, rng, deg=2, terms=3)
        h = f.subst({"x": gx, "y": gy}, ring, vars)
        pt = {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}
        inner = {"x": gx.evaluate(pt), "y": gy.evaluate(pt)}
        assert h.evaluate(pt) == f.evaluate(inner)


def test_extend_vars():
    ring = IntRing(3)
    f = parse_poly("x^2 + 1", ring, ("x",))
    g = f.extend_vars(("x", "y"))
    assert g.vars == ("x", "y")
    assert g.degree_in("y") == 0
    with pytest.raises(VariableMismatch):
        f + parse_poly("y", ring, ("y",))


def test_normal_form_reduces_relations_to_zero():
    rng = random.Random(34)
    ring = IntModRing(5)
    vars = ("x", "y")
    rel = parse_poly("y^2 - x^3 - x", ring, vars)
    red = ReductionContext(ring, vars, [rel])
    for _ in range(80):
        f = rand_poly(ring, vars, rng, deg=5)
        g = rand_poly(ring, vars, rng, deg=5)
        assert red.normal_form(rel * f).is_zero()
        # normal form is a ring hom modulo the ideal
        lhs = red.normal_form(f * g)
        rhs = red.normal_form(red.normal_form(f) * red.normal_form(g))
        assert lhs == rhs
        nf = red.normal_form(f)
        assert red.normal_form(nf) == nf
        # the rule orients on the first eligible variable, x^3 here
        assert nf.degree_in("x") < 3


def test_localization_pairs_strike():
    ring = IntModRing(3)
    vars = ("x", "x_inv")
    red = ReductionContext(ring, vars, (), [("x", "x_inv")])
    f = parse_poly("x^3*x_inv^2 + x*x_inv", ring, vars)
    assert red.normal_form(f) == parse_poly("x + 1", ring, vars)


def test_normal_form_canonical_on_localized_chart():
    # the rule must not be headed by a member of a localization pair:
    # x^5 -> y^2 + 1 would leave x_inv*(y^2 + 1) and x^4 as distinct
    # normal forms of the same element, so the context reorients to
    # y^2 -> x^5 - 1, whichever way round the pair is given
    ring = IntModRing(3)
    vars = ("x", "y", "x_inv")
    rel = parse_poly("y^2 - x^5 + 1", ring, vars)
    for pair in (("x", "x_inv"), ("x_inv", "x")):
        red = ReductionContext(ring, vars, [rel], [pair])
        assert list(red.monic_rules) == ["y"]
        lhs = parse_poly("x_inv*y^2 + x_inv", ring, vars)
        assert red.normal_form(lhs) == red.normal_form(
            parse_poly("x^4", ring, vars))
        rng = random.Random(35)
        for _ in range(40):
            f = rand_poly(ring, vars, rng, deg=6)
            # multiplying by x*x_inv = 1 must not change the normal form
            assert red.normal_form(f * parse_poly("x*x_inv", ring, vars)) == \
                red.normal_form(f)


def test_avoid_is_ignored_without_alternative():
    ring = IntModRing(3)
    vars = ("x", "x_inv")
    rel = parse_poly("x^2 - 2", ring, vars)
    red = ReductionContext(ring, vars, [rel], [("x", "x_inv")])
    assert "x" in red.monic_rules


def test_unorientable_relation_refused():
    ring = IntModRing(2)
    vars = ("x", "y")
    # leading coefficients 2 vanish mod 2 and the cross term blocks both
    # remaining orientations
    bad = parse_poly("x*y + x + y", ring, vars)
    with pytest.raises(NotPrepared):
        ReductionContext(ring, vars, [bad])


def test_cyclic_rules_refused():
    ring = IntModRing(5)
    vars = ("x", "y")
    r1 = parse_poly("x^2 - y^3", ring, vars)
    r2 = parse_poly("y^4 - x", ring, vars)
    with pytest.raises(NotPrepared):
        ReductionContext(ring, vars, [r1, r2])


def test_high_power_merges_like_terms():
    # y^2 -> x^5 - 1 expands y^42 along ~2^21 paths term by term; merged,
    # each y^(2k) x^(5j) is rewritten once
    ring = IntModRing(7)
    vars = ("x", "y", "x_inv")
    rel = parse_poly("y^2 - x^5 + 1", ring, vars)
    red = ReductionContext(ring, vars, [rel], [("x", "x_inv")])
    assert red.normal_form(parse_poly("y^42", ring, vars)) == \
        parse_poly("x^5 - 1", ring, vars) ** 21


# -- the work-list rewriter as oracle -------------------------------------------


def worklist_normal_form(red, f):
    """Oracle: the term-at-a-time rewriter the heap replaced.  It never
    merges like terms, so its work grows with the number of rewrite
    paths; callers keep inputs small."""
    if f.vars != red.vars:
        f = f.extend_vars(red.vars)
    r = red.ring
    var_index = {name: red.vars.index(name) for name in red.monic_rules}
    loc_index = [(red.vars.index(u), red.vars.index(v)) for u, v in red.loc_pairs]
    out = {}
    work = list(f.terms.items())
    fuel = 200000
    while work:
        fuel -= 1
        assert fuel >= 0, "oracle input too large"
        e, c = work.pop()
        if r.is_zero(c):
            continue
        struck = None
        for iu, iv in loc_index:
            t = min(e[iu], e[iv])
            if t:
                struck = list(e) if struck is None else struck
                struck[iu] -= t
                struck[iv] -= t
        if struck is not None:
            e = tuple(struck)
        fired = False
        for name, (deg, rhs) in red.monic_rules.items():
            i = var_index[name]
            if e[i] >= deg:
                base = list(e)
                base[i] -= deg
                for e2, c2 in rhs.terms.items():
                    merged = tuple(a + b for a, b in zip(base, e2))
                    work.append((merged, r.mul(c, c2)))
                fired = True
                break
        if fired:
            continue
        if e in out:
            out[e] = r.add(out[e], c)
        else:
            out[e] = c
    return MvPoly(r, red.vars, out)


def builtin_presentations(ring):
    """Every chart and overlap chart of the builtin schemes and of the
    builtin morphisms' sources and targets that are smooth over ring."""
    schemes = []
    for build in BUILTIN_SCHEMES.values():
        try:
            schemes.append(build(ring))
        except NonSmooth:
            pass
    for build in BUILTIN_MORPHISMS.values():
        m = build(ring)
        schemes += [m.source, m.target]
    out = []
    for sch in schemes:
        out += sch.patches
        for i, j in sch.overlap_pairs():
            view = sch.view(i, j)
            out += [view.pres_a, view.pres_b]
    return out


def rand_coeff(ring, rng):
    """Random coefficient; over BaseRingSpec at a random precision."""
    if isinstance(ring, BaseRingSpec):
        return ring.elem([rng.randint(-60, 60) for _ in range(ring.e)],
                         rng.randint(1, ring.precision))
    return ring.from_int(rng.randint(-30, 30))


def assert_same_nf(red, f):
    got = red.normal_form(f)
    want = worklist_normal_form(red, f)
    assert got == want, (f, got, want)
    for e, c in got.terms.items():
        assert getattr(c, "prec", None) == getattr(want.terms[e], "prec", None)


def synthetic_contexts(ring):
    """Rule shapes the builtins lack: listed against their dependency
    order, a right-hand side that uses another rule's head, and a rule
    headed by an inverted variable (the fallback when no other variable
    can head it)."""
    chain_vars = ("y", "x", "z")
    chain = [parse_poly(t, ring, chain_vars)
             for t in ("x^2 - x*z - 2", "y^3 - x^2*z - x - y")]
    deep_vars = ("w", "y", "x", "z")
    deep = [parse_poly(t, ring, deep_vars)
            for t in ("x^2 - z - 1", "w^2 - y*x - z", "y^2 - x*z + y")]
    loc_vars = ("x", "y", "x_inv")
    loc = [parse_poly(t, ring, loc_vars)
           for t in ("x^3 - 2", "y^2 - x_inv - x*y")]
    return [ReductionContext(ring, chain_vars, chain),
            ReductionContext(ring, deep_vars, deep),
            ReductionContext(ring, loc_vars, loc, [("x_inv", "x")])]


def test_synthetic_rule_shapes():
    chain, deep, loc = synthetic_contexts(IntModRing(5))
    assert list(chain.monic_rules) == ["x", "y"]
    assert list(deep.monic_rules) == ["x", "w", "y"]
    assert list(loc.monic_rules) == ["x", "y"]
    # each rule before every rule its right-hand side uses
    assert [chain.vars[i] for i in chain._order] == ["y", "x"]
    assert [deep.vars[i] for i in deep._order] == ["w", "y", "x"]
    assert [loc.vars[i] for i in loc._order] == ["y", "x"]


def test_normal_form_matches_oracle_on_builtins():
    rng = random.Random(41)
    rings = (BaseRingSpec(3), BaseRingSpec(7), BaseRingSpec(5, precision=2),
             BaseRingSpec(3, [-3, 0, 1], 3))
    for ring in rings:
        for pres in builtin_presentations(ring):
            for red in (pres.red, pres.red_R):
                for _ in range(6):
                    f = rand_poly(red.ring, red.vars, rng, deg=8, terms=5,
                                  coeff=rand_coeff)
                    assert_same_nf(red, f)


def test_normal_form_matches_oracle_on_synthetic_rules():
    rng = random.Random(42)
    rings = (IntModRing(5), IntModRing(3, 2), IntRing(5),
             BaseRingSpec(5, precision=3), BaseRingSpec(3, [-3, 0, 1], 4))
    for ring in rings:
        for red in synthetic_contexts(ring):
            for _ in range(80):
                f = rand_poly(red.ring, red.vars, rng, deg=7, terms=5,
                              coeff=rand_coeff)
                assert_same_nf(red, f)


def test_zero_below_full_precision_is_rewritten():
    # y^3 and x*y^2 feed x*y^2 with 1 and -1, known mod 5 and mod 5^2: the
    # merged coefficient is zero mod 5 only, so its rewrite still lowers
    # the x term to precision 1, as the unmerged paths did
    ring = BaseRingSpec(5, precision=2)
    vars = ("x", "y")
    red = ReductionContext(ring, vars, [parse_poly("y^2 - x*y - 1", ring, vars)])
    f = MvPoly(ring, vars, {(0, 3): ring.elem((1,), 1),
                            (1, 2): ring.elem((-1,), 2),
                            (1, 0): ring.elem((3,), 2)})
    assert red.normal_form(f).terms == {(1, 0): ring.elem((3,), 1),
                                        (0, 1): ring.elem((1,), 1)}
    assert_same_nf(red, f)
    # 3*y^2 with 3 known mod 3^2 rewrites to 9*x, zero mod 3^2 but not
    # mod 3^4, so the x term is known mod 3^2 only; the term-at-a-time
    # rewriter dropped the product and claimed x mod 3^4
    ring = BaseRingSpec(3, precision=4)
    red = ReductionContext(ring, vars, [parse_poly("y^2 - 3*x", ring, vars)])
    f = MvPoly(ring, vars, {(0, 2): ring.elem((3,), 2), (1, 0): ring.one()})
    assert red.normal_form(f).terms == {(1, 0): ring.elem((1,), 2)}
    assert worklist_normal_form(red, f).terms == {(1, 0): ring.one()}


def test_normal_form_matches_sympy_reduced():
    # without localization the heads are coprime pure powers, so the rules
    # are a Groebner basis for lex with the heads first in topological
    # order, and the remainder is the unique normal form
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for p in (3, 5, 7):
        ring = IntModRing(p)
        contexts = [pres.red for pres in builtin_presentations(BaseRingSpec(p))
                    if not pres.loc_pairs and pres.red.monic_rules]
        contexts += [red for red in synthetic_contexts(ring) if not red.loc_pairs]
        for red in contexts:
            graph = {name: [other for other, (_, rhs) in red.monic_rules.items()
                            if other != name and rhs.degree_in(name) > 0]
                     for name in red.monic_rules}
            heads = list(TopologicalSorter(graph).static_order())
            names = heads + [v for v in red.vars if v not in heads]
            gens = sympy.symbols(names)
            perm = [red.vars.index(v) for v in names]

            def to_sympy(g):
                return sympy.Poly.from_dict(
                    {tuple(e[i] for i in perm): c for e, c in g.terms.items()},
                    *gens, modulus=p)

            basis = [to_sympy(MvPoly.var(ring, red.vars, name, deg) - rhs)
                     for name, (deg, rhs) in red.monic_rules.items()]
            for _ in range(12):
                f = rand_poly(red.ring, red.vars, rng, deg=9, coeff=rand_coeff)
                _, rem = sympy.reduced(to_sympy(f), basis, *gens,
                                       modulus=p, order="lex")
                want = {e: c % p for e, c in sympy.Poly(rem, *gens, modulus=p).terms()
                        if c % p}
                got = {tuple(e[i] for i in perm): c
                       for e, c in red.normal_form(f).terms.items()}
                assert got == want


def test_monomials_up_to():
    ring = IntModRing(3)
    vars = ("x", "y")
    rel = parse_poly("y^2 - x^3", ring, vars)
    red = ReductionContext(ring, vars, [rel])
    basis = red.monomials_up_to(3)
    # rule is x^3 -> y^2, so x appears to degree 2 and y freely
    assert (0, 0) in basis and (0, 3) in basis and (1, 1) in basis
    assert (3, 0) not in basis
    assert all(e[0] < 3 for e in basis)
    assert basis == sorted(basis, key=lambda e: (sum(e), e))
    # localized: mixed companion monomials are excluded
    red2 = ReductionContext(ring, ("x", "x_inv"), (), [("x", "x_inv")])
    basis2 = red2.monomials_up_to(2)
    assert (1, 1) not in basis2
    assert (2, 0) in basis2 and (0, 2) in basis2


def unpruned_monomials(red, bound):
    """Every exponent tuple under the rule caps and the degree bound,
    with the tuples mixing a variable and its companion filtered out."""
    caps = [min(bound, red.monic_rules[n][0] - 1) if n in red.monic_rules
            else bound for n in red.vars]
    pairs = [(red.vars.index(u), red.vars.index(v)) for u, v in red.loc_pairs]
    out = [e for e in itertools.product(*(range(c + 1) for c in caps))
           if sum(e) <= bound and not any(e[i] and e[j] for i, j in pairs)]
    return sorted(out, key=lambda e: (sum(e), e))


@pytest.mark.parametrize("vars, relations, loc_pairs", [
    (("x", "y"), [], []),
    (("x", "y"), ["y^2 - x^3"], []),
    (("x", "x_inv"), [], [("x", "x_inv")]),
    (("x_inv", "y", "x"), ["y^3 - x - 1"], [("x_inv", "x")]),
    (("x", "y", "x_inv", "y_inv"), ["y^2 - x^3 - x"],
     [("x", "x_inv"), ("y_inv", "y")]),
    (("x_inv", "z", "y_inv", "x", "y"), ["z^2 - x", "y^4 - x*z"],
     [("x_inv", "x"), ("y", "y_inv")]),
])
def test_monomials_up_to_matches_unpruned_enumeration(vars, relations,
                                                      loc_pairs):
    ring = IntModRing(3)
    red = ReductionContext(ring, vars,
                           [parse_poly(r, ring, vars) for r in relations],
                           loc_pairs)
    for bound in range(7):
        assert red.monomials_up_to(bound) == unpruned_monomials(red, bound)


def test_try_invert():
    ring = IntModRing(5)
    vars = ("x", "x_inv", "y")
    red = ReductionContext(ring, vars, (), [("x", "x_inv")])
    f = parse_poly("2*x^2", ring, vars)
    inv = red.try_invert(f)
    assert inv is not None
    assert red.normal_form(f * inv) == MvPoly.const(ring, vars, ring.one())
    assert red.try_invert(parse_poly("y", ring, vars)) is None
    assert red.try_invert(parse_poly("x + 1", ring, vars)) is None
