"""Gate checks for the ten shipping criteria, one printed verdict each.

Every test prints a single [PASS]/[FAIL] line with its criterion number,
so a full run gives a readable scoreboard even under quiet pytest
settings.  Bodies stick to public entry points; expected values are
either worked examples checked by hand or independent recomputations.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

import pytest

from wf.base_ring import BaseRingSpec, IntModRing, IntRing
from wf.bounds import frob_power_bound, gsp_order, torelli_noninjective
from wf.delta import DeltaContext, jet_name
from wf.di import (build_compatible_lifts, coboundary_of, compatibility_check,
                   compute_di_class, local_frobenius_lift)
from wf.errors import NonSmooth, NotEtale
from wf.jet import (etale_basechange_check, linearize_generator,
                    linearize_mod_pi)
from wf.poly import MvPoly, parse_poly
from wf.scheme import (BUILTIN_MORPHISMS, BUILTIN_SCHEMES, ChartMap,
                       SchemeMorphism, affine_space, validate_morphism)
from wf.witt import WittContext, ghost


@contextmanager
def verdict(capsys, number, text):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print("[%s] criterion %d: %s"
                  % ("PASS" if ok else "FAIL", number, text))


def rand_poly(ring, vars, rng, deg=4, terms=5, span=9):
    out = {}
    for _ in range(terms):
        e = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(vars))] += 1
        out[tuple(e)] = ring.from_int(rng.randint(-span, span))
    return MvPoly(ring, vars, out)


def smooth_schemes(p):
    ring = BaseRingSpec(p)
    out = []
    for name in sorted(BUILTIN_SCHEMES):
        try:
            out.append(BUILTIN_SCHEMES[name](ring))
        except NonSmooth:
            continue
    return out


def test_criterion_01_ring_axioms(capsys):
    with verdict(capsys, 1, "ring axioms on 10^4 random triples per "
                 "(prime, coefficient ring), under 10 s"):
        t0 = time.monotonic()
        rng = random.Random(101)
        for p in (2, 3, 5):
            for ring in (IntModRing(p, 4), BaseRingSpec(p, [-p, 0, 1])):
                ctx = WittContext(ring)
                zero, one = ctx.zero(), ctx.one()
                span = p ** 6

                def vec():
                    return ctx.vec(ring.from_int(rng.randrange(-span, span)),
                                   ring.from_int(rng.randrange(-span, span)))

                for _ in range(10 ** 4):
                    a, b, c = vec(), vec(), vec()
                    assert (a + b) + c == a + (b + c)
                    assert a + b == b + a
                    assert (a * b) * c == a * (b * c)
                    assert a * b == b * a
                    assert a * (b + c) == a * b + a * c
                    assert a + zero == a
                    assert a * one == a
                    assert a + (-a) == zero
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_ghost_oracle(capsys):
    with verdict(capsys, 2, "ghost coordinates turn the twisted laws into "
                 "plain arithmetic; worked p=2 values"):
        rng = random.Random(202)
        for p in (2, 3, 5):
            ring = IntRing(p)
            ctx = WittContext(ring)
            for _ in range(10 ** 3):
                a = ctx.vec(ring.from_int(rng.randint(-999, 999)),
                            ring.from_int(rng.randint(-999, 999)))
                b = ctx.vec(ring.from_int(rng.randint(-999, 999)),
                            ring.from_int(rng.randint(-999, 999)))
                ga, gb = ghost(a), ghost(b)
                gs, gp = ghost(a + b), ghost(a * b)
                assert gs == (ga[0] + gb[0], ga[1] + gb[1])
                assert gp == (ga[0] * gb[0], ga[1] * gb[1])
        ctx2 = WittContext(IntRing(2))
        one0 = ctx2.vec(IntRing(2).from_int(1), IntRing(2).from_int(0))
        assert one0 + one0 == ctx2.vec(IntRing(2).from_int(2),
                                       IntRing(2).from_int(-1))
        one1 = ctx2.vec(IntRing(2).from_int(1), IntRing(2).from_int(1))
        assert one1 * one1 == ctx2.vec(IntRing(2).from_int(1),
                                       IntRing(2).from_int(4))


def test_criterion_03_prolongation_oracle(capsys):
    with verdict(capsys, 3, "jet polynomials evaluate to the exact Fermat "
                 "quotient on random data, under 30 s"):
        t0 = time.monotonic()
        rng = random.Random(303)
        for p in (2, 3, 5):
            ring = IntRing(p)
            for _ in range(100):
                nv = rng.randint(1, 3)
                vars = tuple("xyz"[:nv])
                dctx = DeltaContext(ring, vars)
                f = rand_poly(ring, vars, rng, deg=4)
                g = dctx.prolong(f)
                point = {v: rng.randint(-9, 9) for v in vars}
                env = dict(point)
                for v in vars:
                    env[jet_name(v)] = ring.base_delta(point[v])
                assert g.evaluate(env) == ring.base_delta(f.evaluate(point))
        ring2 = IntRing(2)
        dctx2 = DeltaContext(ring2, ("x",))
        g2 = dctx2.prolong(parse_poly("x^2", ring2, ("x",)))
        assert g2.evaluate({"x": 3, "x_dot": -3}) == -36
        assert time.monotonic() - t0 < 30.0


def test_criterion_04_linearity_and_jacobian(capsys):
    with verdict(capsys, 4, "jet equations are jet-linear on every builtin "
                 "chart; Jacobians match the twisted-partial route"):
        for p in (2, 3, 5):
            for scheme in smooth_schemes(p):
                presentations = list(scheme.patches)
                for (i, j) in scheme.overlap_pairs():
                    view = scheme.view(i, j)
                    presentations += [view.pres_a, view.pres_b]
                for pres in presentations:
                    linearize_mod_pi(pres)
                    dctx = DeltaContext(pres.ring, pres.all_vars)
                    n = len(pres.all_vars)
                    for g in pres.generators():
                        for e, c in dctx.prolong(g).terms.items():
                            if not pres.res.is_zero(c.residue()):
                                assert sum(e[n:]) <= 1
        rng = random.Random(404)
        count = 0
        while count < 200:
            p = rng.choice((2, 3, 5))
            ring = BaseRingSpec(p)
            scheme = rng.choice(smooth_schemes(p))
            pres = rng.choice(scheme.patches)
            g = rand_poly(ring, pres.all_vars, rng)
            row = linearize_generator(pres, g)
            q = ring.q
            for v in pres.all_vars:
                expect = pres.nf(pres.to_res(
                    g.frob_twist().partial(v).q_power_vars(q)))
                got = row.jac.get(v)
                if got is None:
                    got = MvPoly.zero(expect.ring, expect.vars)
                assert pres.nf(got) == expect
            count += 1


def test_criterion_05_etale_base_change(capsys):
    with verdict(capsys, 5, "jets pull back bijectively along the etale "
                 "square on units; the plain affine square is refused"):
        rng = random.Random(505)
        for p in (3, 5):
            m = BUILTIN_MORPHISMS["gm_square"](BaseRingSpec(p))
            assert validate_morphism(m) is True
            assert etale_basechange_check(m, rng) is True
        ring = BaseRingSpec(3)
        src = affine_space(ring, 1, name="S")
        tgt = affine_space(ring, 1, name="T")
        sq = parse_poly("x^2", ring, src.patches[0].all_vars)
        bad = SchemeMorphism("affine_square", src, tgt,
                             [ChartMap(0, {"x": sq})], kind="etale")
        with pytest.raises(NotEtale):
            validate_morphism(bad)


def test_criterion_06_vanishing_with_witness(capsys):
    with verdict(capsys, 6, "obstruction class vanishes on affine spaces, "
                 "the torus, and both projective spaces, with re-verified "
                 "witnesses, under 1 min"):
        t0 = time.monotonic()
        for p, name in product((2, 3, 5), ("a1", "a2", "a3", "gm", "p1", "p2")):
            scheme = BUILTIN_SCHEMES[name](BaseRingSpec(p))
            rep = compute_di_class(scheme)
            assert rep.vanishes is True
            assert rep.witness is not None
            back = coboundary_of(scheme, rep.witness)
            for key, val in rep.cochain.values.items():
                assert back.values[key] == val
        assert time.monotonic() - t0 < 60.0


def test_criterion_07_nonvanishing_genus_two(capsys):
    with verdict(capsys, 7, "the genus-2 class at p=3 is definitively "
                 "nonzero at the completeness threshold, under 5 min"):
        t0 = time.monotonic()
        scheme = BUILTIN_SCHEMES["genus2"](BaseRingSpec(3))
        rep = compute_di_class(scheme)
        assert rep.pole_bound == rep.threshold
        assert rep.vanishes is False
        assert rep.witness is None
        assert time.monotonic() - t0 < 300.0


def test_criterion_08_compatibility(capsys):
    with verdict(capsys, 8, "pullback and pushforward of the obstruction "
                 "cocycles correspond along all four builtin morphisms, "
                 "under 5 min"):
        t0 = time.monotonic()
        for p in (3, 5):
            ring = BaseRingSpec(p)
            for make in BUILTIN_MORPHISMS.values():
                m = make(ring)
                # constructed commuting lifts: cochain-level equality
                xs, ys = build_compatible_lifts(m)
                rep = compatibility_check(m, xs, ys)
                assert rep.compatible is True
                for (i, j, pb, pf) in rep.pairs:
                    pres = m.source.view(i, j).pres_a
                    for t in pb:
                        assert pres.nf(pb[t] - pf[t]).is_zero()
                # independent lifts: class-level equality, certified by
                # the discrepancy coboundary inside compatibility_check
                xs2 = [local_frobenius_lift(pres) for pres in m.source.patches]
                ys2 = [local_frobenius_lift(pres) for pres in m.target.patches]
                compatibility_check(m, xs2, ys2)
        assert time.monotonic() - t0 < 300.0


def test_criterion_09_bounds(capsys):
    with verdict(capsys, 9, "group orders match enumeration; worked bound "
                 "values reproduce, under 1 s"):
        t0 = time.monotonic()
        for l in (2, 3, 5):
            n = 0
            for a, b, c, d in product(range(l), repeat=4):
                if (a * d - b * c) % l:
                    n += 1
            assert gsp_order(1, l) == n
        assert torelli_noninjective(2, 2) == (True, 5, 4)
        assert frob_power_bound(1, 3, 1)[0] == 960
        assert time.monotonic() - t0 < 1.0


def test_criterion_10_determinism(capsys):
    with verdict(capsys, 10, "the corpus run is byte-identical across "
                 "repeated seeded invocations"):
        cmd = [sys.executable, "-m", "wf.cli", "corpus", "--seed", "0"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()
