"""Exact arithmetic for the group-order and lifting-power bounds."""

from itertools import product

import pytest

from wf.base_ring import BaseRingSpec
from wf.bounds import (abelian_subgroup_bound, bounds_report, e_const,
                       frob_power_bound, gsp_order, is_prime, lcm_recipe,
                       require_prime, torelli_noninjective)
from wf.errors import Inconclusive, WfError

# the least strong pseudoprime to every prime base up to 37
PSEUDOPRIME = 318665857834031151167461


def gl2_count(l):
    n = 0
    for a, b, c, d in product(range(l), repeat=4):
        if (a * d - b * c) % l:
            n += 1
    return n


def test_genus_one_order_matches_enumeration():
    for l in (2, 3, 5):
        assert gsp_order(1, l) == gl2_count(l)


def test_order_worked_values():
    assert gsp_order(1, 2) == 6
    assert gsp_order(1, 3) == 48
    assert gsp_order(1, 5) == 480
    assert gsp_order(1, 7) == 2016
    assert gsp_order(2, 2) == 720


def test_auxiliary_level_dodges_p():
    assert e_const(1, 3) == 480
    assert e_const(1, 2) == 480
    assert e_const(1, 5) == 2016
    assert e_const(2, 5) == gsp_order(2, 7)


def test_frob_power_bound_values():
    r, n = frob_power_bound(1, 3, 1)
    assert r == 960
    assert n == {"base": 3, "exponent": 960, "decimal": None}
    r5, n5 = frob_power_bound(1, 5, 1)
    assert r5 == 4032
    assert n5 == {"base": 5, "exponent": 4032, "decimal": None}
    # r scales linearly with the moduli-field degree, n does not
    r3, n3 = frob_power_bound(1, 3, 7)
    assert r3 == 7 * 960
    assert n3 == n


def test_abelian_subgroup_bound_values():
    assert abelian_subgroup_bound(1, 5) == 625
    assert abelian_subgroup_bound(2, 2) == 2048
    assert abelian_subgroup_bound(1, 2) == 16


def test_torelli_criterion():
    assert torelli_noninjective(2, 2) == (True, 5, 4)
    assert torelli_noninjective(2, 3) == (True, 7, 4)
    assert torelli_noninjective(10, 2) == (False, 45, 100)
    with pytest.raises(WfError):
        torelli_noninjective(1, 3)


def test_n_is_never_small_enough_to_expand():
    # e(g, p) >= |GSp_2(F_5)| = 480 and grows with g, so n = p^(2 g e)
    # is smallest at g = 1, p = 2; at p = 5 the level moves to 7
    for p, exponent in ((2, 960), (5, 4032)):
        rep = bounds_report(1, p, 1)
        assert rep["n"] == {"base": p, "exponent": exponent, "decimal": None}
        assert rep["n"]["exponent"] >= 960
        assert rep["m"] == {"definition": "lcm(1..n)", "n": rep["n"],
                            "factor_exponents": None}
    assert bounds_report(2, 2, 1)["n"]["exponent"] > 960


def test_lcm_recipe_stays_symbolic_for_honest_inputs():
    rec = lcm_recipe(1, 3)
    assert rec["definition"] == "lcm(1..n)"
    assert rec["n"] == {"base": 3, "exponent": 960, "decimal": None}
    assert rec["factor_exponents"] is None


def test_is_prime_edges():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    for n in (4, 9, 25, 49, 561, 2 ** 61 + 1, (10 ** 9 + 7) ** 2):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(10 ** 9 + 7)


def test_prime_verdict_past_2_64_is_inconclusive():
    assert PSEUDOPRIME == 399165290221 * 798330580441
    # no base witnesses it, so only the size gate keeps it out
    assert is_prime(PSEUDOPRIME)
    for refuse in (lambda: require_prime(PSEUDOPRIME, "p"),
                   lambda: BaseRingSpec(PSEUDOPRIME)):
        with pytest.raises(Inconclusive) as exc:
            refuse()
        assert exc.value.bound == 2 ** 64
    for p in (2 ** 61 - 1, 2 ** 64 - 59):
        require_prime(p, "p")
        assert BaseRingSpec(p).p == p
    # a composite verdict is a proof at any size
    for n in (2 ** 70, (2 ** 61 - 1) * (2 ** 64 - 59)):
        with pytest.raises(WfError) as exc:
            require_prime(n, "p")
        assert type(exc.value) is WfError


def test_input_gates():
    with pytest.raises(WfError):
        gsp_order(0, 5)
    with pytest.raises(WfError):
        gsp_order(1, 4)
    with pytest.raises(WfError):
        frob_power_bound(1, 3, 0)
    with pytest.raises(WfError):
        bounds_report(1, 6, 1)


def test_bounds_report_shape():
    rep = bounds_report(1, 3, 1)
    assert rep["e"] == 480
    assert rep["r_bound"] == 960
    assert rep["n"] == {"base": 3, "exponent": 960, "decimal": None}
    assert rep["gsp_order"] == 480
    assert rep["m"]["factor_exponents"] is None
    assert rep["torelli"] == {"applicable": False,
                              "reason": "the criterion needs genus at least 2"}
    rep2 = bounds_report(2, 2, 1)
    assert rep2["torelli"]["applicable"] is True
    assert rep2["torelli"]["noninjective"] is True
    assert rep2["torelli"]["h1_curve"] == 5
    assert rep2["torelli"]["h1_ab"] == 4
