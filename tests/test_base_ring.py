"""Base coefficient rings: canonical forms, exact division, precision ledger."""

import random

import pytest

from wf.base_ring import BaseElem, BaseRingSpec, IntModRing, IntRing
from wf.errors import NotDivisible, PrecisionExceeded, SpecMismatch, WfError


def test_spec_defaults():
    s = BaseRingSpec(3)
    assert s.eisenstein == (-3, 1)
    assert s.e == 1
    assert s.precision == 4
    assert s.q == 3
    s2 = BaseRingSpec(2, frob_power=3)
    assert s2.q == 8


def test_spec_rejects_bad_input():
    with pytest.raises(WfError):
        BaseRingSpec(4)
    with pytest.raises(WfError):
        BaseRingSpec(3, [1, 1])  # constant term not divisible by p
    with pytest.raises(WfError):
        BaseRingSpec(3, [-9, 0, 1])  # valuation 2 constant term
    with pytest.raises(WfError):
        BaseRingSpec(3, [-3, 2])  # not monic
    with pytest.raises(WfError):
        BaseRingSpec(3, precision=1)
    with pytest.raises(WfError):
        BaseRingSpec(3, frob_power=0)


def test_spec_rejects_composite_with_large_factors():
    # 1009 * 1013: no factor below 1000, so trial division alone misses it
    with pytest.raises(WfError):
        BaseRingSpec(1009 * 1013)


@pytest.mark.parametrize("make", (
    lambda: IntRing(6), lambda: IntRing(1009 * 1013), lambda: IntRing(3, 0),
    lambda: IntModRing(4), lambda: IntModRing(3, 0), lambda: IntModRing(3, -1),
    lambda: IntModRing(3, 1, 0), lambda: BaseRingSpec(3, frob_power=0)))
def test_every_ring_checks_p_and_frob_power(make):
    with pytest.raises(WfError, match="must be"):
        make()


def test_coefficient_moduli_grading():
    # coefficient of pi^i is tracked mod p^ceil((N-i)/e)
    s = BaseRingSpec(5, [-5, 0, 1], 5)
    assert s.moduli(5) == (5 ** 3, 5 ** 2)
    assert s.moduli(4) == (5 ** 2, 5 ** 2)
    assert s.moduli(1) == (5, 1)
    u = BaseRingSpec(5, precision=3)
    assert u.moduli(3) == (125,)


def test_ring_axioms_random():
    rng = random.Random(11)
    for spec in (BaseRingSpec(2, [-2, 0, 1], 5),
                 BaseRingSpec(3, precision=4),
                 BaseRingSpec(5, [-10, 5, 1], 4),
                 BaseRingSpec(2, [-2, 0, 0, 1], 6)):
        for _ in range(300):
            a = spec.elem([rng.randint(-99, 99) for _ in range(spec.e)])
            b = spec.elem([rng.randint(-99, 99) for _ in range(spec.e)])
            c = spec.elem([rng.randint(-99, 99) for _ in range(spec.e)])
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + spec.zero() == a
            assert a * spec.one() == a
            assert a - a == spec.zero()
            assert -(-a) == a
            assert a ** 7 == a * a * a * a * a * a * a


def test_int_mixing():
    s = BaseRingSpec(3)
    a = s.from_int(7)
    assert a + 2 == s.from_int(9)
    assert 2 + a == s.from_int(9)
    assert a * 3 == s.from_int(21)
    assert 1 - a == s.from_int(-6)


def test_spec_mismatch_raises():
    a = BaseRingSpec(3).from_int(1)
    b = BaseRingSpec(5).from_int(1)
    with pytest.raises(SpecMismatch):
        a + b


def test_pi_and_valuation():
    s = BaseRingSpec(2, [-2, 0, 1], 6)
    pi = s.pi()
    # valuations 1, 2 and 2: as many divisions by pi leave a unit
    assert not pi.is_unit() and pi.div_pi().is_unit()
    assert not (pi * pi).div_pi().is_unit()
    assert (pi * pi).div_pi().div_pi().is_unit()
    two = s.from_int(2).div_pi()  # p = pi^2 times a unit
    assert not two.is_unit() and two.div_pi().is_unit()
    assert s.zero().div_pi().is_zero()
    assert s.from_int(3).is_unit()


def test_div_pi_round_trip():
    rng = random.Random(12)
    for spec in (BaseRingSpec(3), BaseRingSpec(2, [-2, 0, 1], 5),
                 BaseRingSpec(5, [-10, 5, 1], 4)):
        pi = spec.pi()
        for _ in range(200):
            a = spec.elem([rng.randint(-999, 999) for _ in range(spec.e)])
            b = (a * pi).div_pi()
            # one precision digit is spent by the division
            assert b.prec == spec.precision - 1
            assert b == a.reduce(spec.precision - 2)


def test_div_pi_rejects_units():
    s = BaseRingSpec(3)
    with pytest.raises(NotDivisible):
        s.from_int(1).div_pi()
    s2 = BaseRingSpec(2, [-2, 0, 1], 4)
    with pytest.raises(NotDivisible):
        s2.elem((1, 1)).div_pi()


def test_precision_floor():
    s = BaseRingSpec(3)
    low = s.from_int(9, prec=2).div_pi()
    assert low.prec == 1
    with pytest.raises(PrecisionExceeded):
        low.div_pi()
    with pytest.raises(PrecisionExceeded):
        BaseElem(s, (1,), 0)


def test_int_div_pi_keeps_full_precision():
    s = BaseRingSpec(3)
    c = s.int_div_pi(6)
    assert c == s.from_int(2)
    assert c.prec == s.precision
    r = BaseRingSpec(2, [-2, 0, 1], 6)
    # p/pi = pi * unit in a ramified quadratic base
    half = r.int_div_pi(2)
    assert not half.is_unit() and half.div_pi().is_unit()
    with pytest.raises(NotDivisible):
        IntRing(3).int_div_pi(7)


def test_base_delta_fermat_quotient():
    s = BaseRingSpec(2)
    three = s.from_int(3)
    d = three.delta()
    assert d == s.from_int(-3).reduce(s.precision - 2)
    # phi(a) = a^q + pi * delta(a) with phi fixing the coefficients
    rng = random.Random(13)
    for spec in (BaseRingSpec(3), BaseRingSpec(5, frob_power=1),
                 BaseRingSpec(2, [-2, 0, 1], 6), BaseRingSpec(3, frob_power=2)):
        for _ in range(60):
            a = spec.elem([rng.randint(-99, 99) for _ in range(spec.e)])
            d = a.delta()
            back = a ** spec.q + spec.pi() * d
            assert back.reduce(d.prec - 1) == a.reduce(d.prec - 1)


def test_residue_map():
    s = BaseRingSpec(5, [-5, 0, 1], 4)
    assert s.from_int(12).residue() == 2
    assert s.pi().residue() == 0


def test_inverse_of_units():
    rng = random.Random(14)
    for spec in (BaseRingSpec(3), BaseRingSpec(2, [-2, 0, 1], 5)):
        count = 0
        while count < 50:
            a = spec.elem([rng.randint(-99, 99) for _ in range(spec.e)])
            if not a.is_unit():
                continue
            count += 1
            assert a * a.inverse() == spec.one()
    with pytest.raises(WfError):
        BaseRingSpec(3).pi().inverse()


def test_json_round_trip():
    s = BaseRingSpec(3, [-6, 3, 1], 5, 2)
    t = BaseRingSpec.from_json(s.to_json())
    assert s.same(t)
    assert t.q == 9


def test_int_ring_delta():
    r = IntRing(2)
    assert r.base_delta(3) == -3
    assert r.base_delta(0) == 0
    assert r.base_delta(1) == 0
    r5 = IntRing(5)
    for a in range(-20, 21):
        assert a ** 5 + 5 * r5.base_delta(a) == a
    with pytest.raises(NotDivisible):
        r.div_pi(3)


def test_int_mod_ring():
    r = IntModRing(3, 4)
    assert r.n == 81
    assert r.from_int(-1) == 80
    assert r.mul(40, 40) == 1600 % 81
    assert r.int_div_pi(6) == 2
    with pytest.raises(NotDivisible):
        r.div_pi(3)
    with pytest.raises(NotDivisible):
        r.int_div_pi(7)
    with pytest.raises(WfError):
        r.base_delta(3)
    field = IntModRing(7)
    assert field.unit_inverse(3) == 5
    assert field.pow(3, 6) == 1


def test_text_and_repr():
    s = BaseRingSpec(2, [-2, 0, 1], 4)
    a = s.elem((3, 5))
    assert "pi" in a.text() or "3" in a.text()
    assert "BaseRingSpec" in repr(s)


PROTOCOL = ("zero", "one", "from_int", "add", "sub", "neg", "mul", "pow",
            "eq", "is_zero", "pi", "div_pi", "int_div_pi", "base_delta",
            "same", "unit_inverse", "power_bits", "precision", "witt_power",
            "witt_add", "witt_mul", "witt_neg", "witt_ghost")


@pytest.mark.parametrize("ring", (BaseRingSpec(3), IntRing(3), IntModRing(3, 2)),
                         ids=lambda ring: type(ring).__name__)
def test_every_ring_answers_one_protocol(ring):
    cls = type(ring)
    assert [name for name in PROTOCOL if not hasattr(cls, name)] == []
    # the coefficient Frobenius is the identity, and unit_inverse is the
    # one way to invert a coefficient
    assert not hasattr(cls, "frob") and not hasattr(cls, "inv")
    assert ring.unit_inverse(ring.from_int(6)) is None
    assert ring.unit_inverse(ring.pi()) is None
    assert ring.eq(ring.mul(ring.unit_inverse(ring.from_int(-1)),
                            ring.from_int(-1)), ring.one())
