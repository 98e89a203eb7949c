from math import isqrt

import pytest

from spinel.errors import BoundExceeded, NotInClassList, NotPrime, NotSpinorial
from spinel.isogeny import (
    ENDO_CM,
    ENDO_QUATERNION,
    KIND_ORDINARY,
    KIND_SUPERSINGULAR,
    MAX_TRACE_SCAN,
    enumerate_classes,
    frobenius_scalar,
    isogeny_class,
)

# traces realized by elliptic curves over small fields, frozen after
# cross-checking against exhaustive curve censuses
I_5 = [-4, -3, -2, -1, 0, 1, 2, 3, 4]
I_9 = [-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6]
I_25 = [-10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_trace_lists_frozen():
    assert [c.beta for c in enumerate_classes(5, 1)] == I_5
    assert [c.beta for c in enumerate_classes(3, 2)] == I_9
    assert [c.beta for c in enumerate_classes(5, 2)] == I_25


def test_supersingular_trace_zero_in_even_degree_needs_p_not_1_mod_4():
    assert 0 in {c.beta for c in enumerate_classes(3, 2)}  # 3 = 3 mod 4
    assert 0 not in {c.beta for c in enumerate_classes(5, 2)}  # 5 = 1 mod 4
    assert 0 not in {c.beta for c in enumerate_classes(13, 2)}
    assert 0 in {c.beta for c in enumerate_classes(7, 2)}


def test_trace_sqrt_q_in_even_degree_needs_p_not_1_mod_3():
    betas49 = {c.beta for c in enumerate_classes(7, 2)}
    assert 7 not in betas49 and -7 not in betas49  # 7 = 1 mod 3
    betas25 = {c.beta for c in enumerate_classes(5, 2)}
    assert {-5, 5} <= betas25  # 5 = 2 mod 3
    betas9 = {c.beta for c in enumerate_classes(3, 2)}
    assert {-6, -3, 3, 6} <= betas9


def test_kinds_and_endomorphism_labels():
    ordinary = isogeny_class(5, 1, 2)
    assert ordinary.kind == KIND_ORDINARY
    assert ordinary.endo == ENDO_CM
    assert not ordinary.is_spinorial()

    ss = isogeny_class(5, 1, 0)
    assert ss.kind == KIND_SUPERSINGULAR
    assert ss.endo == ENDO_CM  # Frobenius not rational, endos commutative
    assert not ss.is_spinorial()

    quat = isogeny_class(3, 2, -6)
    assert quat.kind == KIND_SUPERSINGULAR
    assert quat.endo == ENDO_QUATERNION
    assert quat.is_spinorial()
    assert quat.beta**2 == 4 * quat.q  # Frobenius is the rational scalar beta/2


def test_spinorial_classes_are_exactly_full_trace_even_degree():
    for p, a in [(2, 2), (3, 2), (5, 2), (7, 2), (3, 4), (5, 4), (2, 6)]:
        spin = [c.beta for c in enumerate_classes(p, a) if c.is_spinorial()]
        r = p ** (a // 2)
        assert spin == [-2 * r, 2 * r]
    for p, a in [(5, 1), (7, 1), (3, 3), (2, 5)]:
        assert not any(c.is_spinorial() for c in enumerate_classes(p, a))


def test_hasse_bound_and_disc_sign():
    for p, a in [(2, 2), (3, 1), (3, 2), (5, 2), (7, 1), (13, 2)]:
        for c in enumerate_classes(p, a):
            assert c.beta * c.beta <= 4 * c.q
            assert isqrt(4 * c.q) >= abs(c.beta)
            # beta^2 - 4q, the discriminant of Z[Frobenius], vanishes exactly
            # on the spinorial classes
            assert (c.beta * c.beta - 4 * c.q == 0) == c.is_spinorial()


def test_ordinary_iff_trace_prime_to_p():
    for p, a in [(5, 1), (3, 2), (5, 2), (7, 2)]:
        for c in enumerate_classes(p, a):
            assert (c.kind == KIND_ORDINARY) == (c.beta % p != 0)
            assert c.kind in (KIND_ORDINARY, KIND_SUPERSINGULAR)


def test_frobenius_scalar():
    assert frobenius_scalar(isogeny_class(3, 2, -6)) == -3
    assert frobenius_scalar(isogeny_class(3, 2, 6)) == 3
    assert frobenius_scalar(isogeny_class(5, 4, -50)) == -25
    with pytest.raises(NotSpinorial):
        frobenius_scalar(isogeny_class(5, 1, 2))
    with pytest.raises(NotSpinorial):
        frobenius_scalar(isogeny_class(5, 1, 0))


def test_membership_errors():
    with pytest.raises(NotInClassList):
        isogeny_class(5, 2, 15)  # violates Hasse bound
    with pytest.raises(NotInClassList):
        isogeny_class(7, 2, 7)  # p = 7 is 1 mod 3, +-p excluded
    with pytest.raises(NotInClassList):
        isogeny_class(5, 1, 5)  # odd degree, p > 3, p | beta, beta != 0
    with pytest.raises(NotInClassList):
        isogeny_class(5, 2, 0)  # a even, p = 1 mod 4
    with pytest.raises(NotPrime):
        isogeny_class(6, 1, 1)


def test_odd_degree_char_two_and_three_special_traces():
    # over F_8 the traces +-p^{(a+1)/2} = +-4 appear, over F_27 the traces +-9
    betas8 = {c.beta for c in enumerate_classes(2, 3)}
    assert {-4, 0, 4} <= betas8
    betas27 = {c.beta for c in enumerate_classes(3, 3)}
    assert {-9, 0, 9} <= betas27
    # but not over F_32 in excess: gcd rule governs the rest
    for c in enumerate_classes(2, 5):
        if c.beta % 2 == 0:
            assert c.beta in (-8, 0, 8)


def test_to_json():
    doc = isogeny_class(3, 2, -6).to_json()
    assert doc == {
        "p": 3,
        "a": 2,
        "beta": -6,
        "kind": "supersingular",
        "endo": "quaternion",
        "spinorial": True,
    }


def test_enumerate_classes_refuses_large_scan():
    # q = 2^36: the scan covers 2 * isqrt(2^38) + 1 = 2^20 + 1 traces
    with pytest.raises(BoundExceeded) as err:
        enumerate_classes(2, 36)
    detail = str(err.value)
    assert "2^36" in detail and str(2**20 + 1) in detail and str(MAX_TRACE_SCAN) in detail
    # q = 2^24: the 2^13 odd traces, then 0, +-2^12 and +-2^13
    assert len(enumerate_classes(2, 24)) == 2**13 + 5
