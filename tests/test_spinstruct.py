import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

from spinel import quat, spinstruct
from spinel.arith import OO, squarefree_part, ternary_represents
from spinel.errors import NotPrime, NotSpinorial, PrecheckFailed, SearchExhausted, ZeroInput
from spinel.lfunc import verify_identity_exact
from spinel.quat import b_p_infty, find_pure_of_norm, ramified_places
from spinel.spinspace import OrthogonalInvolution, covering_map
from spinel.spinstruct import (
    SpinStructure,
    WeilRep,
    construct_arithmetic_spin,
    construct_arithmetic_spin_even,
    has_arithmetic_spin,
    realizations,
    similitude_rep,
    spin_discriminant,
    spin_lift,
    spinorial_class,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

#: the per-p memos of the spin chain
MEMOS = (b_p_infty, spinstruct.pure_unit_exists, spinstruct._unit_witness)


def _primes_below(bound):
    return [n for n in range(2, bound) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_frozen_structure_p3():
    s = construct_arithmetic_spin(3, 1)
    B = s.algebra
    assert (B.a, B.b) == (-1, -3)
    assert s.sigma.u == B.j
    assert s.sigma.discriminant() == -3
    assert s.clifford.delta == -3
    assert s.tau == -3


def test_frozen_structure_p2():
    s = construct_arithmetic_spin(2, 1)
    B = s.algebra
    assert (B.a, B.b) == (-1, -1)
    assert s.sigma.u == B.i + B.j
    assert s.sigma.discriminant() == -2
    assert s.tau == -2


def test_structure_invariants_across_primes():
    for p in SMALL_PRIMES:
        s = construct_arithmetic_spin(p, 1)
        assert s.curve_class.beta == -2 * p
        assert s.sigma.discriminant() == squarefree_part(-p)
        assert s.clifford.delta == spin_discriminant(p, 1)
        assert s.tau == -p
        # u generates the fixed discriminant class: -Nrd(u) = delta mod squares
        u = s.sigma.u
        assert squarefree_part(-u.reduced_norm()) == s.clifford.delta


def test_odd_n_structures():
    for p in [2, 3, 5]:
        for n in [1, 3, 5]:
            s = construct_arithmetic_spin(p, n)
            assert s.tau == -(p**n)
            assert s.clifford.delta == squarefree_part(-p)
            assert s.curve_class.q == p ** (2 * n)
            # u is p^{(n-1)/2} v with Nrd(v) = p up to the primitive
            # rescaling done by the involution; only the class survives
            assert squarefree_part(-s.sigma.u.reduced_norm()) == squarefree_part(-p)


def test_even_n_requires_2_or_3_mod_4():
    for p in SMALL_PRIMES:
        s = construct_arithmetic_spin_even(p, 2)
        if p == 2 or p % 4 == 3:
            assert s is not None
            assert s.clifford.delta == -1
            assert s.tau == -(p**2)
        else:
            assert s is None


def test_even_n_rejected_by_odd_constructor():
    with pytest.raises(ZeroInput):
        construct_arithmetic_spin(3, 2)


def test_randomized_search_matches_canonical():
    rng = random.Random(97)
    for p in SMALL_PRIMES:
        canonical = construct_arithmetic_spin(p, 1)
        searched = construct_arithmetic_spin(p, 1, rng=rng)
        assert searched.sigma.is_isomorphic_to(canonical.sigma)
        assert searched.clifford.delta == canonical.clifford.delta
        assert searched.tau == canonical.tau


def test_randomized_search_for_odd_n_searches_norm_p():
    # the rng route searches norm p and scales by p^((n-1)/2), as the
    # canonical route does; a search for norm p^3 missed the whole default
    # box for these primes and raised after seconds
    for p in (73, 101, 293):
        start = time.perf_counter()
        s = construct_arithmetic_spin(p, 3, rng=random.Random(1))
        assert time.perf_counter() - start < 1.0, p
        assert s.sigma.discriminant() == s.clifford.delta == -p
        assert s.tau == -(p**3)


def test_has_arithmetic_spin_sign_dichotomy():
    for p in SMALL_PRIMES:
        neg = has_arithmetic_spin(spinorial_class(p, 1, -1))
        pos = has_arithmetic_spin(spinorial_class(p, 1, 1))
        assert neg.exists
        assert neg.witness is not None
        assert neg.witness.reduced_norm() == p
        assert not pos.exists
        assert pos.witness is None


def test_has_arithmetic_spin_rejects_non_spinorial():
    from spinel.isogeny import isogeny_class

    with pytest.raises(NotSpinorial):
        has_arithmetic_spin(isogeny_class(5, 1, 2))


def test_weil_rep_evaluation():
    s = construct_arithmetic_spin(3, 1)
    rep = similitude_rep(s)
    assert rep.tau == -3
    assert rep.evaluate(1) == -3
    assert rep.evaluate(2) == 9
    assert rep.evaluate(-1) == Fraction(-1, 3)


def test_spin_lift_squares_to_tau():
    for p in SMALL_PRIMES:
        for n in [1, 3]:
            s = construct_arithmetic_spin(p, n)
            lift = spin_lift(similitude_rep(s))
            assert lift is not None
            z = lift.z
            sq = covering_map(z)
            assert sq.is_rational()
            assert sq.c == s.tau


def test_spin_lift_frozen_values():
    s3 = construct_arithmetic_spin(3, 1)
    lift = spin_lift(similitude_rep(s3))
    K = s3.clifford
    assert lift.z == K.x  # sqrt(-3) = x when delta = -3
    s27 = construct_arithmetic_spin(3, 3)
    lift27 = spin_lift(similitude_rep(s27))
    assert lift27.z == K.element(0, 3)  # sqrt(-27) = 3x


def test_spin_lift_absent_for_positive_tau():
    for p in SMALL_PRIMES:
        s = construct_arithmetic_spin(p, 1)
        wrong = WeilRep(structure=s, tau=p)
        assert spin_lift(wrong) is None


def test_spin_lift_absent_for_wrong_discriminant():
    # same algebra, involution of discriminant -1 instead of -p: tau = -p
    # has no square root in Q(i) for odd p
    for p in [3, 7, 11]:
        B = b_p_infty(p)
        s = construct_arithmetic_spin(p, 1)
        sigma = OrthogonalInvolution(B, B.i)
        if sigma.discriminant() != -1:
            continue
        other = SpinStructure(
            curve_class=s.curve_class,
            algebra=B,
            sigma=sigma,
            clifford=sigma.clifford_algebra(),
        )
        assert other.tau == -p
        assert spin_lift(similitude_rep(other)) is None


def test_evaluate_spin_pairs():
    s = construct_arithmetic_spin(3, 1)
    lift = spin_lift(similitude_rep(s))
    K = s.clifford
    a1, a2 = lift.evaluate(1)
    assert a1 == K.x and a2 == -K.x
    b1, b2 = lift.evaluate(2)
    assert b1 == b2 == K.element(-3, 0)
    assert a1 * a1 == K.element(-3, 0)


def test_realizations_slope_quarter():
    for p in SMALL_PRIMES:
        for n in [1, 3]:
            s = construct_arithmetic_spin(p, n)
            lift = spin_lift(similitude_rep(s))
            real = realizations(lift)
            assert real.weight == Fraction(1, 2)
            assert real.eigen_abs_sq == p**n
            assert real.normalized_slope == Fraction(1, 4)
            assert real.v_p_phi_squared == n
            assert real.v_p_q == 2 * n
            assert real.crystal_frobenius == -(p**n)
            e1, e2 = real.eigenvalues
            assert e1 + e2 == s.clifford.element(0, 0)
            assert (e1 * e2).c == p**n  # product = -tau


def test_realizations_ell_label():
    s = construct_arithmetic_spin(3, 1)
    lift = spin_lift(similitude_rep(s))
    assert realizations(lift).ell == 2
    assert realizations(lift, ell=5).ell == 5
    with pytest.raises(PrecheckFailed, match="ell = 3 equals p = 3"):
        realizations(lift, ell=3)
    s2 = construct_arithmetic_spin(2, 1)
    lift2 = spin_lift(similitude_rep(s2))
    assert realizations(lift2).ell == 3


def test_spin_discriminant_values():
    assert spin_discriminant(3, 1) == -3
    assert spin_discriminant(3, 3) == -3
    assert spin_discriminant(2, 1) == -2
    assert spin_discriminant(5, 1) == -5
    assert spin_discriminant(3, 2) == -1
    assert spin_discriminant(7, 2) == -1


def test_structure_json():
    doc = construct_arithmetic_spin(3, 1).to_json()
    assert doc["disc"] == -3
    assert doc["delta"] == -3
    assert doc["tau"] == -3
    assert doc["u"] == ["0", "0", "1", "0"]
    assert doc["algebra"] == {"a": "-1", "b": "-3"}


def test_norm_one_bit_has_the_closed_form_below_10_4():
    # B_{p,oo} has a pure quaternion of norm 1 exactly when p = 2 or
    # p = 3 mod 4: the computed local-global bit against the closed form
    primes = _primes_below(10**4)
    assert len(primes) == 1229
    for p in primes:
        bit = ternary_represents(b_p_infty(p).pure_norm_coefficients(), 1)
        assert bit == (p == 2 or p % 4 == 3), p


def test_memos_match_fresh_computation_below_2000():
    # every per-p memo against its function body, or the search it reads, run afresh
    for p in _primes_below(2000):
        B = b_p_infty(p)
        fresh = b_p_infty.__wrapped__(p)
        assert B == fresh and ramified_places(B) == {p, OO}, p
        unit = spinstruct.pure_unit_exists(p)
        assert unit == ternary_represents(fresh.pure_norm_coefficients(), 1), p
        for bound in (1, 2, 50):
            v = spinstruct._odd_u(B, p, 1, bound)
            assert v == find_pure_of_norm(fresh, p, bound), (p, bound)
            if unit:
                v = spinstruct._unit_witness(p, bound)
                assert v == find_pure_of_norm(fresh, 1, bound), (p, bound)
        for n in (2, 4):
            cert = has_arithmetic_spin(spinorial_class(p, n, -1))
            assert verify_identity_exact(p, n).vacuous == (not cert.exists), (p, n)


def test_memos_are_bounded():
    for p in _primes_below(2000)[:300]:
        has_arithmetic_spin(spinorial_class(p, 1, -1))
        has_arithmetic_spin(spinorial_class(p, 2, -1))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == quat.MEMO_PRIMES
        assert 0 < info.currsize <= info.maxsize, memo
    assert b_p_infty.cache_info().currsize == quat.MEMO_PRIMES


def test_memos_keep_no_errors():
    for bad in (1, 4):
        for _ in range(3):
            with pytest.raises(NotPrime):
                b_p_infty(bad)
            with pytest.raises(NotPrime):
                spinstruct.pure_unit_exists(bad)
    # the memoised norm-1 search for p = 3 (n even) and the per-call norm-2
    # search for p = 2 (n odd): an empty box raises on every call and never
    # hides the default box's witness
    for p, n in ((3, 2), (2, 1)):
        c = spinorial_class(p, n, -1)
        for _ in range(2):
            with pytest.raises(SearchExhausted):
                has_arithmetic_spin(c, 0)
            assert has_arithmetic_spin(c).exists
    with pytest.raises(SearchExhausted):
        construct_arithmetic_spin(2, 1, 0)


def test_memoised_objects_reject_assignment():
    B = b_p_infty(7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        B.a = Fraction(-3)
    for v in (spinstruct._unit_witness(2, 50), spinstruct._unit_witness(7, 50)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x1 = Fraction(0)
