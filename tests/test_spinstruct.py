import dataclasses
import math
import random
from fractions import Fraction

import pytest

from _oracles import etale_product, realizations_oracle, sqrt_rational_oracle
from spinel import arith, quat, spinstruct
from spinel.arith import OO, squarefree_part, ternary_represents, valuation
from spinel.cli import main
from spinel.curves import (
    WeierstrassCurve,
    _exponent_divides,
    _group_law,
    count_points,
    curve_points,
    find_q14_curve,
)
from spinel.errors import BoundExceeded, NotPrime, NotSpinorial, PrecheckFailed
from spinel.fields import FiniteField
from spinel.isogeny import frobenius_scalar, isogeny_class
from spinel.lfunc import RationalFunction, verify_identity_exact, zeta_h1
from spinel.quat import Quaternion, b_p_infty, find_pure_of_norm, ramified_places
from spinel.spinspace import OrthogonalInvolution, covering_map
from spinel.spinstruct import (
    SpinStructure,
    WeilRep,
    construct_arithmetic_spin,
    construct_arithmetic_spin_even,
    has_arithmetic_spin,
    realizations,
    similitude_rep,
    spin_lift,
    spinorial_class,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

#: the memos of the spin chain, per p and per (p, n)
MEMOS = (b_p_infty, spinorial_class, construct_arithmetic_spin)


def _primes_below(bound):
    return [n for n in range(2, bound) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_spinorial_class_is_the_isogeny_record():
    # the 2(a) record is built directly; it must be the one isogeny_class
    # validates and classifies for the same trace
    for p in _primes_below(128):
        for n in range(1, 7):
            for sign in (1, -1):
                c = spinorial_class(p, n, sign)
                assert c == isogeny_class(p, 2 * n, 2 * sign * p**n), (p, n, sign)
                assert c.is_spinorial() and c.q == p ** (2 * n)
    with pytest.raises(ValueError, match="n = -1"):
        spinorial_class(3, -1)
    with pytest.raises(ValueError, match="sign"):
        spinorial_class(3, 1, 0)


def test_frozen_structure_p3():
    s = construct_arithmetic_spin(3, 1)
    B = s.algebra
    assert (B.a, B.b) == (-1, -3)
    assert s.sigma.u == B.element(0, 0, 1)
    assert s.sigma.discriminant() == -3
    assert s.clifford.delta == -3
    assert s.tau == -3


def test_frozen_structure_p2():
    s = construct_arithmetic_spin(2, 1)
    B = s.algebra
    assert (B.a, B.b) == (-1, -1)
    assert s.sigma.u == B.element(0, 1, 1)
    assert s.sigma.discriminant() == -2
    assert s.tau == -2


def test_structure_invariants_across_primes():
    for p in SMALL_PRIMES:
        s = construct_arithmetic_spin(p, 1)
        assert s.curve_class.beta == -2 * p
        assert s.sigma.discriminant() == squarefree_part(-p)
        assert s.clifford.delta == squarefree_part(-p)
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
    # one constructor answers both parities
    s = construct_arithmetic_spin(3, 2)
    assert s == construct_arithmetic_spin_even(3, 2)
    assert s.clifford.delta == -1 and s.tau == -9
    assert construct_arithmetic_spin(5, 2) is None
    # spinorial_class is the one check of (p, n): p prime, then n >= 1
    for n in (0, -1):
        with pytest.raises(ValueError) as class_error:
            zeta_h1(3, n)
        with pytest.raises(ValueError) as got:
            construct_arithmetic_spin(3, n)
        assert type(got.value) is type(class_error.value), n
        assert str(got.value) == str(class_error.value) == f"n = {n} must be positive"
    with pytest.raises(NotPrime):
        construct_arithmetic_spin(4, 0)
    with pytest.raises(NotPrime):
        construct_arithmetic_spin(4, 2)
    # an odd n is refused with the ValueError spinorial_class gives a bad n
    with pytest.raises(ValueError) as odd:
        construct_arithmetic_spin_even(3, 3)
    assert type(odd.value) is ValueError and str(odd.value) == "n = 3 must be even"


def test_one_constructor_reads_the_certificate_below_128():
    # a structure exists exactly unless n is even and p = 1 mod 4; its u is
    # the certificate's witness in canonical scaling, and its weight, read
    # off the lift, is v_p(N(z)) / v_p(q) = 1/2
    for p in _primes_below(128):
        for n in (1, 2, 3, 4):
            s = construct_arithmetic_spin(p, n)
            assert (s is None) == (n % 2 == 0 and p % 4 == 1), (p, n)
            w = has_arithmetic_spin(spinorial_class(p, n)).witness
            if s is None:
                assert w is None, (p, n)
                continue
            g = math.gcd(*w.nums)
            assert w.den == 1 and s.sigma.u == Quaternion(w.algebra, tuple(x // g for x in w.nums)), (p, n)
            lift = spin_lift(similitude_rep(s))
            weight = realizations(lift).weight
            assert weight == Fraction(valuation(lift.z.norm(), p), 2 * n) == Fraction(1, 2), (p, n)


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
    assert rep.structure is s
    assert rep.tau == -3
    # Frobenius acts by the scalar tau, a proper similitude of multiplier q:
    # sigma(tau) tau = 9 = Nrd(tau)
    g = s.algebra.element(rep.tau)
    assert s.sigma.apply(g) * g == s.algebra.element(9)
    assert g.reduced_norm() == 9


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
    assert lift.z == K.element(0, 1)  # sqrt(-3) = x when delta = -3
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
        sigma = OrthogonalInvolution(B, B.element(0, 1))
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
    # the eigenvalue pair (z^m, (-z)^m) on the m-th power of Frobenius
    a1 = lift.z
    a2 = K.element(-a1.c, -a1.d)
    assert a1 == K.element(0, 1) and a2 == K.element(0, -1)
    assert a1.square() == a2.square() == K.element(-3, 0)
    assert etale_product(a1, K.element(0, Fraction(-1, 3))) == K.element(1)  # z^-1 = -x/3


def test_lifts_are_rational_or_pure():
    # the chain builds only z = c or z = d*x in K, which is why K keeps
    # square and norm and no ring arithmetic
    for p in _primes_below(128):
        for n in (1, 2, 3):
            s = construct_arithmetic_spin(p, n)
            if s is None:
                continue
            for sign in (-1, 1):
                tau = sign * p**n
                lift = spin_lift(WeilRep(s, tau))
                assert (lift is not None) == (sign < 0 or n % 2 == 0), (p, n, sign)
                if lift is None:
                    continue
                z = lift.z
                assert z.c == 0 or z.d == 0, (p, n, sign)
                sq = z.square()
                assert sq.is_rational() and sq.c == tau, (p, n, sign)
                real = realizations(lift)
                assert real.eigen_abs_sq == z.norm() == p**n, (p, n, sign)
                assert real.weight == Fraction(1, 2), (p, n, sign)


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
            e1 = lift.z
            e2 = s.clifford.element(-e1.c, -e1.d)  # the other lift: sum 0
            assert etale_product(e1, e2) == s.clifford.element(p**n)  # product = -tau


def test_realizations_ell_label():
    s = construct_arithmetic_spin(3, 1)
    lift = spin_lift(similitude_rep(s))
    assert realizations(lift).ell == 2
    assert realizations(lift, ell=5).ell == 5
    with pytest.raises(PrecheckFailed, match="ell = 3 equals p = 3"):
        realizations(lift, ell=3)
    for ell in (1, 4, 9, 15):
        with pytest.raises(NotPrime, match=f"ell = {ell} is not prime"):
            realizations(lift, ell=ell)
    s2 = construct_arithmetic_spin(2, 1)
    lift2 = spin_lift(similitude_rep(s2))
    assert realizations(lift2).ell == 3


def test_spin_discriminant_values():
    # the forced class squarefree_part(-p^n), read off the constructions
    for p, n, disc in [(3, 1, -3), (3, 3, -3), (2, 1, -2), (5, 1, -5)]:
        assert construct_arithmetic_spin(p, n).sigma.discriminant() == disc
    for p, n in [(3, 2), (7, 2)]:
        assert construct_arithmetic_spin_even(p, n).sigma.discriminant() == -1


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
    # every per-p memo against its function body run afresh
    for p in _primes_below(2000):
        B = b_p_infty(p)
        fresh = b_p_infty.__wrapped__(p)
        assert B == fresh and ramified_places(B) == {p, OO}, p
        unit = ternary_represents(fresh.pure_norm_coefficients(), 1)
        for n in (1, 2, 3, 4):
            for sign in (1, -1):
                fresh = spinorial_class.__wrapped__(p, n, sign)
                assert spinorial_class(p, n, sign) == fresh, (p, n, sign)
            cert = has_arithmetic_spin(spinorial_class(p, n, -1))
            assert cert.exists == (n % 2 == 1 or unit), (p, n)
            assert verify_identity_exact(p, n).vacuous == (not cert.exists), (p, n)
            fresh = construct_arithmetic_spin.__wrapped__(p, n)
            assert construct_arithmetic_spin(p, n) == fresh, (p, n)


def test_canonical_witnesses_match_the_search_below_10_4():
    # the witnesses read off the presentation (p^((n-1)/2) j, or times i + j
    # for p = 2, and p^(n/2) i for even n) against the first hit of the box
    # search, at boxes 1, 2 and 50; a pure unit exists, by the local-global
    # oracle, exactly when the presentation has a = -1
    for p in _primes_below(10**4):
        B = b_p_infty(p)
        unit = ternary_represents(B.pure_norm_coefficients(), 1)
        assert unit == (B.a == -1), p
        for box in (1, 2, 50):
            odd = find_pure_of_norm(B, p, box)
            even = find_pure_of_norm(B, 1, box) if unit else None
            for n in range(1, 7):
                hit = odd if n % 2 else even
                want = None if hit is None else Quaternion(B, tuple(x * p ** (n // 2) for x in hit.nums), hit.den)
                assert spinstruct._canonical_u(B, p, n) == want, (p, n, box)


def test_canonical_chain_runs_no_search(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError(f"searched or decided by local-global: {args}")

    monkeypatch.setattr(quat, "find_pure_of_norm", refuse)
    monkeypatch.setattr(arith, "ternary_represents", refuse)
    for p in (2, 3, 5, 7, 11):
        for n in (1, 2, 3, 4):
            cert = has_arithmetic_spin(spinorial_class(p, n, -1))
            s = construct_arithmetic_spin(p, n)
            vacuous = verify_identity_exact(p, n).vacuous
            assert cert.exists == (s is not None) == (not vacuous), (p, n)
    for argv in (
        ["spin", "--p", "2", "--n", "1"],
        ["spin", "--p", "3", "--n", "2"],
        ["crystal", "--p", "3", "--n", "1"],
        ["selftest"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_memos_are_bounded():
    for p in _primes_below(2000)[:300]:
        has_arithmetic_spin(spinorial_class(p, 1, -1))
        has_arithmetic_spin(spinorial_class(p, 2, -1))
        construct_arithmetic_spin(p, 1)
        construct_arithmetic_spin(p, 2)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == quat.MEMO_PRIMES
        assert 0 < info.currsize <= info.maxsize, memo
    assert b_p_infty.cache_info().currsize == quat.MEMO_PRIMES
    assert construct_arithmetic_spin.cache_info().currsize == quat.MEMO_PRIMES


def test_memos_keep_no_errors():
    for bad in (1, 4):
        for _ in range(3):
            with pytest.raises(NotPrime):
                b_p_infty(bad)
            with pytest.raises(NotPrime) as got:
                construct_arithmetic_spin(bad, 1)
            assert got.value.code == "not-prime"
            with pytest.raises(NotPrime):
                spinorial_class(bad, 1, 1)
    for _ in range(3):
        with pytest.raises(ValueError, match="n = 0"):
            spinorial_class(3, 0)
        with pytest.raises(ValueError, match="sign"):
            spinorial_class(3, 1, 0)
        with pytest.raises(TypeError):
            spinorial_class(3.0, 1)
        with pytest.raises(BoundExceeded, match="^p = 3, n = 2048: 3"):
            spinorial_class(3, 2048)


def test_memoised_objects_reject_assignment():
    B = b_p_infty(7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        B.a = Fraction(-3)
    for p in (2, 7):
        v = has_arithmetic_spin(spinorial_class(p, 2, -1)).witness
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x1 = Fraction(0)
        s = construct_arithmetic_spin(p, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.clifford = s.clifford


def test_structure_memo_is_per_typed_p_and_n():
    # a repeated (p, n) answers with the kept object, None included; p and n
    # are read through operator.index, before and after (3, 1) is kept, so
    # a float never answers with the structure kept for an int
    s = construct_arithmetic_spin(7, 3)
    assert construct_arithmetic_spin(7, 3) is s
    assert construct_arithmetic_spin(5, 2) is None
    construct_arithmetic_spin.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError):
            construct_arithmetic_spin(3.0, 1)
        with pytest.raises(TypeError):
            construct_arithmetic_spin(3, 1.0)
        assert construct_arithmetic_spin(3, 1).tau == -3
    assert construct_arithmetic_spin(3, True) == construct_arithmetic_spin(3, 1)


def test_class_memo_is_per_typed_p_n_and_sign():
    # sign is read through operator.index, as p and n are, so 1.0 raises on
    # every call, before and after (3, 1, 1) is kept, and beta stays an int
    spinorial_class.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError):
            spinorial_class(3, 1, 1.0)
        c = spinorial_class(3, 1, 1)
        assert type(c.beta) is int and c.beta == 6
        assert spinorial_class(3, 1, 1) is c
    assert spinorial_class(3, 1, True) == c


def test_failed_checks_name_p_n_and_tau(monkeypatch):
    # each check is an explicit raise whose message names the input
    monkeypatch.setattr(quat, "b_p_infty", lambda p: quat.QuaternionAlgebra(-1, -7))
    with pytest.raises(AssertionError, match=r"^p = 3, n = 1, tau = -3: Nrd\(j\) != p\^n"):
        has_arithmetic_spin(spinorial_class(3, 1))
    monkeypatch.undo()
    lift = spin_lift(similitude_rep(construct_arithmetic_spin(3, 1)))
    doubled = dataclasses.replace(lift, z=lift.z.ring.element(0, 2))
    with pytest.raises(AssertionError, match=r"^p = 3, n = 1, tau = -3: \|z\|\^2 = 12 != \|tau\|$"):
        realizations(doubled)


def test_chain_closes_at_the_brute_force_curve_over_f_p2():
    # the paper's object by brute force: for every p <= 127 (q = p^2 <= 2^14)
    # the curve find_q14_curve gives has trace beta = p^2 + 1 - N, its class
    # is spinorial with Frobenius -p, the identity holds with its lhs built
    # from N, the lift squares to -p, and of the two spinorial classes
    # beta = +-2p exactly one carries a structure
    for p in _primes_below(128):
        N = count_points(find_q14_curve(p))
        beta = p * p + 1 - N
        c = isogeny_class(p, 2, beta)
        assert c == spinorial_class(p, 1) and frobenius_scalar(c) == -p, p
        proof = verify_identity_exact(p, 1)
        assert proof.holds and proof.lhs == RationalFunction((1,), (1, -beta, p * p)), p
        s = construct_arithmetic_spin(p, 1)
        z = spin_lift(similitude_rep(s)).z
        assert z.square() == s.clifford.element(-p), p
        carried = [has_arithmetic_spin(isogeny_class(p, 2, b)).exists for b in (2 * p, -2 * p)]
        assert carried == [False, True], p


def test_spin_lift_matches_the_fraction_oracle():
    # the lift is the oracle's root of tau in the structure's K, or None, for
    # both signs of tau (the plus class on the same involution, as in
    # `spinel spin --tau-sign plus`); n even and p = 1 mod 4 have no structure
    for p in _primes_below(200):
        for n in range(1, 7):
            s = construct_arithmetic_spin(p, n)
            assert (s is None) == (n % 2 == 0 and p % 4 == 1), (p, n)
            if s is None:
                continue
            for sign in (-1, 1):
                c = spinorial_class(p, n, sign)
                rep = WeilRep(SpinStructure(c, s.algebra, s.sigma, s.clifford), frobenius_scalar(c))
                lift = spin_lift(rep)
                want = sqrt_rational_oracle(s.clifford, rep.tau)
                assert (None if lift is None else lift.z) == want, (p, n, sign)


def test_realizations_match_the_two_valuation_oracle():
    # one valuation, of |z|^2 = |tau|, gives what v_p(|z|^2) and v_p(tau) gave
    for p in _primes_below(200):
        for n in range(1, 7):
            s = construct_arithmetic_spin(p, n)
            if s is None:
                continue
            lift = spin_lift(similitude_rep(s))
            for ell in (None, 7 if p == 5 else 5):
                got = dataclasses.asdict(realizations(lift, ell))
                want = realizations_oracle(lift, ell)
                assert {k: (type(v), v) for k, v in got.items()} == {
                    k: (type(v), v) for k, v in want.items()
                }, (p, n, ell)


def _trace_over(F, a3: int, a4: int) -> int:
    """q + 1 - #E(F_q) for y^2 + a3 y = x^3 + a4 x, coefficients given as integers."""
    E = WeierstrassCurve(F, 0, 0, F.from_int(a3), F.from_int(a4), 0)
    return F.q + 1 - count_points(E)


def test_even_n_rule_at_the_brute_force_curve_j_1728():
    # y^2 = x^3 + x over F_{p^2} has trace -2p exactly when B_{p,oo} = (-1, -p),
    # exactly when the tau = -p^2 class carries a structure (p = 3 mod 4);
    # otherwise the curve is ordinary and p does not divide its trace
    for p in _primes_below(128)[1:]:
        trace = _trace_over(FiniteField(p, 2), 0, 1)
        spin = has_arithmetic_spin(spinorial_class(p, 2)).exists
        assert (trace == -2 * p) == (b_p_infty(p).a == -1) == spin == (p % 4 == 3), p
        if not spin:
            assert trace % p != 0, p
    # the primes the short form leaves out: y^2 + y = x^3 over F_4, y^2 = x^3 - x over F_9
    assert _trace_over(FiniteField(2, 2), 1, 0) == -4
    assert _trace_over(FiniteField(3, 2), 0, -1) == -6
    assert has_arithmetic_spin(spinorial_class(2, 2)).exists
    assert has_arithmetic_spin(spinorial_class(3, 2)).exists


def test_twist_over_f_p4_is_in_the_n_2_class():
    # n = 2 from the curve side: find_q14_curve(p) over F_{p^4} has Frobenius
    # p^2, so its twist by a nonsquare d (a4 d^2, a6 d^3) has Frobenius -p^2,
    # trace -2p^2 and (p^2 + 1)^2 points, with exponent dividing p^2 + 1; the
    # class carries a structure exactly when p = 3 mod 4, and then z^2 = -p^2
    for p in (5, 7, 11):
        E0, F = find_q14_curve(p), FiniteField(p, 4)  # constants keep their codes
        d = next(u for u in F.elements() if not F.sqrts(u))
        E = WeierstrassCurve(F, 0, 0, 0, F.mul(E0.a4, F.pow(d, 2)), F.mul(E0.a6, F.pow(d, 3)))
        points = curve_points(E)
        c = spinorial_class(p, 2)
        assert F.q + 1 - len(points) == c.beta == -2 * p * p, p
        assert len(points) == count_points(E) == (p * p + 1) ** 2, p
        assert _exponent_divides(E, points, p * p + 1), p
        proof = verify_identity_exact(p, 2)
        assert proof.holds and proof.vacuous == (p == 5), p
        assert proof.lhs == RationalFunction((1,), (1, -c.beta, F.q)), p
        s = construct_arithmetic_spin(p, 2)
        if s is not None:
            assert spin_lift(similitude_rep(s)).z.square() == s.clifford.element(-p * p), p


def test_j_1728_automorphism_is_a_pure_unit():
    # for p = 3 mod 4, alpha(x, y) = (-x, i y) with i^2 = -1 in F_{p^2} is an
    # automorphism of y^2 = x^3 + x: it maps E(F_{p^2}) onto itself, squares to
    # [-1] and commutes with the group law, the norm-1 pure quaternion i of
    # B_{p,oo} = (-1, -p) that the even-n structures read
    for p in [p for p in _primes_below(128) if p % 4 == 3 and p >= 7]:
        F = FiniteField(p, 2)
        E = WeierstrassCurve(F, 0, 0, 0, 1, 0)
        i = F.sqrts(F.neg(1))[0]

        def alpha(P):
            return None if P is None else (F.neg(P[0]), F.mul(i, P[1]))

        points = curve_points(E)
        assert sorted(map(alpha, points[1:])) == sorted(points[1:]) and alpha(None) is None, p
        assert all(alpha(alpha(P)) == (P[0], F.neg(P[1])) for P in points[1:]), p
        add, rng = _group_law(E), random.Random(p)
        for _ in range(50):
            P, Q = rng.choice(points), rng.choice(points)
            assert alpha(add(P, Q)) == add(alpha(P), alpha(Q)), (p, P, Q)
