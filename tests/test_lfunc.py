import dataclasses
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import spinel

from _oracles import (
    identity_sides_oracle,
    identity_vacuous_oracle,
    poly_gcd_oracle,
    rational_function_oracle,
    spin_zeta_oracle,
)
from spinel import arith, spinstruct
from spinel.errors import BoundExceeded, NotPrime, ZeroInput
from spinel.lfunc import (
    RationalFunction,
    _gauss_mul_poly,
    factor_over_gaussians,
    l_values,
    poly_eval,
    poly_mul,
    poly_str,
    verify_identity_exact,
    zeta_h1,
    zeta_spin,
)
from spinel.spinspace import EtaleElement

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_poly_helpers():
    assert poly_mul((1, 3), (1, 3)) == (1, 6, 9)
    assert poly_eval((1, 6, 9), Fraction(1, 3)) == 4
    assert poly_str((1, 6, 9)) == "1+6T+9T^2"
    assert poly_str((1, 0, 3)) == "1+3T^2"
    assert poly_str((1, -1)) == "1-T"


def test_rational_function_reduction():
    f = RationalFunction((2, 4), (2,))
    assert f == RationalFunction((1, 2), (1,))
    g = RationalFunction(poly_mul((1, 1), (1, 1)), (1, 1))
    assert g == RationalFunction((1, 1), (1,))
    # construction trims zero leading coefficients and nothing else
    trimmed = RationalFunction((1, 2, 0), (1, 0))
    assert (trimmed.num, trimmed.den) == ((1, 2), (1,)) and str(trimmed) == "1+2T"
    with pytest.raises(ZeroInput):
        RationalFunction((1,), (0, 0))
    h = RationalFunction((1,), (1, 0, 3))
    assert h.evaluate(Fraction(1, 3)) == Fraction(3, 4)
    assert str(h) == "1/(1+3T^2)"
    assert (h.num, h.den) == ((1,), (1, 0, 3))


def test_rational_function_equality_across_presentations():
    a = RationalFunction((1, 1), (1, -1))
    b = RationalFunction(poly_mul((1, 1), (2, 2)), poly_mul((1, -1), (2, 2)))
    assert a == b
    c = RationalFunction((-1, -1), (-1, 1))
    assert a == c  # a sign on both parts
    assert a != RationalFunction((1, 1), (-1, 1))
    assert a != RationalFunction((1, 1), (1, 1))
    assert a != "(1+T)/(1-T)"
    with pytest.raises(TypeError):
        hash(a)


def test_zeta_spin_shape():
    z = zeta_spin(3, 1)
    assert z.num == (1,)
    assert z.den == (1, 0, 3)
    assert str(z) == "1/(1+3T^2)"
    z5 = zeta_spin(5, 3)
    assert z5.den == (1, 0, 125)
    with pytest.raises(NotPrime):
        zeta_spin(6, 1)


def test_zeta_h1_shape():
    h = zeta_h1(3, 1)
    assert h.den == (1,)
    assert h.num == (1, 6, 9)
    assert str(h) == "1+6T+9T^2"
    # reciprocal roots both -p^n: evaluate at -1/p^n gives 0
    assert poly_eval(h.num, Fraction(-1, 3)) == 0
    h2 = zeta_h1(2, 3)
    assert h2.num == (1, 16, 64)


def test_identity_squares_exactly():
    for p in PRIMES_TO_50:
        for n in range(1, 6):
            proof = verify_identity_exact(p, n)
            assert proof.holds, (p, n)
            lhs = proof.lhs
            # lhs must equal (1/(1+p^n T))^2 in Q(T)
            expected = RationalFunction((1,), poly_mul((1, p**n), (1, p**n)))
            assert lhs == expected
            assert proof.rhs == expected


def test_identity_vacuous_flag():
    assert not verify_identity_exact(3, 1).vacuous
    assert not verify_identity_exact(3, 2).vacuous  # 3 = 3 mod 4: structure exists
    assert verify_identity_exact(5, 2).vacuous  # no spin structure over p = 1 mod 4
    assert verify_identity_exact(13, 2).vacuous
    assert not verify_identity_exact(2, 2).vacuous
    assert not verify_identity_exact(5, 1).vacuous


LIFT_MUTATIONS = [
    (lambda z: EtaleElement(z.ring, 2 * z.cn, 2 * z.dn, z.den), False),
    (lambda z: EtaleElement(z.ring, z.cn + z.den, z.dn, z.den), False),
    (lambda z: EtaleElement(z.ring, -z.cn, -z.dn, z.den), True),  # the other lift
]


@pytest.mark.parametrize("mutate,holds", LIFT_MUTATIONS, ids=["2z", "z+1", "-z"])
def test_identity_reads_the_rhs_off_the_lift(monkeypatch, mutate, holds):
    # 2z squares to 4 tau; (z + 1)^2 is not rational; -z is the other lift
    real = spinstruct.spin_lift

    def mutated(rep):
        lift = real(rep)
        return dataclasses.replace(lift, z=mutate(lift.z))

    monkeypatch.setattr(spinstruct, "spin_lift", mutated)
    for p, n in ((2, 1), (3, 1), (3, 2), (7, 3), (5, 1)):
        proof = verify_identity_exact(p, n)
        assert proof.holds is holds and not proof.vacuous, (p, n)


def test_vacuous_identity_keeps_tau(monkeypatch):
    # no structure, so no lift is read: the rhs is 1/(1 + 25 U)^2 from tau
    monkeypatch.setattr(spinstruct, "spin_lift", None)
    proof = verify_identity_exact(5, 2)
    assert proof.vacuous and proof.holds
    assert (proof.rhs.num, proof.rhs.den) == ((1,), (1, 50, 625))


def _sides(proof):
    return (proof.lhs.num, proof.lhs.den), (proof.rhs.num, proof.rhs.den), proof.holds, proof.vacuous


def _primes_below(bound):
    return [m for m in range(2, bound) if all(m % d for d in range(2, math.isqrt(m) + 1))]


def test_identity_matches_the_q_t_algebra_oracle():
    # the closed-form sides are the reciprocal of Z(H^1) and the square of
    # 1/(1 - z^2 U), term for term, with the same holds and vacuous
    for p in _primes_below(2000) + [2**61 - 1]:
        for n in range(1, 7):
            assert _sides(verify_identity_exact(p, n)) == identity_sides_oracle(p, n), (p, n)


@pytest.mark.parametrize(
    "mutate",
    [m for m, _ in LIFT_MUTATIONS] + [lambda z: EtaleElement(z.ring, z.cn, z.dn, 2 * z.den)],
    ids=["2z", "z+1", "-z", "z/2"],
)
def test_identity_matches_the_oracle_on_a_mutated_lift(monkeypatch, mutate):
    # the oracle reads the same mutated lift, so both sides still agree; z/2
    # gives z^2 = a/b with b > 1, which the true lift never has
    real = spinstruct.spin_lift
    monkeypatch.setattr(
        spinstruct, "spin_lift", lambda rep: dataclasses.replace(real(rep), z=mutate(real(rep).z))
    )
    for p in _primes_below(200):
        for n in range(1, 7):
            assert _sides(verify_identity_exact(p, n)) == identity_sides_oracle(p, n), (p, n)


def test_identity_at_a_large_prime():
    proof = verify_identity_exact(2**61 - 1, 1)
    assert proof.holds and not proof.vacuous


def test_import_spinel_does_not_load_mpmath():
    # the spin chain, memos included, and an irrational L-value through the
    # library and the CLI all run in ints and Decimals
    code = (
        "import sys; from fractions import Fraction; import spinel; "
        "from spinel.cli import main; "
        "spinel.construct_arithmetic_spin(2, 3); spinel.construct_arithmetic_spin_even(3, 2); "
        "spinel.verify_identity_exact(5, 2); spinel.l_values(3, 1, Fraction(1, 3)); "
        "assert main(['lfunc', '--p', '3', '--n', '1', '--s', '1/3']) == 0; "
        "assert 'mpmath' not in sys.modules"
    )
    src = str(Path(spinel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "L(E, 1/3) = 0.16765631496644505" in out.stdout


def test_l_values_exact_point():
    v = l_values(3, 1, 1)
    assert v.l_curve == Fraction(9, 16)
    assert v.l_spin == Fraction(27, 28)
    assert v.l_spin_half == Fraction(3, 4)
    assert v.l_spin_half_sq == Fraction(9, 16)
    assert v.l_curve == v.l_spin_half_sq


def test_l_values_at_central_point():
    v = l_values(3, 1, Fraction(1, 2))
    assert v.l_curve == Fraction(1, 4)
    assert v.l_spin_half == Fraction(1, 2)  # L(rho, 1/4) = 1/(1+3^{0}) = 1/2
    assert v.l_spin == Fraction(3, 4)  # L(rho, 1/2) central value


def test_l_values_numeric_matches_exact_squares():
    # at irrational exponents both sides go through mpmath; compare the
    # curve value against the spin value computed at s/2 independently
    for (p, n) in [(3, 1), (5, 1), (7, 1), (3, 3)]:
        for s in [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)]:
            full = l_values(p, n, s)
            half = l_values(p, n, s / 2)
            diff = abs(mpmath.mpf(str(full.l_curve if isinstance(full.l_curve, Fraction) else full.l_curve))
                       - mpmath.mpf(str(half.l_spin if isinstance(half.l_spin, Fraction) else half.l_spin)) ** 2)
            assert diff < mpmath.mpf("1e-12"), (p, n, s)


#: the benchmark's s values; the calls below keep those where q^(1/2 - s) or
#: q^(1/2 - 2s) is irrational
_BENCH_S = tuple(
    Fraction(x) for x in ("1", "2", "1/2", "1/4", "3/4", "1/3", "2/3", "3/2", "5/4", "1/6")
)


def _as_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(str(x))


def test_l_values_match_80_digit_recomputation():
    # every inexact value is the true one correctly rounded to 40 digits, so
    # it lies within half a unit in the 40th digit of an 80-digit recomputation
    checked = 0
    for p in (2, 3, 7, 11):
        for n in (1, 2, 3):
            for s in _BENCH_S:
                exps = (2 * n * (Fraction(1, 2) - s), 2 * n * (Fraction(1, 2) - 2 * s))
                if all(e.denominator == 1 for e in exps):
                    continue
                vals = l_values(p, n, s)
                with mpmath.workdps(80):
                    half, spin = (
                        1 / (1 + mpmath.power(p, mpmath.mpf(e.numerator) / e.denominator))
                        for e in exps
                    )
                    want = (half**2, spin, half, half**2)
                    got = (vals.l_curve, vals.l_spin, vals.l_spin_half, vals.l_spin_half_sq)
                    for g, w in zip(got, want):
                        assert abs(_as_mpf(g) - w) < mpmath.mpf("1e-39") * w, (p, n, s)
                checked += 1
    assert checked == 48


def test_l_values_exact_and_irrational_powers():
    # L(rho_spin, s/2) = 1/(1 + q^(1/2 - s)) and L(rho_spin, s) = 1/(1 + q^(1/2 - 2s))
    v = l_values(3, 1, Fraction(-3, 2))  # q^2 = 81 and q^(7/2) = 3^7
    assert (v.l_spin_half, v.l_spin) == (Fraction(1, 82), Fraction(1, 2188))
    v = l_values(3, 1, 0)  # q^(1/2) = 3
    assert v.l_spin_half == v.l_spin == Fraction(1, 4)
    v = l_values(2, 1, Fraction(3, 2))  # q^-1 = 1/4 and q^(-5/2) = 1/32
    assert (v.l_spin_half, v.l_spin) == (Fraction(4, 5), Fraction(32, 33))
    v = l_values(3, 1, Fraction(1, 4))  # q^(1/4) = sqrt(3), irrational; q^0 = 1
    assert isinstance(v.l_spin_half, Decimal) and isinstance(v.l_curve, Decimal)
    assert v.l_spin == Fraction(1, 2)
    with mpmath.workdps(40):
        assert abs(_as_mpf(v.l_spin_half) - 1 / (1 + mpmath.sqrt(3))) < mpmath.mpf("1e-30")
    # roots of degree 25, 26 and 50, against 80-digit mpmath
    for s, e_half in ((Fraction(12, 25), Fraction(1, 25)), (Fraction(25, 52), Fraction(1, 26)),
                      (Fraction(1, 100), Fraction(49, 50))):
        v = l_values(2, 1, s)  # q^(1/2 - s) = 2^e_half and q^(1/2 - 2s) = 2^(2 e_half - 1)
        with mpmath.workdps(80):
            for got, e in ((v.l_spin_half, e_half), (v.l_spin, 2 * e_half - 1)):
                want = 1 / (1 + mpmath.power(2, mpmath.mpf(e.numerator) / e.denominator))
                assert abs(_as_mpf(got) - want) < mpmath.mpf("1e-39") * want, s


def test_l_values_ignore_the_callers_decimal_context():
    points = [(3, 1, Fraction(1, 3)), (2, 5, Fraction(1, 6)), (11, 3, Fraction(5, 4))]
    want = [l_values(*x) for x in points]
    with localcontext():
        getcontext().prec = 5
        got = [l_values(*x) for x in points]
    assert got == want
    assert all(len(v.l_curve.as_tuple().digits) == 40 for v in got)


def test_values_ignore_a_changed_default_context():
    # a Context copies what it is not given from decimal.DefaultContext, so
    # one changed before spinel is imported must not reach the values or the
    # printed digits
    points = [(3, 1, Fraction(1, 3)), (2, 5, Fraction(1, 6)), (2, 1, Fraction(1, 100))]
    code = (
        "import decimal; d = decimal.DefaultContext; "
        "d.prec, d.rounding, d.Emin, d.Emax = 5, decimal.ROUND_FLOOR, -3, 3; "
        "d.traps[decimal.Inexact] = True; decimal.setcontext(decimal.Context()); "
        "from fractions import Fraction; import spinel; from spinel.cli import main; "
        f"print([str(v) for x in {points!r} for v in vars(spinel.l_values(*x)).values()]); "
        "main(['lfunc', '--p', '2', '--n', '1', '--s', '1/100'])"
    )
    src = str(Path(spinel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    first, *rest = out.stdout.splitlines()
    assert first == str([str(v) for x in points for v in vars(l_values(*x)).values()])
    assert "L(E, 1/100) = 0.11317913782727735" in rest


def test_gaussian_factorization():
    g = factor_over_gaussians(3, 1)
    assert g.product == (1, 0, 1)
    # (1 + iV)(1 - iV) = 1 + V^2 over Z[i]
    assert _gauss_mul_poly(((1, 0), (0, 1)), ((1, 0), (0, -1))) == ((1, 0), (0, 0), (1, 0))
    # numeric check of the substitution V = q^{1/4 - s/2} ... evaluate the
    # product at a transcendental-looking point and compare to 1 + V^2
    V = mpmath.mpf("0.37")
    lhs = (1 + 1j * V) * (1 - 1j * V)
    assert abs(lhs - (1 + V * V)) < mpmath.mpf("1e-12")


def test_zeta_functions_match_the_closed_forms_below_128():
    # Z(H^1), Z(rho_spin) and both sides of the identity are read off the
    # spinorial class; they must be the closed forms in p^n, term for term
    primes = [p for p in range(2, 128) if all(p % d for d in range(2, p))]
    for p in primes:
        for n in range(1, 7):
            proof = verify_identity_exact(p, n)
            got = {"zeta_h1": zeta_h1(p, n), "zeta_spin": zeta_spin(p, n)}
            got |= {"lhs": proof.lhs, "rhs": proof.rhs}
            assert {k: (R.num, R.den) for k, R in got.items()} == spin_zeta_oracle(p, n)
            assert proof.holds, (p, n)
            assert proof.vacuous == identity_vacuous_oracle(p, n), (p, n)


def test_each_call_proves_p_prime_once(monkeypatch):
    # spinorial_class is the one check of (p, n) and every public lfunc call
    # builds one class, so each call proves p prime once with the class memo
    # cleared, and a repeated call proves nothing; the per-p memo behind the
    # certificate that `vacuous` reads is filled before counting
    proofs = []
    is_prime = arith.is_prime

    def counting(m):
        proofs.append(m)
        return is_prime(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinel") and getattr(module, "is_prime", None) is is_prime:
            monkeypatch.setattr(module, "is_prime", counting)
    calls = [
        zeta_h1,
        zeta_spin,
        verify_identity_exact,
        factor_over_gaussians,
        lambda p, n: l_values(p, n, 1),
        lambda p, n: l_values(p, n, Fraction(1, 3)),
        lambda p, n: spinstruct.spinorial_class(p, n, 1),
        spinstruct.spinorial_class,
    ]
    for p in (2, 3, 5, 13, 127):
        for n in (1, 2, 3):
            verify_identity_exact(p, n)
            for call in calls:
                spinstruct.spinorial_class.cache_clear()
                proofs.clear()
                call(p, n)
                assert proofs == [p], (call, p, n)
                proofs.clear()
                call(p, n)
                assert proofs == [], (call, p, n)


@pytest.mark.parametrize(
    "p,n,error",
    [
        (4, 5000, NotPrime),
        (4, 0, NotPrime),
        (3, 0, ValueError),
        (3, -1, ValueError),
        (3, 2048, BoundExceeded),
        (2, 2048, BoundExceeded),
    ],
)
def test_one_check_order_for_p_and_n(p, n, error):
    # p prime, then n >= 1, then the power limit on q = p^(2n)
    calls = [zeta_h1, zeta_spin, verify_identity_exact, factor_over_gaussians]
    calls += [spinstruct.spinorial_class, lambda p, n: l_values(p, n, 1)]
    for call in calls:
        with pytest.raises(error, match=f"n = {n}" if error is ValueError else None):
            call(p, n)


def test_l_value_errors():
    with pytest.raises(NotPrime):
        l_values(4, 1, 1)
    with pytest.raises(ValueError):
        zeta_spin(3, 0)


def _random_poly(rng, size):
    """A polynomial of degree 0..3 with nonzero lead, coefficients |c| <= size."""
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return (*(rng.randint(-size, size) for _ in range(rng.randint(0, 3))), lead)


def test_equality_matches_fraction_euclid():
    # A = a1 f h1 / a1 g h1 against B = b1 f' h2 / b1 g' h2, with planted
    # common factors h1, h2, integer contents a1, b1 (zero included) and
    # leads of either sign; f'/g' is f/g about half the time.  The two are
    # equal exactly when the Fraction Euclid reduces them to the same pair.
    rng = random.Random(20)
    equal = unequal = planted = negative_den = 0
    for k in range(2000):
        size = 10**4 if k % 5 == 0 else 6
        f, g = _random_poly(rng, size), _random_poly(rng, size)
        same = rng.random() < 0.5
        f2 = f if same else _random_poly(rng, size)
        g2 = g if same or rng.random() < 0.5 else _random_poly(rng, size)
        h1, h2 = _random_poly(rng, size), _random_poly(rng, size)
        a1 = rng.randint(-12, 12)
        b1 = a1 if a1 == 0 else rng.choice([-1, 1]) * rng.randint(1, 12)
        A = (poly_mul((a1,), poly_mul(f, h1)), poly_mul((a1 or 1,), poly_mul(g, h1)))
        B = (poly_mul((b1,), poly_mul(f2, h2)), poly_mul((b1 or 1,), poly_mul(g2, h2)))
        expected = rational_function_oracle(*A) == rational_function_oracle(*B)
        assert (RationalFunction(*A) == RationalFunction(*B)) == expected, (A, B)
        assert (RationalFunction(*B) == RationalFunction(*A)) == expected, (A, B)
        equal += expected
        unequal += not expected
        planted += len(poly_gcd_oracle(*A)) > 1
        negative_den += A[1][-1] < 0
    assert equal > 800 and unequal > 800 and planted > 1000 and negative_den > 600
    # the first remainder of this pair, (-2, 0, 0), has zero leading terms
    R = RationalFunction((-1, 1, 1), (-2, -2, -2))
    assert R == RationalFunction((1, -1, -1), (2, 2, 2))
    assert R != RationalFunction((1, -1, -1), (-2, -2, -2))


def test_built_functions_are_in_lowest_terms():
    # nothing reduces at construction or in __str__, so every function the
    # package builds must already be the oracle's normal form
    for p in PRIMES_TO_50:
        for n in range(1, 6):
            proof = verify_identity_exact(p, n)
            for R in (zeta_spin(p, n), zeta_h1(p, n), proof.lhs, proof.rhs):
                assert (R.num, R.den) == rational_function_oracle(R.num, R.den), (p, n)
            assert str(zeta_spin(p, n)) == f"1/(1+{p**n}T^2)"
            assert str(zeta_h1(p, n)) == f"1+{2 * p**n}T+{p**(2 * n)}T^2"
