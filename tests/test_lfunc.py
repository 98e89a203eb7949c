import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import spinel

from _oracles import poly_gcd_oracle, rational_function_oracle
from spinel.errors import NotPrime
from spinel.lfunc import (
    RationalFunction,
    _poly_gcd,
    factor_over_gaussians,
    l_values,
    poly_add,
    poly_eval,
    poly_mul,
    poly_str,
    q_power,
    verify_identity_exact,
    zeta_h1,
    zeta_spin,
)

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_poly_helpers():
    assert poly_mul((1, 3), (1, 3)) == (1, 6, 9)
    assert poly_add((1, 0, 3), (0, 2)) == (1, 2, 3)
    assert poly_eval((1, 6, 9), Fraction(1, 3)) == 4
    assert poly_str((1, 6, 9)) == "1+6T+9T^2"
    assert poly_str((1, 0, 3)) == "1+3T^2"
    assert poly_str((1, -1)) == "1-T"


def test_rational_function_reduction():
    f = RationalFunction((2, 4), (2,))
    assert f.num == (1, 2) and f.den == (1,)
    g = RationalFunction(poly_mul((1, 1), (1, 1)), (1, 1))
    assert g.num == (1, 1) and g.den == (1,)
    assert g.is_polynomial()
    h = RationalFunction((1,), (1, 0, 3))
    assert h.evaluate(Fraction(1, 3)) == Fraction(3, 4)
    assert str(h) == "1/(1+3T^2)"
    assert h.reciprocal().num == (1, 0, 3)


def test_rational_function_equality_across_presentations():
    a = RationalFunction((1, 1), (1, -1))
    b = RationalFunction(poly_mul((1, 1), (2, 2)), poly_mul((1, -1), (2, 2)))
    assert a == b
    c = RationalFunction((-1, -1), (-1, 1))
    assert a == c  # sign normalized into the numerator


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
    assert h.is_polynomial()
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
            # lhs must equal (1/(1+p^n T))^2 as a reduced rational function
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


def test_import_spinel_does_not_load_mpmath():
    # mpmath is imported only for an irrational L-value; the exact spin
    # chain, memos included, runs without it
    code = (
        "import sys, spinel; "
        "spinel.construct_arithmetic_spin(2, 3); spinel.construct_arithmetic_spin_even(3, 2); "
        "spinel.verify_identity_exact(5, 2); spinel.l_values(3, 1, 1); "
        "print('mpmath' in sys.modules)"
    )
    src = str(Path(spinel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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


def test_q_power_exact_vs_numeric():
    assert q_power(3, 1, Fraction(2)) == 81
    assert q_power(3, 1, Fraction(1, 2)) == 3  # q = 9
    assert q_power(2, 1, Fraction(-1)) == Fraction(1, 4)
    x = q_power(3, 1, Fraction(1, 4))  # 9^{1/4} = sqrt(3), irrational
    assert isinstance(x, mpmath.mpf)
    with mpmath.workdps(40):
        assert abs(x - mpmath.sqrt(3)) < mpmath.mpf("1e-30")


def test_gaussian_factorization():
    g = factor_over_gaussians(3, 1)
    assert g.product == (1, 0, 1)
    (f1, f2) = g.factors
    # 1 + iV and 1 - iV
    assert f1 == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert f2 == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    # numeric check of the substitution V = q^{1/4 - s/2} ... evaluate the
    # product at a transcendental-looking point and compare to 1 + V^2
    V = mpmath.mpf("0.37")
    lhs = (1 + 1j * V) * (1 - 1j * V)
    assert abs(lhs - (1 + V * V)) < mpmath.mpf("1e-12")


def test_l_value_errors():
    with pytest.raises(NotPrime):
        l_values(4, 1, 1)
    with pytest.raises(ValueError):
        zeta_spin(3, 0)


def _random_poly(rng, size):
    """A polynomial of degree 0..3 with nonzero lead, coefficients |c| <= size."""
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return (*(rng.randint(-size, size) for _ in range(rng.randint(0, 3))), lead)


def test_normal_form_matches_fraction_euclid():
    # num = c1 f h and den = c2 g h with a planted common factor h, integer
    # contents c1, c2 and leads of either sign, reduced in Z[T] and by the
    # Fraction Euclid and division that the Z[T] routines replaced
    rng = random.Random(20)
    nontrivial = negative_den = 0
    for k in range(600):
        size = 10**4 if k % 5 == 0 else 6
        h = _random_poly(rng, size)
        c1, c2 = rng.randint(-12, 12), rng.choice([-1, 1]) * rng.randint(1, 12)
        num = poly_mul((c1,), poly_mul(_random_poly(rng, size), h))
        den = poly_mul((c2,), poly_mul(_random_poly(rng, size), h))
        assert _poly_gcd(num, den) == poly_gcd_oracle(num, den), (num, den)
        R = RationalFunction(num, den)
        assert (R.num, R.den) == rational_function_oracle(num, den), (num, den)
        nontrivial += len(_poly_gcd(num, den)) > 1
        negative_den += den[-1] < 0
    assert nontrivial > 300 and negative_den > 200
    # the replaced Fraction Euclid raised ZeroDivisionError here
    R = RationalFunction((-1, 1, 1), (-2, -2, -2))
    assert (R.num, R.den) == ((1, -1, -1), (2, 2, 2))
