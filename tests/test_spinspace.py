import math
import random
from fractions import Fraction
from itertools import product

import pytest

from _oracles import (
    etale_product,
    etale_str,
    quaternion_sum,
    random_fraction,
    random_involution,
    sqrt_rational_oracle,
)
from spinel.arith import squarefree_part
from spinel.errors import (
    AlgebraMismatch,
    DeltaMismatch,
    NotInvertible,
    NotPure,
    NotUnit,
    ZeroInput,
)
from spinel.quat import QuaternionAlgebra, b_p_infty
from spinel.spinstruct import construct_arithmetic_spin, construct_arithmetic_spin_even
from spinel.spinspace import (
    EtaleElement,
    OrthogonalInvolution,
    QuadraticEtale,
    covering_map,
)


def _random_element(B, rng, size=6):
    return B.element(*(random_fraction(rng, size) for _ in range(4)))


def _embed(B, z):
    """c + d x -> c + d j, the embedding of K into (-1,-3 | Q) for u = j."""
    return B.element(z.c, 0, z.d)


def _multiplier(sigma, g):
    """mu(g) with sigma(g) g = mu(g), or None when sigma(g) g is not a scalar."""
    prod = sigma.apply(g) * g
    return prod.x0 if prod.nums[1:] == (0, 0, 0) else None


def _random_definite_algebra(rng):
    a = -Fraction(rng.randint(1, 6), rng.randint(1, 4))
    b = -Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return QuaternionAlgebra(a, b)


def test_involution_fixes_frozen_example():
    B = QuaternionAlgebra(-1, -3)
    sigma = OrthogonalInvolution(B, B.element(0, 0, 1))
    one, i, k = B.element(1), B.element(0, 1), B.element(0, 0, 0, 1)
    assert sigma.apply(i) == i
    assert sigma.apply(B.element(0, 0, 1)) == B.element(0, 0, -1)
    assert sigma.apply(k) == k
    assert sigma.apply(one) == one


def test_involution_axioms_sampled():
    rng = random.Random(101)
    for _ in range(150):
        B = _random_definite_algebra(rng)
        sigma = random_involution(B, rng)
        x, y = _random_element(B, rng), _random_element(B, rng)
        assert sigma.apply(sigma.apply(x)) == x
        assert sigma.apply(x * y) == sigma.apply(y) * sigma.apply(x)
        assert sigma.apply(quaternion_sum(x, y)) == quaternion_sum(sigma.apply(x), sigma.apply(y))
        # orthogonal type: the symmetric part of B is 3-dimensional, i.e.
        # x + sigma(x) is never forced scalar; check sigma is not conjugation
        assert sigma.apply(B.element(1)) == B.element(1)


def test_involution_rescaling_u_gives_same_involution():
    B = QuaternionAlgebra(-1, -3)
    s1 = OrthogonalInvolution(B, B.element(0, 0, 1))
    s2 = OrthogonalInvolution(B, B.element(0, 0, 3))
    s3 = OrthogonalInvolution(B, B.element(0, 0, Fraction(-1, 7)))
    assert s1 == s2 == s3
    rng = random.Random(5)
    x = _random_element(B, rng)
    assert s1.apply(x) == s2.apply(x)


def test_discriminant_known():
    B = QuaternionAlgebra(-1, -3)
    assert OrthogonalInvolution(B, B.element(0, 0, 1)).discriminant() == -3
    assert OrthogonalInvolution(B, B.element(0, 1)).discriminant() == -1
    assert OrthogonalInvolution(B, B.element(0, 0, 3)).discriminant() == -3
    B2 = b_p_infty(2)
    assert OrthogonalInvolution(B2, B2.element(0, 1, 1)).discriminant() == -2


def test_discriminant_is_negative_for_definite_algebras():
    rng = random.Random(7)
    for _ in range(150):
        B = _random_definite_algebra(rng)
        sigma = random_involution(B, rng)
        d = sigma.discriminant()
        assert isinstance(d, int)
        assert d < 0
        assert squarefree_part(d) == d


def test_stored_discriminant_is_the_square_class_of_minus_nrd():
    rng = random.Random(23)
    algebras = [_random_definite_algebra(rng) for _ in range(10)]
    algebras += [b_p_infty(p) for p in (2, 3, 5, 7, 13)]
    for k in range(200):
        sigma = random_involution(algebras[k % len(algebras)], rng)
        assert sigma.discriminant() == squarefree_part(-sigma.u.reduced_norm())
    canonical = 0
    for p in [p for p in range(2, 128) if all(p % q for q in range(2, p))]:
        for n in (1, 2, 3):
            s = construct_arithmetic_spin(p, n) if n % 2 else construct_arithmetic_spin_even(p, n)
            if s is not None:
                assert s.sigma.discriminant() == squarefree_part(-s.sigma.u.reduced_norm()), (p, n)
                canonical += 1
    assert canonical == 31 * 2 + 17  # n = 1, 3 for all 31 primes; n = 2 for p = 2 and p = 3 mod 4


def test_isomorphism_classified_by_discriminant():
    B = QuaternionAlgebra(-1, -3)
    s_j = OrthogonalInvolution(B, B.element(0, 0, 1))
    s_i = OrthogonalInvolution(B, B.element(0, 1))
    s_scaled = OrthogonalInvolution(B, B.element(0, 0, Fraction(5, 2)))
    assert s_j.is_isomorphic_to(s_scaled)
    assert not s_j.is_isomorphic_to(s_i)
    # -Nrd(u) classes agree for u = j and u = 3k/2 + ... with same class
    s_k = OrthogonalInvolution(B, B.element(0, 0, 0, 1))  # Nrd(k) = 3, same class as j
    assert s_j.is_isomorphic_to(s_k)
    other = QuaternionAlgebra(-1, -1)
    with pytest.raises(AlgebraMismatch):
        s_j.is_isomorphic_to(OrthogonalInvolution(other, other.element(0, 0, 1)))


def test_invalid_u_rejected():
    B = QuaternionAlgebra(-1, -3)
    with pytest.raises(NotPure):
        OrthogonalInvolution(B, B.element(1, 1))
    with pytest.raises(NotInvertible):
        OrthogonalInvolution(B, B.element(0))


def test_clifford_algebra_delta():
    B = QuaternionAlgebra(-1, -3)
    K = OrthogonalInvolution(B, B.element(0, 0, 1)).clifford_algebra()
    assert K.delta == -3
    K2 = OrthogonalInvolution(B, B.element(0, 1)).clifford_algebra()
    assert K2.delta == -1


def test_etale_arithmetic():
    K = QuadraticEtale(-1)
    x = K.element(0, 1)
    assert x.square() == K.element(-1, 0)
    assert K.element(0, -1).square() == K.element(-1, 0)
    z = K.element(3, 2)
    assert z.square() == K.element(5, 12)  # 9 - 4 + 12x
    assert z.norm() == 9 + 4
    assert not z.is_rational() and K.element(3).is_rational()


def test_etale_norm_multiplicativity():
    rng = random.Random(13)
    for delta in [-1, -2, -3, -7, 5]:
        K = QuadraticEtale(delta)
        for _ in range(60):
            z = K.element(random_fraction(rng), random_fraction(rng))
            w = K.element(random_fraction(rng), random_fraction(rng))
            assert etale_product(z, w).norm() == z.norm() * w.norm()


def test_split_etale_has_nonunits():
    K = QuadraticEtale(1)  # split: Q x Q
    z = K.element(1, 1)  # norm 0 zero divisor
    assert z.norm() == 0
    assert not z.is_unit()
    assert etale_product(z, K.element(1, -1)) == K.element(0)
    with pytest.raises(NotUnit):
        covering_map(z)
    with pytest.raises(DeltaMismatch):
        QuadraticEtale(12)  # not squarefree


def test_sqrt_rational_cases():
    K = QuadraticEtale(-3)
    r = K.sqrt_rational(-3)
    assert r == K.element(0, 1)
    assert r.square() == K.element(-3, 0)
    assert K.sqrt_rational(4) == K.element(2, 0)
    assert K.sqrt_rational(-1) is None
    assert K.sqrt_rational(3) is None  # 3 and 3/-3 both non-squares
    assert K.sqrt_rational(-27) == K.element(0, 3)
    assert K.sqrt_rational(Fraction(-3, 4)) == K.element(0, Fraction(1, 2))


def test_sqrt_rational_matches_the_fraction_oracle_on_the_grid():
    # every squarefree delta in [-30, 30], the split delta = 1 included, and
    # t = +-u v^2/w^2 for u, v, w <= 12, times 1 and times delta, as Fractions
    # and, when integral, as ints
    deltas = [d for d in range(-30, 31) if d and squarefree_part(d) == d]
    assert 1 in deltas and len(deltas) == 38
    values = {Fraction(u * v * v, w * w) for u, v, w in product(range(1, 13), repeat=3)}
    for delta in deltas:
        K = QuadraticEtale(delta)
        for t in values:
            for r in (t, -t, delta * t, -delta * t):
                want = sqrt_rational_oracle(K, r)
                assert K.sqrt_rational(r) == want, (delta, r)
                if r.denominator == 1:
                    assert K.sqrt_rational(int(r)) == want, (delta, r)
                if want is not None:
                    assert want.square() == K.element(r), (delta, r)


def test_sqrt_rational_matches_the_oracle_on_frobenius_scalars():
    # the shape the spin chain sends: tau = +-p^n in the structure's own K,
    # delta = -p (odd n, odd p), -2 (odd n, p = 2) or -1 (even n)
    primes = [n for n in range(2, 2**12) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for p in primes:
        n = 1
        while p**n <= 2**48:
            K = QuadraticEtale(-1 if n % 2 == 0 else -p)
            for tau in (p**n, -(p**n)):
                assert K.sqrt_rational(tau) == sqrt_rational_oracle(K, tau), (p, n, tau)
            n += 1


def test_sqrt_rational_of_a_square_near_2_4000():
    r = 2**2000 + 12345
    big = r * r
    assert big.bit_length() == 4001
    for delta in (1, -1, -2, 3, -30):
        K = QuadraticEtale(delta)
        for t in (big, -big, delta * big, Fraction(big, 49), big + 1, -big * delta):
            assert K.sqrt_rational(t) == sqrt_rational_oracle(K, t), (delta, t)
    K = QuadraticEtale(-3)
    assert K.sqrt_rational(big) == EtaleElement(K, r, 0, 1)
    assert K.sqrt_rational(Fraction(-3 * big, 49)) == EtaleElement(K, 0, r, 7)


def test_sqrt_rational_input_errors():
    K = QuadraticEtale(-3)
    with pytest.raises(TypeError, match="expected int or Fraction, got float"):
        K.sqrt_rational(-3.0)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInput, match="0 has the trivial root"):
            K.sqrt_rational(zero)


def test_is_square_spot_values():
    # a rational is a square in K iff sqrt_rational finds a root
    K = QuadraticEtale(-3)
    assert K.sqrt_rational(4) is not None
    assert K.sqrt_rational(-3) is not None
    assert K.sqrt_rational(-1) is None
    Ki = QuadraticEtale(-1)
    assert Ki.sqrt_rational(-1) == Ki.element(0, 1)
    assert Ki.sqrt_rational(2) is None  # sqrt(2) not in Q(i)


def test_multiplier_and_similitudes():
    B = QuaternionAlgebra(-1, -3)
    sigma = OrthogonalInvolution(B, B.element(0, 0, 1))
    # scalars are proper similitudes with multiplier t^2 = Nrd(t)
    t = B.element(-3)
    assert _multiplier(sigma, t) == 9 == t.reduced_norm()
    # i anticommutes with j: improper similitude, multiplier -Nrd(i)
    i = B.element(0, 1)
    assert _multiplier(sigma, i) == -1 == -i.reduced_norm()
    # K* elements, with x sent to j (j^2 = -3 = delta), are proper
    # similitudes with multiplier = norm
    K = sigma.clifford_algebra()
    z = K.element(2, Fraction(1, 3))
    g = _embed(B, z)
    assert _multiplier(sigma, g) == z.norm() == g.reduced_norm()
    assert _multiplier(sigma, B.element(1, 1, 1)) is None


def test_multiplier_is_multiplicative():
    rng = random.Random(31)
    B = QuaternionAlgebra(-1, -3)
    sigma = OrthogonalInvolution(B, B.element(0, 0, 1))
    K = sigma.clifford_algebra()
    for _ in range(60):
        z1 = K.element(random_fraction(rng, 4), random_fraction(rng, 4))
        z2 = K.element(random_fraction(rng, 4), random_fraction(rng, 4))
        if not (z1.is_unit() and z2.is_unit()):
            continue
        g1, g2 = _embed(B, z1), _embed(B, z2)
        # x -> j embeds K in B: the product of K goes to the product of B
        assert _embed(B, etale_product(z1, z2)) == g1 * g2
        assert _multiplier(sigma, g1 * g2) == _multiplier(sigma, g1) * _multiplier(sigma, g2)


def test_covering_map_squares_and_kernel():
    K = QuadraticEtale(-3)
    z = K.element(1, 1)
    assert covering_map(z) == etale_product(z, z)
    assert covering_map(K.element(1)) == K.element(1)
    assert covering_map(K.element(-1)) == K.element(1)  # kernel {1, -1}
    with pytest.raises(NotUnit):
        covering_map(QuadraticEtale(1).element(1, 1))


def test_square_norm_and_cover_match_the_product():
    # differential: square, norm and covering_map against the general product,
    # and the coordinates and text against the Fractions the element was built from
    rng = random.Random(17)
    for delta in [-1, -2, -3, -7, 1, 5]:
        K = QuadraticEtale(delta)
        coords = [(random_fraction(rng), random_fraction(rng)) for _ in range(80)]
        coords += [(Fraction(c), Fraction(d)) for c in (0, 1, -2) for d in (0, 1, -2)]
        for c, d in coords:
            z = K.element(c, d)
            assert (z.c, z.d, str(z)) == (c, d, etale_str(c, d))
            assert z.den > 0 and math.gcd(z.cn, z.dn, z.den) == 1
            sq = etale_product(z, z)
            assert str(z.square()) == etale_str(sq.c, sq.d)
            assert z.square() == sq
            assert etale_product(z, K.element(z.c, -z.d)) == K.element(z.norm())
            if z.is_unit():
                assert covering_map(z) == sq
            else:
                with pytest.raises(NotUnit):
                    covering_map(z)


def test_etale_element_is_built_in_lowest_terms():
    K = QuadraticEtale(-3)
    z = EtaleElement(K, 6, -4, -10)
    assert (z.cn, z.dn, z.den) == (-3, 2, 5)
    assert z == K.element(Fraction(-3, 5), Fraction(2, 5))
    assert EtaleElement(K, 0, 0, -7) == K.element(0)
    with pytest.raises(ZeroDivisionError):
        EtaleElement(K, 1, 0, 0)


def test_spin_maps_onto_rotations():
    # covering: z in GSpin maps to z^2 viewed inside GO+ via x -> j
    B = QuaternionAlgebra(-1, -3)
    sigma = OrthogonalInvolution(B, B.element(0, 0, 1))
    K = sigma.clifford_algebra()
    rng = random.Random(41)
    for _ in range(40):
        z = K.element(random_fraction(rng, 4), random_fraction(rng, 4))
        if not z.is_unit():
            continue
        w = covering_map(z)
        g = _embed(B, w)
        assert _multiplier(sigma, g) == w.norm() == g.reduced_norm()


def test_involution_json():
    B = QuaternionAlgebra(-1, -3)
    sigma = OrthogonalInvolution(B, B.element(0, 0, 2))
    assert sigma.discriminant() == -3
    assert sigma.u.to_json() == ["0", "0", "1", "0"]  # normalized to primitive
