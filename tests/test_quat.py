import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

import _oracles
from _oracles import FractionQuaternion, find_pure_of_norm_oracle, quaternion_sum, random_fraction
from spinel import quat
from spinel.arith import OO, is_prime, squarefree_part, ternary_represents
from spinel.errors import AlgebraMismatch, NotInvertible, ZeroInput
from spinel.quat import (
    DEFAULT_SEARCH_BOUND,
    Quaternion,
    QuaternionAlgebra,
    b_p_infty,
    find_pure_of_norm,
    ramified_places,
)
from spinel.lfunc import l_values, zeta_h1
from spinel.spinspace import OrthogonalInvolution, QuadraticEtale


def _random_element(B, rng, size=9):
    return B.element(*(random_fraction(rng, size) for _ in range(4)))


def _random_algebra(rng):
    a = random_fraction(rng, 6, nonzero=True)
    b = random_fraction(rng, 6, nonzero=True)
    return QuaternionAlgebra(a, b)


def test_basis_multiplication_table():
    B = QuaternionAlgebra(-1, -3)
    i, j, k = B.element(0, 1), B.element(0, 0, 1), B.element(0, 0, 0, 1)
    assert i * i == B.element(-1)
    assert j * j == B.element(-3)
    assert k * k == B.element(-3)  # -ab
    assert i * j == k
    assert j * i == B.element(0, 0, 0, -1)
    assert j * k == B.element(0, 3)  # -b i
    assert k * j == B.element(0, -3)
    assert k * i == j  # -a j
    assert i * k == B.element(0, 0, -1)


def test_ring_axioms_sampled():
    rng = random.Random(17)
    for _ in range(200):
        B = _random_algebra(rng)
        x, y, z = (_random_element(B, rng, 5) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * quaternion_sum(y, z) == quaternion_sum(x * y, x * z)
        assert quaternion_sum(x, y) * z == quaternion_sum(x * z, y * z)
        assert x * B.element(1) == x == B.element(1) * x


def test_conjugation_is_an_antiinvolution():
    rng = random.Random(29)
    for _ in range(200):
        B = _random_algebra(rng)
        x, y = _random_element(B, rng), _random_element(B, rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert quaternion_sum(x, x.conjugate()).nums[1:] == (0, 0, 0)


def test_norm_and_trace():
    B = QuaternionAlgebra(-1, -3)
    j = B.element(0, 0, 1)
    assert j.reduced_norm() == 3
    # Trd(x) = x + gamma(x) = 2 x0
    assert quaternion_sum(j, j.conjugate()) == B.element(0)
    x = B.element(2, 1, -1, Fraction(1, 2))
    assert quaternion_sum(x, x.conjugate()) == B.element(4)
    # Nrd = x0^2 - a x1^2 - b x2^2 + ab x3^2
    assert x.reduced_norm() == 4 + 1 + 3 + Fraction(3, 4)
    assert x * x.conjugate() == B.element(x.reduced_norm())


def test_norm_multiplicativity_sampled():
    rng = random.Random(37)
    for _ in range(300):
        B = _random_algebra(rng)
        x, y = _random_element(B, rng), _random_element(B, rng)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
        assert x.conjugate().reduced_norm() == x.reduced_norm()


def test_inverse():
    B = QuaternionAlgebra(-1, -3)
    j = B.element(0, 0, 1)
    assert j.inverse() == B.element(0, 0, Fraction(-1, 3), 0)
    rng = random.Random(43)
    for _ in range(100):
        x = _random_element(B, rng)
        if x.reduced_norm() == 0:
            continue
        assert x * x.inverse() == B.element(1) == x.inverse() * x
        assert x.inverse() == x.conjugate() * B.element(1 / x.reduced_norm())


def test_inverse_fails_on_norm_zero():
    M = QuaternionAlgebra(1, 1)  # split, has zero divisors
    z = M.element(1, 1)
    assert z.reduced_norm() == 0
    with pytest.raises(NotInvertible):
        z.inverse()
    with pytest.raises(ZeroInput):
        QuaternionAlgebra(0, 1)


def test_pure_and_scalar_parts():
    B = QuaternionAlgebra(-2, -5)
    x = B.element(3, 1, 0, 2)
    assert not x.is_pure()
    assert quaternion_sum(x, B.element(-x.x0)).is_pure()
    assert all(B.element(0, *e).is_pure() for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert B.element(Fraction(7, 2)).nums[1:] == (0, 0, 0)
    assert B.element(0, 0, 1).nums[1:] != (0, 0, 0)


def test_ramified_places_known():
    assert ramified_places(QuaternionAlgebra(-1, -1)) == {2, OO}
    assert ramified_places(QuaternionAlgebra(-1, -3)) == {3, OO}
    assert ramified_places(QuaternionAlgebra(-2, -5)) == {5, OO}
    assert ramified_places(QuaternionAlgebra(1, 1)) == set()
    assert ramified_places(QuaternionAlgebra(1, -1)) == set()
    assert ramified_places(QuaternionAlgebra(1, 5)) == set()  # split: a = 1 is a square


def test_ramified_places_properties():
    rng = random.Random(53)
    for _ in range(80):
        B = _random_algebra(rng)
        ram = ramified_places(B)
        assert len(ram) % 2 == 0
        # invariance under square scaling of the defining pair
        s = random_fraction(rng, 5, nonzero=True)
        B2 = QuaternionAlgebra(B.a * s * s, B.b)
        assert ramified_places(B2) == ram


def test_b_p_infty_presentations():
    assert b_p_infty(2) == QuaternionAlgebra(-1, -1)
    assert b_p_infty(3) == QuaternionAlgebra(-1, -3)
    assert b_p_infty(5) == QuaternionAlgebra(-2, -5)
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        assert ramified_places(b_p_infty(p)) == {p, OO}


_ODD_PRIMES = [p for p in range(3, 10**5) if is_prime(p)]


def _local_symbols_pair(rng):
    """(a, b) shaped like the benchmark's local-symbols queries, u P / d with
    smooth |u|, d <= 16: P <= 13 in a, so the oracle's brute force reaches
    every place of a, and any P < 10^5 in b, a place it may read off
    reciprocity."""
    def rational(ps):
        u = rng.choice((-1, 1)) * rng.randint(1, 16)
        return Fraction(u * rng.choice(ps), rng.randint(1, 16))

    return rational(_ODD_PRIMES[:5]), rational(_ODD_PRIMES)


def test_ramified_places_match_the_oracle():
    # the kept set of every memoised B_{p,oo}, p < 2000, and of 2,000 seeded
    # local-symbols-style algebras, against the brute-force Hilbert oracle
    for p in [p for p in range(2, 2000) if is_prime(p)]:
        B = b_p_infty(p)
        want = _oracles.ramified_places_oracle(B.a, B.b)
        assert ramified_places(B) == ramified_places(QuaternionAlgebra(B.a, B.b)) == want == {p, OO}, p
    rng = random.Random(30)
    for _ in range(2000):
        a, b = _local_symbols_pair(rng)
        B = QuaternionAlgebra(a, b)
        ram = ramified_places(B)
        assert ram == _oracles.ramified_places_oracle(a, b), (a, b)
        assert ramified_places(B) is ram


def test_ramified_set_is_computed_once_and_kept_out_of_equality(monkeypatch):
    calls = []
    places = quat.arith.places

    def counting(*values):
        calls.append(values)
        return places(*values)

    monkeypatch.setattr(quat.arith, "places", counting)
    B, C = QuaternionAlgebra(-2, -5), QuaternionAlgebra(-2, -5)
    assert calls == []  # building an algebra factors nothing
    assert B == C and hash(B) == hash(C) and repr(B) == repr(C)
    assert ramified_places(B) == ramified_places(B) == {5, OO}
    assert len(calls) == 1
    # one algebra has read its set and the other has not: still equal
    assert B == C and hash(B) == hash(C) and repr(B) == repr(C)
    assert B.element(0, 1) * C.element(0, 0, 1) == C.element(0, 0, 0, 1)
    for name in ("a", "_ramified"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(B, name, None)


def test_find_pure_of_norm_first_witnesses():
    B3 = b_p_infty(3)
    assert find_pure_of_norm(B3, 3) == B3.element(0, 0, 1)
    assert find_pure_of_norm(B3, 1) == B3.element(0, 1)
    B2 = b_p_infty(2)
    assert find_pure_of_norm(B2, 2) == B2.element(0, 1, 1)


def test_find_pure_of_norm_empty_search():
    B = QuaternionAlgebra(-2, -5)
    # 2x^2 + 5y^2 + 10z^2 does not represent 1
    assert not ternary_represents(B.pure_norm_coefficients(), 1)
    assert find_pure_of_norm(B, 1, bound=50) is None


def test_find_pure_of_norm_agrees_with_local_test():
    for p in [2, 3, 5, 7, 11, 13]:
        B = b_p_infty(p)
        for m in range(1, 14):
            if ternary_represents(B.pure_norm_coefficients(), m):
                u = find_pure_of_norm(B, m, bound=60)
                assert u is not None, (p, m)
                assert u.is_pure()
                assert u.reduced_norm() == m


def test_find_pure_of_norm_fractional_target():
    B = b_p_infty(3)
    u = find_pure_of_norm(B, Fraction(3, 4))
    assert u is not None
    assert u.reduced_norm() == Fraction(3, 4)


def test_find_pure_of_norm_matches_fraction_shell_limits():
    # every box 1-9 is run definite and indefinite, to a hit and to a miss
    rng = random.Random(43)
    outcomes = set()
    for k in range(324):
        a = random_fraction(rng, 6, nonzero=True)
        b = random_fraction(rng, 6, nonzero=True)
        m = random_fraction(rng, 9, nonzero=True)
        definite = k % 2 == 0
        if definite:
            a, b = -abs(a), -abs(b)
            m = abs(m) if k % 8 else m
        elif a < 0 and b < 0:
            a = -a
        B = QuaternionAlgebra(a, b)
        bound = 1 + k // 2 % 9
        got = find_pure_of_norm(B, m, bound)
        assert got == find_pure_of_norm_oracle(B, m, bound), (a, b, m, bound)
        outcomes.add((definite, got is None))
    assert outcomes == {(definite, miss) for definite in (True, False) for miss in (True, False)}


def test_find_pure_of_norm_large_bound_is_fast():
    # the plan is scanned lazily, so a witness in the first shell costs the
    # same at any bound; an eager plan of about bound^2 / 2 entries cannot fit
    B = b_p_infty(3)
    t0 = time.perf_counter()
    assert find_pure_of_norm(B, 1, bound=10**9) == B.element(0, 1)
    assert time.perf_counter() - t0 < 0.1


def _record_shells(monkeypatch, module, name):
    """Stub module.name, a shell scan, to record its (target, shell) and find nothing."""
    shells = []

    def record(c1, c2, c3, target, s):
        shells.append((target, s))
        return ()

    monkeypatch.setattr(module, name, record)
    return shells


def test_find_pure_of_norm_lazy_plan_matches_eager_on_spin_inputs(monkeypatch):
    # B_{p,oo} with the norms the spin chain searches (1, p and p^n) at the
    # default bound, against the eager plan of the oracle.  A miss scans the
    # whole box (3-5 s for p^3 once p > 50), so every plan is first compared
    # whole, with both shell scans stubbed to find nothing; then the real
    # witnesses where the first shells hold one.
    cases = [(b_p_infty(p), p, m) for p in range(2, 300) if is_prime(p) for m in (1, p, p**3)]
    with monkeypatch.context() as patch:
        lazy = _record_shells(patch, quat, "_shell_candidates")
        eager = _record_shells(patch, _oracles, "_shell_candidates_oracle")
        for B, p, m in cases:
            lazy.clear()
            eager.clear()
            assert find_pure_of_norm(B, m) is None
            assert find_pure_of_norm_oracle(B, m, DEFAULT_SEARCH_BOUND) is None
            assert lazy == eager and lazy, (p, m)
    hits = 0
    for B, p, m in cases:
        # the first shells hold i (norm 1 where it is represented), j or
        # i + j (norm p) and p j or 2(i + j) (norm p^3, inside the box for p <= 50)
        if (m == p**3 and p > DEFAULT_SEARCH_BOUND) or not ternary_represents(B.pure_norm_coefficients(), m):
            continue
        got = find_pure_of_norm(B, m)
        assert got is not None, (p, m)
        assert got == find_pure_of_norm_oracle(B, m, DEFAULT_SEARCH_BOUND), (p, m)
        hits += 1
    assert hits > 100


def test_algebra_mismatch():
    x = QuaternionAlgebra(-1, -1).element(0, 0, 1)
    y = QuaternionAlgebra(-1, -3).element(0, 0, 1)
    with pytest.raises(AlgebraMismatch):
        x * y
    with pytest.raises(AlgebraMismatch):
        y * x


def test_str_and_json():
    B = QuaternionAlgebra(-1, -3)
    assert str(B) == "(-1,-3 | Q)"
    assert str(B.element(0, 1, 1)) == "i+j"
    assert str(B.element(0, 3)) == "3*i"
    assert str(B.element(0, 0, Fraction(-1, 3))) == "-1/3*j"
    assert str(B.element(Fraction(-5, 2), 0, -1, Fraction(3, 4))) == "-5/2-j+3/4*k"
    assert str(B.element(0)) == "0"
    assert B.to_json() == {"a": "-1", "b": "-3"}
    assert B.element(0, 0, 1).to_json() == ["0", "0", "1", "0"]


def _agrees(x, ox):
    """x equals the oracle element ox, and x is stored in lowest terms."""
    assert x.coords() == ox.x
    assert x.den > 0 and math.gcd(*x.nums, x.den) == 1
    assert x == x.algebra.element(*ox.x)
    assert (x.to_json(), str(x)) == (ox.to_json(), str(ox))


def test_int_arithmetic_matches_fraction_oracle():
    # random rational algebras, definite and indefinite, with coordinates of
    # small and of large height (zeros included)
    rng = random.Random(71)
    involutions = 0
    for k in range(400):
        size = 9 if k % 4 else 10**6
        B = QuaternionAlgebra(random_fraction(rng, size, nonzero=True), random_fraction(rng, size, nonzero=True))
        assert (B.to_json(), str(B)) == ({"a": str(B.a), "b": str(B.b)}, f"({B.a},{B.b} | Q)")
        xs = [[random_fraction(rng, size) if rng.random() < 0.8 else Fraction(0) for _ in range(4)] for _ in range(2)]
        (x, y), (ox, oy) = ([B.element(*c) for c in xs], [FractionQuaternion(B.a, B.b, tuple(c)) for c in xs])
        _agrees(x, ox)
        _agrees(x * y, ox * oy)
        _agrees(x.conjugate(), ox.conjugate())
        assert x.reduced_norm() == ox.reduced_norm()
        if ox.reduced_norm() != 0:
            _agrees(x.inverse(), ox.inverse())
        u = B.element(0, *xs[1][1:])
        ou = FractionQuaternion(B.a, B.b, (Fraction(0), *xs[1][1:]))
        # the discriminant factors Nrd(u), so only small heights stay in bound
        if size < 10 and ou.reduced_norm() != 0:
            sigma = OrthogonalInvolution(B, u)
            _agrees(sigma.apply(x), ou.apply(ox))
            assert sigma.discriminant() == squarefree_part(-ou.reduced_norm())
            involutions += 1
    assert involutions > 200


def test_quaternion_is_built_in_lowest_terms():
    B = QuaternionAlgebra(Fraction(-3, 2), 5)
    x = Quaternion(B, (6, -4, 0, 2), -10)
    assert (x.nums, x.den) == ((-3, 2, 0, -1), 5)
    assert x == B.element(Fraction(-3, 5), Fraction(2, 5), 0, Fraction(-1, 5))
    assert Quaternion(B, (0, 0, 0, 0), -7) == B.element(0)
    assert (x.x0, x.x1, x.x2, x.x3) == x.coords()
    with pytest.raises(ZeroDivisionError):
        Quaternion(B, (1, 0, 0, 0), 0)


@pytest.mark.parametrize("bad", [0.5, 1.0, "3/2"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda x: QuaternionAlgebra(x, -3),
        lambda x: QuaternionAlgebra(-1, x),
        lambda x: b_p_infty(3).element(0, x),
        lambda x: find_pure_of_norm(b_p_infty(3), x, 4),
        lambda x: QuadraticEtale(-3).element(x),
        lambda x: QuadraticEtale(-3).sqrt_rational(x),
        lambda x: QuadraticEtale(x),
        lambda x: l_values(3, 1, x),
        lambda x: zeta_h1(3, 1).evaluate(x),
    ],
    ids=[
        "algebra-a", "algebra-b", "element", "norm-m", "etale-element", "sqrt-rational", "etale-delta",
        "l-values-s", "evaluate",
    ],
)
def test_exact_entry_points_refuse_floats_and_strings(entry, bad):
    with pytest.raises(TypeError, match="expected int or Fraction"):
        entry(bad)
