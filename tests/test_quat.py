import random
import time
from fractions import Fraction

import pytest

import _oracles
from _oracles import find_pure_of_norm_oracle, random_fraction
from spinel import quat
from spinel.arith import OO, is_prime, ternary_represents
from spinel.errors import AlgebraMismatch, NotInvertible, ZeroInput
from spinel.quat import (
    DEFAULT_SEARCH_BOUND,
    QuaternionAlgebra,
    b_p_infty,
    find_pure_of_norm,
    ramified_places,
)


def _random_element(B, rng, size=9):
    return B.element(*(random_fraction(rng, size) for _ in range(4)))


def _random_algebra(rng):
    a = random_fraction(rng, 6, nonzero=True)
    b = random_fraction(rng, 6, nonzero=True)
    return QuaternionAlgebra(a, b)


def test_basis_multiplication_table():
    B = QuaternionAlgebra(-1, -3)
    i, j, k = B.i, B.j, B.k
    assert i * i == B.scalar(-1)
    assert j * j == B.scalar(-3)
    assert k * k == B.scalar(-3)  # -ab
    assert i * j == k
    assert j * i == -k
    assert j * k == 3 * i  # -b i
    assert k * j == -3 * i
    assert k * i == j  # -a j
    assert i * k == -j


def test_ring_axioms_sampled():
    rng = random.Random(17)
    for _ in range(200):
        B = _random_algebra(rng)
        x, y, z = (_random_element(B, rng, 5) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x * B.one == x == B.one * x


def test_conjugation_is_an_antiinvolution():
    rng = random.Random(29)
    for _ in range(200):
        B = _random_algebra(rng)
        x, y = _random_element(B, rng), _random_element(B, rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert (x + x.conjugate()).is_scalar()


def test_norm_and_trace():
    B = QuaternionAlgebra(-1, -3)
    j = B.j
    assert j.reduced_norm() == 3
    # Trd(x) = x + gamma(x) = 2 x0
    assert j + j.conjugate() == B.scalar(0)
    x = B.element(2, 1, -1, Fraction(1, 2))
    assert x + x.conjugate() == B.scalar(4)
    # Nrd = x0^2 - a x1^2 - b x2^2 + ab x3^2
    assert x.reduced_norm() == 4 + 1 + 3 + Fraction(3, 4)
    assert x * x.conjugate() == B.scalar(x.reduced_norm())


def test_norm_multiplicativity_sampled():
    rng = random.Random(37)
    for _ in range(300):
        B = _random_algebra(rng)
        x, y = _random_element(B, rng), _random_element(B, rng)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
        assert x.conjugate().reduced_norm() == x.reduced_norm()


def test_inverse():
    B = QuaternionAlgebra(-1, -3)
    j = B.j
    assert j.inverse() == B.element(0, 0, Fraction(-1, 3), 0)
    rng = random.Random(43)
    for _ in range(100):
        x = _random_element(B, rng)
        if x.reduced_norm() == 0:
            continue
        assert x * x.inverse() == B.one
        assert x.inverse() == x.conjugate() / x.reduced_norm()


def test_inverse_fails_on_norm_zero():
    M = QuaternionAlgebra(1, 1)  # split, has zero divisors
    z = M.one + M.i
    assert z.reduced_norm() == 0
    with pytest.raises(NotInvertible):
        z.inverse()
    with pytest.raises(ZeroInput):
        QuaternionAlgebra(0, 1)


def test_pure_and_scalar_parts():
    B = QuaternionAlgebra(-2, -5)
    x = B.element(3, 1, 0, 2)
    assert not x.is_pure()
    assert (x - B.scalar(x.scalar_part())).is_pure()
    assert B.i.is_pure() and B.j.is_pure() and B.k.is_pure()


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


def test_find_pure_of_norm_first_witnesses():
    B3 = b_p_infty(3)
    assert find_pure_of_norm(B3, 3) == B3.j
    assert find_pure_of_norm(B3, 1) == B3.i
    B2 = b_p_infty(2)
    assert find_pure_of_norm(B2, 2) == B2.i + B2.j


def test_find_pure_of_norm_empty_search():
    B = QuaternionAlgebra(-2, -5)
    # 2x^2 + 5y^2 + 10z^2 does not represent 1
    assert not ternary_represents(B.pure_norm_coefficients(), 1)
    assert find_pure_of_norm(B, 1, bound=50) is None


def test_find_pure_of_norm_agrees_with_local_test():
    rng = random.Random(61)
    for p in [2, 3, 5, 7, 11, 13]:
        B = b_p_infty(p)
        for m in range(1, 14):
            if ternary_represents(B.pure_norm_coefficients(), m):
                u = find_pure_of_norm(B, m, bound=60)
                assert u is not None, (p, m)
                assert u.is_pure()
                assert u.reduced_norm() == m
                # randomized search order still lands on a valid witness
                u2 = find_pure_of_norm(B, m, bound=60, rng=rng)
                assert u2 is not None and u2.is_pure()
                assert u2.reduced_norm() == m


def test_find_pure_of_norm_fractional_target():
    B = b_p_infty(3)
    u = find_pure_of_norm(B, Fraction(3, 4))
    assert u is not None
    assert u.reduced_norm() == Fraction(3, 4)


def test_find_pure_of_norm_matches_fraction_shell_limits():
    # the shell limits set the plan's length, so a seeded shuffle pins them
    # too; every box 1-9 is run definite and indefinite, on both routes
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
        seed = rng.randrange(2**32)
        shuffled = find_pure_of_norm(B, m, bound, random.Random(seed))
        assert shuffled == find_pure_of_norm_oracle(B, m, bound, random.Random(seed)), (
            a, b, m, bound, seed
        )
        outcomes.add(("ordered", definite, got is None))
        outcomes.add(("shuffled", definite, shuffled is None))
    assert outcomes == {
        (route, definite, miss)
        for route in ("ordered", "shuffled")
        for definite in (True, False)
        for miss in (True, False)
    }


def test_find_pure_of_norm_large_bound_is_fast():
    # the plan is scanned lazily, so a witness in the first shell costs the
    # same at any bound; an eager plan of about bound^2 / 2 entries cannot fit
    B = b_p_infty(3)
    t0 = time.perf_counter()
    assert find_pure_of_norm(B, 1, bound=10**9) == B.i
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
    # default bound, against the eager plan of the oracle, with and without a
    # seeded shuffle.  A miss scans the whole box (3-5 s for p^3 once p > 50),
    # so every plan is first compared whole, with both shell scans stubbed to
    # find nothing; then the real witnesses where the first shells hold one.
    cases = [(b_p_infty(p), p, m) for p in range(2, 300) if is_prime(p) for m in (1, p, p**3)]
    seeds = (None, 0, 1, 2)
    with monkeypatch.context() as patch:
        lazy = _record_shells(patch, quat, "_shell_candidates")
        eager = _record_shells(patch, _oracles, "_shell_candidates_oracle")
        for B, p, m in cases:
            for seed in seeds:
                rngs = [None if seed is None else random.Random(seed) for _ in range(2)]
                lazy.clear()
                eager.clear()
                assert find_pure_of_norm(B, m, rng=rngs[0]) is None
                assert find_pure_of_norm_oracle(B, m, DEFAULT_SEARCH_BOUND, rngs[1]) is None
                assert lazy == eager and lazy, (p, m, seed)
    hits = 0
    for B, p, m in cases:
        # the first shells hold i (norm 1 where it is represented), j or
        # i + j (norm p) and p j or 2(i + j) (norm p^3, inside the box for p <= 50)
        if (m == p**3 and p > DEFAULT_SEARCH_BOUND) or not ternary_represents(B.pure_norm_coefficients(), m):
            continue
        # a shuffle can put the first witness far into the box, so only the
        # small cases run the real shell scans shuffled
        shuffled = m < p**3 and p < DEFAULT_SEARCH_BOUND
        for seed in seeds if shuffled else (None,):
            rngs = [None if seed is None else random.Random(seed) for _ in range(2)]
            got = find_pure_of_norm(B, m, rng=rngs[0])
            assert got is not None, (p, m, seed)
            assert got == find_pure_of_norm_oracle(B, m, DEFAULT_SEARCH_BOUND, rngs[1]), (p, m, seed)
            hits += 1
    assert hits > 100


def test_algebra_mismatch():
    x = QuaternionAlgebra(-1, -1).i
    y = QuaternionAlgebra(-1, -3).i
    with pytest.raises(AlgebraMismatch):
        x * y
    with pytest.raises(AlgebraMismatch):
        x + y


def test_str_and_json():
    B = QuaternionAlgebra(-1, -3)
    assert str(B) == "(-1,-3 | Q)"
    assert str(B.i + B.j) == "i+j"
    assert str(3 * B.i) == "3*i"
    assert str(-B.j / 3) == "-1/3*j"
    assert B.to_json() == {"a": "-1", "b": "-3"}
    assert B.j.to_json() == ["0", "0", "1", "0"]
