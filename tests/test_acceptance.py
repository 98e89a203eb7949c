"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) with its
runtime, and enforces both the mathematical claim and the time budget.
"""

import random
import time
from fractions import Fraction

import mpmath

from _oracles import find_pure_of_norm_oracle, hilbert_oracle, random_fraction, random_involution
from spinel.arith import OO, factorize, hilbert_symbol, squarefree_part
from spinel.curves import FiniteField, count_points, find_q14_curve, trace_census, verify_frobenius_scalar
from spinel.isogeny import enumerate_classes
from spinel.lfunc import l_values, verify_identity_exact
from spinel.quat import DEFAULT_SEARCH_BOUND, QuaternionAlgebra, b_p_infty, find_pure_of_norm
from spinel.spinspace import OrthogonalInvolution, covering_map
from spinel.spinstruct import (
    SpinStructure,
    WeilRep,
    construct_arithmetic_spin,
    has_arithmetic_spin,
    realizations,
    similitude_rep,
    spin_lift,
    spinorial_class,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class _Timed:
    def __init__(self, name, budget):
        self.name, self.budget = name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"{status} {self.name} ({dt:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert dt < self.budget, f"{self.name} exceeded {self.budget}s ({dt:.2f}s)"
        return False


def test_criterion_census_matches_classification():
    with _Timed("census-matches-classification", 60):
        for q in [4, 5, 7, 8, 9, 11, 13, 25, 27, 49]:
            (p, a) = next(iter(factorize(q)[1].items()))
            F = FiniteField(p, a)
            census = trace_census(F)
            classes = {c.beta for c in enumerate_classes(p, a)}
            assert census == classes, (q, census ^ classes)


def test_criterion_spin_structure_existence_and_disc():
    with _Timed("spin-existence-and-discriminant", 5):
        rng = random.Random(2026)
        for p in SMALL_PRIMES:
            neg = has_arithmetic_spin(spinorial_class(p, 1, -1))
            pos = has_arithmetic_spin(spinorial_class(p, 1, 1))
            assert neg.exists and not pos.exists, p
            s = construct_arithmetic_spin(p, 1)
            assert s.sigma.discriminant() == squarefree_part(-p), p
            # a pure v of norm p from a shuffled scan of the default box
            v = find_pure_of_norm_oracle(b_p_infty(p), p, DEFAULT_SEARCH_BOUND, rng)
            searched = OrthogonalInvolution(v.algebra, v)
            assert searched.is_isomorphic_to(s.sigma), p
            assert searched.clifford_algebra().delta == s.clifford.delta == squarefree_part(-p)


def test_criterion_spin_lift_and_obstructions():
    with _Timed("spin-lift-and-obstructions", 1):
        from spinel.arith import ternary_represents

        for p in SMALL_PRIMES:
            s = construct_arithmetic_spin(p, 1)
            lift = spin_lift(similitude_rep(s))
            assert lift is not None, p
            sq = covering_map(lift.z)
            assert sq.is_rational() and sq.c == -p, p
            # tau = +p never lifts: sqrt(p) is not in an imaginary field
            assert spin_lift(WeilRep(structure=s, tau=p)) is None, p
            # involutions in the wrong discriminant class cannot lift tau
            B = s.algebra
            if squarefree_part(-p) != -1 and ternary_represents(
                B.pure_norm_coefficients(), 1
            ):
                v = find_pure_of_norm(B, 1)
                wrong_sigma = OrthogonalInvolution(B, v)
                assert wrong_sigma.discriminant() == -1
                wrong = SpinStructure(
                    curve_class=s.curve_class,
                    algebra=B,
                    sigma=wrong_sigma,
                    clifford=wrong_sigma.clifford_algebra(),
                )
                assert spin_lift(similitude_rep(wrong)) is None, p


def test_criterion_weight_half_eigenvalues_and_slope():
    with _Timed("weight-half-eigenvalues-and-slope", 5):
        for p in SMALL_PRIMES:
            for n in [1, 3]:
                s = construct_arithmetic_spin(p, n)
                real = realizations(spin_lift(similitude_rep(s)))
                assert real.weight == Fraction(1, 2)
                assert real.eigen_abs_sq == Fraction(p**n), (p, n)
                assert real.normalized_slope == Fraction(1, 4), (p, n)
                assert real.v_p_phi_squared == n and real.v_p_q == 2 * n


def test_criterion_l_function_identity():
    with _Timed("l-function-identity", 1):
        for p in PRIMES_TO_50:
            for n in range(1, 6):
                proof = verify_identity_exact(p, n)
                assert proof.holds, (p, n)
        tol = mpmath.mpf("1e-12")

        def as_mpf(x):
            if isinstance(x, Fraction):
                return mpmath.mpf(x.numerator) / x.denominator
            return mpmath.mpf(str(x))

        for (p, n) in [(3, 1), (5, 1), (7, 1), (3, 3)]:
            for s in [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)]:
                full = l_values(p, n, s)
                half = l_values(p, n, s / 2)
                with mpmath.workdps(30):
                    diff = abs(as_mpf(full.l_curve) - as_mpf(half.l_spin) ** 2)
                assert diff < tol, (p, n, s)
        at_one = l_values(3, 1, 1)
        assert at_one.l_curve == Fraction(9, 16)
        assert at_one.l_spin_half == Fraction(3, 4)


def test_criterion_frobenius_acts_as_minus_p():
    with _Timed("frobenius-scalar-on-curves", 30):
        for p in [5, 7, 11, 13]:
            E = find_q14_curve(p)
            assert count_points(E) == (p + 1) ** 2, p
            assert verify_frobenius_scalar(E), p


def test_criterion_hilbert_symbol_against_oracle():
    with _Timed("hilbert-symbol-oracle", 60):
        rng = random.Random(14)
        for _ in range(200):
            a = Fraction(rng.randint(-100, 100))
            b = Fraction(rng.randint(-100, 100))
            if a == 0 or b == 0:
                continue
            places = {OO, 2}
            for r in (a, b):
                places.update(factorize(r.numerator)[1])
            prod = 1
            for v in places:
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1, (a, b)
        for p in PRIMES_TO_50:
            for a in range(-20, 21):
                for b in range(-20, 21):
                    if a == 0 or b == 0:
                        continue
                    assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p), (a, b, p)


def test_criterion_algebra_property_suites():
    with _Timed("algebra-property-suites", 30):
        rng = random.Random(77)

        def rand_el(B, size=7):
            return B.element(*(random_fraction(rng, size) for _ in range(4)))

        # involution axioms
        for _ in range(500):
            a = -Fraction(rng.randint(1, 9), rng.randint(1, 3))
            b = -Fraction(rng.randint(1, 9), rng.randint(1, 3))
            B = QuaternionAlgebra(a, b)
            sigma = random_involution(B, rng)
            x, y = rand_el(B), rand_el(B)
            assert sigma.apply(sigma.apply(x)) == x
            assert sigma.apply(x * y) == sigma.apply(y) * sigma.apply(x)
        # reduced norm multiplicativity
        for _ in range(500):
            B = QuaternionAlgebra(
                random_fraction(rng, 9, nonzero=True),
                random_fraction(rng, 9, nonzero=True),
            )
            x, y = rand_el(B), rand_el(B)
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
        # discriminants of involutions on definite algebras are negative
        for _ in range(200):
            p = rng.choice(SMALL_PRIMES)
            B = b_p_infty(p)
            d = random_involution(B, rng).discriminant()
            assert d < 0 and squarefree_part(d) == d
        # censused traces obey the Hasse bound
        for (p, a) in [(2, 2), (5, 1), (3, 2)]:
            for beta in trace_census(FiniteField(p, a)):
                assert beta * beta <= 4 * p**a
