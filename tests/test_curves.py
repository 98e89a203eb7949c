import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from _oracles import (
    census_pairs_oracle,
    census_scan_oracle,
    frobenius_additions,
    frobenius_ladder_oracle,
    hurwitz_class_number,
    j_invariant,
    naive_point_count,
    point_add_oracle,
)
from spinel.curves import (
    MAX_CENSUS_EVALUATIONS,
    FiniteField,
    WeierstrassCurve,
    _census_rows,
    _census_scan,
    _exponent_divides,
    _group_law,
    census_size,
    count_points,
    curve_points,
    find_q14_curve,
    find_trace_zero_curve,
    trace_census,
    verify_frobenius_scalar,
)
from spinel.errors import FieldTooLarge, NotPrime, PrecheckFailed
from spinel.isogeny import enumerate_classes


def _trace(E):
    return E.field.q + 1 - count_points(E)


def _neg(E, P):
    return P and (P[0], E.field.neg(P[1]))


def test_field_moduli_are_deterministic():
    assert FiniteField(2, 2).modulus == (1, 1)  # x^2 + x + 1
    assert FiniteField(3, 2).modulus == (1, 0)  # x^2 + 1
    assert FiniteField(2, 3).modulus == (1, 0, 1)  # x^3 + x^2 + 1
    assert FiniteField(3, 3).modulus == (1, 0, 2)  # x^3 + 2x^2 + 1
    assert FiniteField(5, 1).modulus == (0,)  # prime field reduces by x
    assert FiniteField(2053, 1).modulus == (0,)
    with pytest.raises(NotPrime):
        FiniteField(6, 1)


def test_field_axioms_sampled():
    rng = random.Random(3)
    for (p, a) in [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1), (3, 3)]:
        F = FiniteField(p, a)
        els = F.elements()
        assert len(els) == F.q
        for _ in range(60):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
            assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
            assert F.add(x, F.neg(x)) == 0
            assert F.pow(x, F.q) == x  # Frobenius is a bijection fixing F_q
            if x != 0:
                assert F.mul(x, F.inv(x)) == 1


def test_field_decode_reads_base_p_digits():
    for F in (FiniteField(3, 2), FiniteField(2, 5), FiniteField(7, 1)):
        for x in F.elements():
            assert F.decode(x) == tuple(x // F.p**i % F.p for i in range(F.a)), (F.q, x)
    F = FiniteField(3, 2)
    assert F.decode(4) == (1, 1)  # digits base p, low first
    assert F.from_int(4) == 1  # ring map Z -> F_9 kills 3


def test_count_points_matches_naive_search():
    rng = random.Random(11)
    fields = [FiniteField(2, 2), FiniteField(5, 1), FiniteField(3, 2), FiniteField(7, 1)]
    tried = 0
    while tried < 25:
        F = rng.choice(fields)
        coeffs = [rng.randrange(F.q) for _ in range(5)]
        try:
            E = WeierstrassCurve(F, *coeffs)
        except ValueError:
            continue
        tried += 1
        assert count_points(E) == naive_point_count(E), (F.p, F.a, coeffs)


def test_count_points_char2_general_form():
    F = FiniteField(2, 3)
    rng = random.Random(13)
    tried = 0
    while tried < 15:
        coeffs = [rng.randrange(F.q) for _ in range(5)]
        try:
            E = WeierstrassCurve(F, *coeffs)
        except ValueError:
            continue
        tried += 1
        assert count_points(E) == naive_point_count(E), coeffs


def test_trace_and_hasse_bound():
    F = FiniteField(5, 1)
    E = WeierstrassCurve(F, 0, 0, 0, 1, 1)  # y^2 = x^3 + x + 1
    t = _trace(E)
    assert naive_point_count(E) == 5 + 1 - t
    assert t * t <= 4 * 5


def test_census_matches_isogeny_classification():
    fields = [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]
    fields += [(2, 4), (3, 3), (2, 5), (3, 4), (11, 2), (5, 3)]
    for (p, a) in fields:
        F = FiniteField(p, a)
        census = trace_census(F)
        expected = {c.beta for c in enumerate_classes(p, a)}
        assert census == expected, (p, a)


def test_supersingular_detection():
    # supersingular iff p divides the trace: -6 over F_9, 0 and 2 over F_5
    E16 = find_q14_curve(3)
    assert _trace(E16) == -6
    F = FiniteField(5, 1)
    # 5 = 2 mod 3, so cubing is a bijection and y^2 = x^3 + 1 has q + 1 points
    E = WeierstrassCurve(F, 0, 0, 0, 0, 1)
    assert _trace(E) == 0
    E2 = WeierstrassCurve(F, 0, 0, 0, 1, 0)  # y^2 = x^3 + x has trace 2 here
    assert _trace(E2) == 2


def test_count_and_frobenius_at_q_10201():
    # F_{101^2} lies above 10^4 and below the field limit 2^14.  The count of
    # y^2 = x^3 + x over F_{p^2} follows from its trace t over F_p as
    # p^2 + 1 - (t^2 - 2p), with t from the double-loop oracle.
    p = 101
    t = p + 1 - naive_point_count(WeierstrassCurve(FiniteField(p, 1), 0, 0, 0, 1, 0))
    E2 = WeierstrassCurve(FiniteField(p, 2), 0, 0, 0, 1, 0)
    assert count_points(E2) == p * p + 1 - (t * t - 2 * p)
    E = find_q14_curve(p)
    assert count_points(E) == (p + 1) ** 2
    assert verify_frobenius_scalar(E)


def test_singular_curves_rejected():
    F = FiniteField(5, 1)
    with pytest.raises(ValueError):
        WeierstrassCurve(F, 0, 0, 0, 0, 0)  # y^2 = x^3, cusp
    with pytest.raises(ValueError):
        WeierstrassCurve(F, 0, 0, 0, 0 - 3, 2)  # node: x^3 - 3x + 2


def test_coefficients_must_be_element_codes():
    # -1 is not read as the element encoded 8 (2 + 2x), whose curve has 10
    # points where y^2 = x^3 - x over F_9 has 16; 100 does not index the tables
    F = FiniteField(3, 2)
    with pytest.raises(ValueError, match=r"a4 = -1 over F_9: coefficients are ints in \[0, 9\)"):
        WeierstrassCurve(F, 0, 0, 0, -1, 0)
    with pytest.raises(ValueError, match=r"a6 = 100 over F_9"):
        WeierstrassCurve(F, 0, 0, 0, 1, 100)
    with pytest.raises(ValueError, match=r"a1 = 1.0 over F_9"):
        WeierstrassCurve(F, 1.0, 0, 0, 1, 0)
    assert count_points(WeierstrassCurve(F, 0, 0, 0, F.neg(1), 0)) == 16


def test_find_trace_zero_curve():
    for p in [5, 7, 11, 13]:
        E = find_trace_zero_curve(p)
        assert E.field.q == p
        assert _trace(E) == 0


def test_find_q14_curve_counts():
    # every p with p^2 <= 2^14: the base change of a trace-zero curve
    for p in [p for p in range(2, 128) if all(p % d for d in range(2, p))]:
        E = find_q14_curve(p)
        assert E.field.q == p * p
        assert count_points(E) == (p + 1) ** 2
        assert _trace(E) == -2 * p


def test_group_law_on_rational_points():
    E = find_q14_curve(5)
    pts = curve_points(E)
    assert len(pts) == 36
    assert None in pts  # point at infinity
    add = _group_law(E)
    rng = random.Random(17)
    for _ in range(40):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add(add(P, Q), R) == add(P, add(Q, R))
        assert add(P, _neg(E, P)) is None
    # scalar arithmetic: group has exponent p + 1 = 6
    for P in pts:
        Q = None
        for _ in range(5):
            Q = add(Q, P)
        assert Q == _neg(E, P)
        assert add(Q, P) is None


def test_verify_frobenius_scalar():
    E = find_q14_curve(5)
    assert verify_frobenius_scalar(E)


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", _primes(5, 61))
def test_frobenius_walk_matches_ladder(p):
    # the subgroup walk against [p+1]P by double and add for every point; the
    # walk's False branch with exponents that miss some order: p is prime to
    # every order above 1, and (p+1)/2 misses the points of order p + 1
    E = find_q14_curve(p)
    points = curve_points(E)
    assert verify_frobenius_scalar(E) is frobenius_ladder_oracle(E) is True
    for m in (p, (p + 1) // 2, 2 * (p + 1), 1):
        assert _exponent_divides(E, points, m) is frobenius_ladder_oracle(E, m), m
    assert _exponent_divides(E, points, p) is _exponent_divides(E, points, (p + 1) // 2) is False


def test_frobenius_check_cost():
    # two walked subgroups that span E(F_{p^2}) end the check; walking every
    # cyclic subgroup took 675 additions at p = 17 and 26,559 at p = 127
    for p in _primes(5, 127):
        holds, additions = frobenius_additions(find_q14_curve(p))
        assert holds is True
        assert additions <= 12 * (p + 1), (p, additions)


def test_frobenius_walk_matches_ladder_on_other_curves():
    # curves outside the tau = -p class against exponents from the group order
    # n: n itself holds by Lagrange, n / r for a prime r | n holds exactly
    # when the group has no point of order n.  Every short curve over F_5 and
    # F_7 is taken, so groups made of 2-torsion alone are met, and seeded
    # random ones over F_{p^2} and F_p
    rng = random.Random(47)
    outcomes = set()
    coeffs = [
        (F, a4, a6)
        for F in (FiniteField(5), FiniteField(7))
        for a4 in F.elements()
        for a6 in F.elements()
    ]
    for p, a in [(5, 2), (7, 2), (11, 2), (13, 1), (101, 1), (13, 2)]:
        F = FiniteField(p, a)
        coeffs += [(F, rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3)]
    for F, a4, a6 in coeffs:
        try:
            E = WeierstrassCurve(F, 0, 0, 0, a4, a6)
        except ValueError:
            continue
        p, n, points = F.p, count_points(E), curve_points(E)
        exponents = [n, p + 1, p, 2, 1] + [n // r for r in _primes(2, n) if n % r == 0]
        for m in exponents:
            got = _exponent_divides(E, points, m)
            assert got is frobenius_ladder_oracle(E, m), (E, m)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_verify_frobenius_scalar_precheck():
    # an ordinary curve over F_25 is not in scope for the scalar check
    F = FiniteField(5, 2)
    for a6 in range(1, 25):
        try:
            E = WeierstrassCurve(F, 0, 0, 0, 1, a6)
        except ValueError:
            continue
        if count_points(E) != 36:
            with pytest.raises(PrecheckFailed):
                verify_frobenius_scalar(E)
            break


def test_census_runs_on_char3_and_char2_square_fields():
    assert trace_census(FiniteField(2, 2)) == {c.beta for c in enumerate_classes(2, 2)}
    assert trace_census(FiniteField(3, 2)) == {c.beta for c in enumerate_classes(3, 2)}


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (5, 2)])
def test_census_normal_forms_match_full_family_sweep(p, a):
    # differential check against the full-family sweeps the normal forms replace;
    # (j, trace) pairs, so a dropped twist class shows even when its trace is shared
    F = FiniteField(p, a)
    scanned = set()
    for coeffs, trace in _census_scan(F):
        assert trace == F.q + 1 - count_points(WeierstrassCurve(F, *coeffs)), coeffs
        scanned.add((j_invariant(F, coeffs), trace))
    assert scanned == census_pairs_oracle(F)


@pytest.mark.parametrize(
    "p,a", [(p, a) for p in _primes(2, 49) for a in range(1, 6) if p**a <= 49] + [(11, 2)], ids=str
)
def test_census_scan_matches_add_row_scan(p, a):
    # differential check of the rows sol[d + c] read off the log-indexed
    # solution counts against rows of q F.add calls each, on every field with
    # q <= 49 (each within the census limit) and F_121
    F = FiniteField(p, a)
    assert list(_census_scan(F)) == census_scan_oracle(F)


def test_census_weights_give_class_numbers_and_the_mass():
    # for p >= 5 the equations y^2 = x^3 + Ax + B of trace t number (q - 1)
    # times the sum of 1/#Aut(E) over the F_q-classes E of trace t, since
    # u in F_q^* maps (A, B) to (u^4 A, u^6 B).  The scan keeps one A per coset
    # of the fourth powers, so its hit with A != 0 stands for (q - 1)/gcd(4, q - 1)
    # equations and its hit with A = 0 for one.  The sum is H(4q - t^2)/2 when
    # p does not divide t (Lenstra, Ann. of Math. 1987, Prop. 1.9; Schoof,
    # J. Combin. Theory A 1987), and the mass (p - 1)/24 of the maximal orders
    # of B_{p,oo} at t = +-2p^(a/2), where every endomorphism is defined over F_q
    known = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 23: 3}
    assert {N: hurwitz_class_number(N) for N in known} == known
    for p, a in [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2), (13, 2), (17, 2), (5, 4), (7, 4)]:
        F = FiniteField(p, a)
        q = F.q
        weights = Counter()
        for coeffs, t in _census_scan(F):
            weights[t] += (q - 1) // math.gcd(4, q - 1) if coeffs[3] else 1
        sums = {t: Fraction(w, q - 1) for t, w in weights.items()}
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            if t % p:
                assert sums.get(t, 0) == hurwitz_class_number(4 * q - t * t) / 2, (q, t)
        if a % 2 == 0:
            for t in (2 * p ** (a // 2), -2 * p ** (a // 2)):
                assert sums[t] == Fraction(p - 1, 24), (q, t)


def test_census_scan_limit():
    for (p, a) in [(2, 3), (3, 2), (5, 1), (7, 1), (3, 3)]:
        F = FiniteField(p, a)
        assert census_size(F.p, F.q) == len(_census_rows(F)) * F.q**2
    assert census_size(2, 32) <= MAX_CENSUS_EVALUATIONS
    assert census_size(1009, 1009) <= MAX_CENSUS_EVALUATIONS
    with pytest.raises(FieldTooLarge, match="F_64.*16773120.*10000000"):
        trace_census(FiniteField(2, 6))


def test_group_law_matches_method_point_add():
    # the table group law against the method-call point_add it replaced, on
    # seeded pairs with the doubling, inverse, y = 0 and x = 0 cases forced in
    rng = random.Random(31)
    hit = set()
    for p, a in [(5, 1), (7, 1), (5, 2), (11, 2), (13, 1), (17, 2), (101, 1)]:
        F = FiniteField(p, a)
        for _ in range(4):
            # a root r of the cubic gives the point (r, 0)
            r, a4 = rng.randrange(F.q), rng.randrange(F.q)
            a6 = F.neg(F.add(F.pow(r, 3), F.mul(a4, r)))
            try:
                E = WeierstrassCurve(F, 0, 0, 0, a4, a6)
            except ValueError:
                continue
            add = _group_law(E)
            pts = curve_points(E)
            special = [P for P in pts[1:] if 0 in P]
            pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(40)]
            pairs += [(P, P) for P in pts[1:4] + special]
            pairs += [(P, _neg(E, P)) for P in pts[1:4] + special]
            pairs += [(P, rng.choice(pts)) for P in special]
            for P, Q in pairs:
                want = point_add_oracle(E, P, Q)
                assert add(P, Q) == want, (E, P, Q)
                if P is not None and Q is not None:
                    hit.update(
                        name for name, case in (
                            ("double", P == Q), ("inverse", want is None),
                            ("y = 0", P[1] == 0), ("x = 0", P[0] == 0),
                        ) if case
                    )
    assert hit == {"double", "inverse", "y = 0", "x = 0"}
