"""Field arithmetic against the schoolbook oracle, the helpers read off logs, and the field memo."""

import math
import random
import time
from collections import Counter, OrderedDict
from itertools import product

import pytest

from _oracles import (
    field_add_oracle,
    field_mul_oracle,
    field_neg_oracle,
    field_pow_oracle,
    legendre_oracle,
    matrix_walk_powers,
    naive_point_count,
    reducible_monics_oracle,
    smallest_modulus_oracle,
)
from spinel import fields
from spinel.curves import (
    FiniteField,
    WeierstrassCurve,
    _group_law,
    count_points,
    curve_points,
    find_q14_curve,
)
from spinel.errors import FieldTooLarge, NotPrime
from spinel.fields import MAX_FIELD_ORDER


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            q, a = p, 1
            while q <= limit:
                out.append((p, a))
                q, a = q * p, a + 1
    return sorted(out, key=lambda pa: pa[0] ** pa[1])


def _check_pair(F, u, v, e):
    assert F.add(u, v) == field_add_oracle(F, u, v), (F.q, u, v)
    assert F.mul(u, v) == field_mul_oracle(F, u, v), (F.q, u, v)
    assert F.pow(u, e) == field_pow_oracle(F, u, e), (F.q, u, e)


def _check_unary(F, u):
    assert F.neg(u) == field_neg_oracle(F, u), (F.q, u)
    if u:
        inv = field_pow_oracle(F, u, F.q - 2)
        assert F.inv(u) == inv, (F.q, u)
        assert F.pow(u, -3) == field_pow_oracle(F, inv, 3), (F.q, u)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(u)


@pytest.mark.parametrize("p,a", _prime_powers(64), ids=lambda x: str(x))
def test_field_matches_oracle_on_every_pair(p, a):
    F = FiniteField(p, a)
    exps = (0, 1, 2, F.q - 1, F.q, 2 * F.q + 3)
    for u in F.elements():
        _check_unary(F, u)
        for v in F.elements():
            _check_pair(F, u, v, exps[v % len(exps)])


@pytest.mark.parametrize("q", [121, 128, 243, 256, 257, 361, 729, 2048, 2401])
def test_field_matches_oracle_on_samples(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    a = 0
    while p**a < q:
        a += 1
    F = FiniteField(p, a)
    rng = random.Random(q)
    for _ in range(1500):
        u, v = rng.randrange(q), rng.randrange(q)
        _check_pair(F, u, v, rng.randrange(3 * q))
        _check_unary(F, u)


def test_field_construction_limit_fails_fast():
    for p, a in [(2, 15), (2, 24), (2, 40), (16411, 1), (131, 2), (3, 10**6)]:
        t0 = time.perf_counter()
        with pytest.raises(FieldTooLarge) as err:
            FiniteField(p, a)
        assert time.perf_counter() - t0 < 0.1
        detail = str(err.value)
        assert f"p = {p}" in detail and f"a = {a}" in detail
        assert f"q = {p}^{a}" in detail and str(MAX_FIELD_ORDER) in detail
    assert FiniteField(2, 14).q == MAX_FIELD_ORDER


def _random_curves(F, count, seed, short=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = [rng.randrange(F.q) for _ in range(5)]
        if short:
            coeffs[:3] = [0, 0, 0]
        try:
            out.append(WeierstrassCurve(F, *coeffs))
        except ValueError:
            continue
    return out


#: curves whose Horner passes take every branch: a zero constant (the last
#: step is the product by x), zero middle terms, a1 = 0 and a1 != 0 in
#: characteristic 2, and a1, a3 != 0 in odd characteristic
_SHAPES = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 1, 0, 1, 0), (1, 0, 0, 0, 1), (0, 0, 1, 0, 0), (1, 1, 1, 1, 1)]


def _nonsingular(F, shapes):
    for c in shapes:
        try:
            yield WeierstrassCurve(F, *c)
        except ValueError:
            continue


@pytest.mark.parametrize("p,a", [(2, 6), (3, 4), (11, 2)] + _prime_powers(49))
def test_count_points_matches_naive_count(p, a):
    # differential check of the solution counts read at Horner's last step,
    # on every field with q <= 49 and three larger ones
    F = FiniteField(p, a)
    for E in [*_nonsingular(F, _SHAPES), *_random_curves(F, 4, seed=F.q)]:
        assert count_points(E) == naive_point_count(E), E


@pytest.mark.parametrize("p", [11, 17, 19])
def test_curve_points_agree_with_count(p):
    F = FiniteField(p, 2)
    for E in _random_curves(F, 4, seed=p, short=True):
        pts = curve_points(E)
        assert len(pts) == len(set(pts)) == count_points(E), E
        for P in pts[1:]:
            x, y = P
            assert F.mul(y, y) == F.add(F.pow(x, 3), F.add(F.mul(E.a4, x), E.a6))


def test_sqrts_and_counts_from_half_logs():
    # _sols[k] counts the y over one x where the equation reads g^k: the
    # square roots w^2 = g^k for odd p, the roots z^2 + z = g^k for p = 2;
    # indexed like _exp, so both periods and the zero run are checked
    for p, a in [(2, 5), (3, 3), (13, 1), (5, 2), (2, 1), (2, 4)]:
        F = FiniteField(p, a)
        roots = {}
        for w in F.elements():
            roots.setdefault(F.mul(w, w), set()).add(w)
        solutions = Counter(F.add(F.mul(w, w), w if p == 2 else 0) for w in F.elements())
        assert len(F._sols) == len(F._exp)
        for k, u in enumerate(F._exp):
            assert F._sols[k] == solutions[u], (F.q, k)
        for u in F.elements():
            assert set(F.sqrts(u)) == roots.get(u, set()), (F.q, u)
            assert len(F.sqrts(u)) == len(roots.get(u, ())), (F.q, u)
            if p > 2:
                assert len(F.sqrts(u)) == F._sols[F._log[u]], (F.q, u)


def test_frobenius_check_is_the_p_plus_1_torsion_check():
    # x^q = x on F_q, so (x^q, y^q) = [-p]P says exactly [p+1]P = O
    for p in [5, 7]:
        E = find_q14_curve(p)
        F = E.field
        add = _group_law(E)
        for P in curve_points(E)[1:]:
            x, y = P
            assert (F.pow(x, F.q), F.pow(y, F.q)) == P
            Q = None
            for _ in range(p):
                Q = add(Q, P)
            assert Q == (x, F.neg(y))  # [p]P = -P, i.e. [-p]P = P
            assert add(Q, P) is None


def _extension_fields(limit):
    """Every (p, a) with a > 1 and p^a <= limit."""
    return [
        (p, a)
        for p in range(2, math.isqrt(limit) + 1)
        if all(p % d for d in range(2, p))
        for a in range(2, limit.bit_length())
        if p**a <= limit
    ]


def _seeded_primes(count, limit, seed):
    rng = random.Random(seed)
    primes = [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    return sorted({2, 3, *rng.sample(primes, count)})


#: the fields whose primitive element, the first in encoding order, has
#: degree 2 in x; in every other extension field it is x + c
_DEGREE_TWO_G = {(3, 4), (2, 8), (2, 9), (5, 4), (2, 12), (2, 14)}


@pytest.mark.parametrize("p,a", _extension_fields(MAX_FIELD_ORDER), ids=lambda x: str(x))
def test_rabin_modulus_matches_trial_division(p, a):
    # Rabin's test picks the same lexicographically first modulus as trial
    # division by every monic polynomial of degree <= a/2
    assert fields._smallest_modulus(p, a) == smallest_modulus_oracle(p, a)


@pytest.mark.parametrize("p,a", _extension_fields(729), ids=lambda x: str(x))
def test_irreducible_test_matches_products(p, a):
    # the modulus oracle divides too, so this one multiplies: a monic m is
    # reducible exactly when it is a product of two monics of degree >= 1
    reducible = reducible_monics_oracle(p, a)
    for tail in product(range(p), repeat=a):
        m = tail + (1,)
        assert fields._is_irreducible(m, p) == (m not in reducible), m


@pytest.fixture
def memo(monkeypatch):
    """An empty extension-field memo for the test; the module's own is restored after."""
    monkeypatch.setattr(fields, "_EXTENSIONS", OrderedDict())
    return fields._EXTENSIONS


def _tables(F):
    return (F.modulus, F._exp, F._log, F._zech, F._sols)


@pytest.mark.parametrize(
    "p,a",
    _extension_fields(MAX_FIELD_ORDER) + [(p, 1) for p in _seeded_primes(24, MAX_FIELD_ORDER, 29)],
    ids=lambda x: str(x),
)
def test_exp_table_matches_matrix_walk(p, a, memo, monkeypatch):
    # differential check of the walks that build exp against the digit-matrix
    # walk, and of a memo hit against a fresh build of the same field
    F = FiniteField(p, a)
    walk = matrix_walk_powers(p, a, F.modulus)
    assert F._exp[: F.q - 1] == walk
    assert (F._exp[1] >= p * p) == ((p, a) in _DEGREE_TWO_G)
    hit = FiniteField(p, a)
    assert (hit is F) == (a > 1)  # prime fields are built on every call
    monkeypatch.setattr(fields, "_EXTENSIONS", OrderedDict())
    fresh = FiniteField(p, a)
    assert fresh is not hit
    assert _tables(hit) == _tables(fresh)
    assert hit._exp[: F.q - 1] == fresh._exp[: F.q - 1] == walk


def test_reducible_modulus_fails_fast(memo, monkeypatch):
    # x^2 + 1 = (x + 1)^2 over F_2: the powers of x + 1 reach 0 and stay there,
    # so the orbit walk must stop at q - 1 steps instead of growing its list
    monkeypatch.setattr(fields, "_smallest_modulus", lambda p, a: (1, 0))
    t0 = time.perf_counter()
    with pytest.raises(AssertionError, match=r"\(1, 0\) of F_4 is reducible"):
        FiniteField(2, 2)
    assert time.perf_counter() - t0 < 0.1
    assert not memo


def test_memo_keeps_no_errors_and_no_aliases(memo):
    F = FiniteField(2, 2)
    for _ in range(3):
        with pytest.raises(TypeError):
            FiniteField(2, 2.0)  # equal to (2, 2) as a dict key
        with pytest.raises(TypeError):
            FiniteField(2.0, 2)
        with pytest.raises(NotPrime):
            FiniteField(4, 2)
        with pytest.raises(FieldTooLarge):
            FiniteField(2, 15)
        with pytest.raises(ValueError):
            FiniteField(2, 0)
        assert list(memo.items()) == [((2, 2), F)]
    assert FiniteField(2, 2) is F


def test_memo_bound_drops_least_recently_used_first(memo):
    # 2^13 + 3^8 = 14753 fit; touching 2^13 leaves 3^8 least recently used,
    # so 5^5 (sum 17878 > 2^14) drops 3^8 and keeps 2^13
    F = FiniteField(2, 13)
    FiniteField(3, 8)
    assert FiniteField(2, 13) is F
    FiniteField(5, 5)
    assert list(memo) == [(2, 13), (5, 5)]
    # a seeded sequence against a model of the same rule
    pool = [(p, a) for p, a in _extension_fields(MAX_FIELD_ORDER) if p**a <= 2**12]
    rng = random.Random(14)
    model = list(memo)
    for _ in range(300):
        key = rng.choice(pool)
        F = FiniteField(*key)
        model = [k for k in model if k != key] + [key]
        while sum(p**a for p, a in model) > MAX_FIELD_ORDER:
            model.pop(0)
        assert list(memo) == model and memo[key] is F
        assert sum(G.q for G in memo.values()) <= MAX_FIELD_ORDER
    FiniteField(2, 14)
    assert list(memo) == [(2, 14)]


@pytest.mark.parametrize("p", [257, 271, 1009, 1063, 2003, 2087])
def test_count_points_matches_euler_criterion_count(p):
    # over F_p, (2y + a1 x + a3)^2 = (a1 x + a3)^2 + 4 rhs(x) has 1 + (D/p) roots y;
    # (D/p) from legendre_oracle, checked against Euler's criterion D^((p-1)/2)
    chi = [legendre_oracle(D, p) for D in range(p)]
    assert all(pow(D, (p - 1) // 2, p) == chi[D] % p for D in range(p))
    F = FiniteField(p)
    rng = random.Random(p)
    lam = rng.randrange(2, p)  # the Legendre form y^2 = x (x - 1)(x - lam) of the benchmark
    coeffs = [(0, (-1 - lam) % p, 0, lam, 0)] + [tuple(rng.randrange(p) for _ in range(5)) for _ in range(3)]
    for a1, a2, a3, a4, a6 in coeffs:
        E = WeierstrassCurve(F, a1, a2, a3, a4, a6)
        euler = 1 + sum(
            1 + chi[((a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)) % p] for x in range(p)
        )
        assert count_points(E) == euler, (p, E)


@pytest.mark.parametrize("p,a", [(257, 1), (19, 2)])
def test_count_points_matches_naive_count_past_256(p, a):
    F = FiniteField(p, a)
    for E in _random_curves(F, 2, seed=F.q):
        assert count_points(E) == naive_point_count(E), E
