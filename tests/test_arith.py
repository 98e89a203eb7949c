import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import (
    factorize_oracle,
    hilbert_oracle,
    is_local_square_oracle,
    is_prime_oracle,
    isotropic_at_oracle,
    legendre_oracle,
    places_factor_each_oracle,
    places_oracle,
    random_fraction,
    ternary_search,
)
import spinel
from spinel import arith
from spinel.arith import (
    MAX_POWER_BITS,
    OO,
    PRIMALITY_BOUND,
    _quaternary_isotropic_at,
    check_power,
    factorize,
    hilbert_symbol,
    is_prime,
    places,
    squarefree_part,
    ternary_represents,
    valuation,
)
from spinel.errors import BoundExceeded, NotPrime, ZeroInput
from spinel.quat import QuaternionAlgebra, ramified_places


def _obstructions(coeffs, t):
    """Places where <-t, a1, a2, a3> is anisotropic, by the per-place kernel."""
    quad = (-Fraction(t), *map(Fraction, coeffs))
    ints = tuple(c.numerator * c.denominator for c in quad)
    return [v for v in places(*quad) if not _quaternary_isotropic_at(ints, v)]


#: representatives of Q_v* / Q_v*^2 other than 1; at an odd p they are e, p
#: and e p for a unit e that is not a square mod p
_CLASSES = {
    OO: (-1,),
    2: (-1, 2, -2, 5, -5, 10, -10),
    **{p: (e, p, e * p) for p, e in ((3, 2), (5, 3), (7, 3), (11, 2))},
}


def _square_by_symbols(a, v):
    """a is a square in Q_v iff (a, b)_v = 1 for every class b."""
    return all(hilbert_symbol(a, b, v) == 1 for b in _CLASSES[v])


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorize_known():
    assert factorize(9409) == (1, {97: 2})
    assert factorize(-12) == (-1, {2: 2, 3: 1})
    assert factorize(1) == (1, {})
    assert factorize(-1) == (-1, {})


def test_factorize_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(-10**6, 10**6)
        if n == 0:
            continue
        sign, fac = factorize(n)
        prod = sign
        for p, e in fac.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factorize_errors():
    with pytest.raises(ZeroInput):
        factorize(0)
    with pytest.raises(BoundExceeded):
        factorize((2**31 - 1) * (2**61 - 1))


def test_squarefree_part_known():
    assert squarefree_part(Fraction(-9, 4)) == -1
    assert squarefree_part(Fraction(50, 27)) == 6
    assert squarefree_part(18) == 2
    assert squarefree_part(-1) == -1
    assert squarefree_part(Fraction(1, 2)) == 2


def test_squarefree_part_square_scaling():
    rng = random.Random(5)
    for _ in range(300):
        r = random_fraction(rng, nonzero=True)
        s = random_fraction(rng, nonzero=True)
        assert squarefree_part(r * s * s) == squarefree_part(r)
        part = squarefree_part(r)
        # r / part must be a square
        q = r / part
        assert q > 0
        assert squarefree_part(q) == 1


def test_legendre_known():
    # the Legendre symbol (a/p) of a p-unit a is the Hilbert symbol (a, p)_p
    assert hilbert_symbol(-2, 5, 5) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(Fraction(1, 3), 7, 7) == hilbert_symbol(3, 7, 7) == -1


def test_legendre_against_square_lists():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        for a in range(1, p):
            assert hilbert_symbol(a, p, p) == legendre_oracle(a, p)


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(9, 50), 5) == -2
    assert valuation(Fraction(9, 50), 3) == 2
    assert valuation(7, 3) == 0


def test_valuation_refuses_p_below_2():
    # dividing out p = 1 or -1 never stops, so the calls run in a child
    # process: a hang fails the test by the timeout instead of stalling it
    code = (
        "from spinel.arith import valuation\n"
        "for p in (1, -1, 0):\n"
        "    try:\n"
        "        valuation(6, p)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(spinel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"p = {p} must be at least 2 for a p-adic valuation" for p in (1, -1, 0)
    ]


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, OO) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -3, 3) == -1
    assert hilbert_symbol(2, 3, OO) == 1
    assert hilbert_symbol(-2, -5, 5) == -1


def test_hilbert_against_congruence_oracle_sample():
    # the full p <= 50 sweep runs in the acceptance suite
    for p in [3, 5, 7, 11, 13]:
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0 or b == 0:
                    continue
                assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p), (a, b, p)


def test_hilbert_dyadic_oracle():
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a == 0 or b == 0:
                continue
            assert hilbert_symbol(a, b, 2) == hilbert_oracle(a, b, 2), (a, b)


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(23)
    places = [OO, 2, 3, 5, 7, 13]
    for _ in range(200):
        a = random_fraction(rng, nonzero=True)
        b = random_fraction(rng, nonzero=True)
        c = random_fraction(rng, nonzero=True)
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        lhs = hilbert_symbol(a * c, b, v)
        assert lhs == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)


def test_hilbert_product_formula_spot():
    rng = random.Random(31)
    for _ in range(50):
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        if a == 0 or b == 0:
            continue
        places = {OO, 2}
        for r in (a, b):
            places.update(factorize(r)[1])
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_hilbert_errors():
    with pytest.raises(ZeroInput):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(NotPrime):
        hilbert_symbol(1, 2, 6)
    # a place other than OO is read as an integer: a float or a string is
    # refused as a type, not as a composite
    for place in (3.0, "x"):
        with pytest.raises(TypeError):
            hilbert_symbol(2, 3, place)


def test_is_local_square():
    # local squares read off the Hilbert symbol, which is nondegenerate
    for a, v in [(4, OO), (4, 2), (4, 7), (17, 2), (-1, 5), (Fraction(1, 4), 2)]:
        assert _square_by_symbols(a, v) and is_local_square_oracle(Fraction(a), v), (a, v)
    for a, v in [(-4, OO), (2, 2), (3, 2), (-1, 3)]:  # 2 has odd valuation at 2
        assert not _square_by_symbols(a, v) and not is_local_square_oracle(Fraction(a), v)


def test_is_local_square_vs_hilbert():
    # a is a square in Q_v iff (a, b)_v = 1 for every b
    rng = random.Random(7)
    squares = 0
    for _ in range(200):
        a = random_fraction(rng, nonzero=True)
        v = rng.choice([OO, 2, 3, 5, 11])
        assert _square_by_symbols(a, v) == is_local_square_oracle(a, v), (a, v)
        if is_local_square_oracle(a, v):
            squares += 1
            b = random_fraction(rng, nonzero=True)
            assert hilbert_symbol(a, b, v) == 1
    assert squares > 20


def test_ternary_represents_known():
    assert ternary_represents((1, 3, 3), 1)
    assert not ternary_represents((2, 5, 10), 1)
    assert not ternary_represents((1, 1, 1), -1)


def test_ternary_witness_search_agrees():
    # one-sided: a box witness forces ternary_represents to say yes
    rng = random.Random(41)
    for _ in range(60):
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(3))
        t = rng.choice([-2, -1, 1, 2, 3, 5])
        witness = ternary_search(coeffs, t, box=8)
        if witness is not None:
            x, y, z, w = witness
            a, b, c = coeffs
            assert a * x * x + b * y * y + c * z * z == t * w * w
            assert ternary_represents(coeffs, t), (coeffs, t)


def test_local_obstructions():
    assert _obstructions((2, 5, 10), 1) == [5]
    assert not ternary_represents((2, 5, 10), 1)
    assert _obstructions((1, 3, 3), 1) == []
    obs = _obstructions((1, 1, 1), -1)
    assert 2 in obs and OO in obs


def test_places_match_trial_division_oracle():
    rng = random.Random(53)
    for _ in range(300):
        values = []
        for _ in range(rng.randint(1, 4)):
            num = rng.choice([1, -1, rng.randint(-10**6, 10**6) or 7])
            den = rng.choice([1, rng.randint(1, 10**6)])
            if rng.random() < 0.5:
                num, den = den * rng.choice([1, -1]), abs(num)
            values.append(Fraction(num, den))
        assert places(*values) == places_oracle(*values), values
    assert places(1) == [OO, 2]
    assert places(Fraction(-1, 45), 98) == [OO, 2, 3, 5, 7]


def test_places_errors():
    with pytest.raises(ZeroInput, match="cannot factor 0"):
        places(3, 0)
    # a certified prime past the factor bound answers; what rho would have to
    # split past it, or what Miller-Rabin cannot certify, is refused
    assert places(Fraction(1, 2**61 - 1)) == [OO, 2, 2**61 - 1]
    with pytest.raises(BoundExceeded, match="composite cofactor"):
        places(Fraction(1, (2**31 - 1) ** 2))
    with pytest.raises(BoundExceeded, match="primality bound"):
        places(2**89 - 1)


def _signed(rng, n):
    return rng.choice((-1, 1)) * rng.randint(1, n)


def _prime_from(rng, lo, hi):
    n = rng.randrange(lo, hi)
    while not is_prime_oracle(n):
        n += 1
    return n


#: local-symbols size classes of the prime P in a, b = +-u P / v
_SIZE_CLASSES = ((100, 1000), (1000, 10**4), (5 * 10**4, 10**5))


def _local_symbols_triple(rng, k):
    """(a, b, m) shaped like local-symbols: a, b = +-u P / v with u, v <= 16.

    One triple in three gives b a's prime in its denominator and a's
    denominator in its numerator, so ab cancels; half the m are pure norms
    -a w1^2, -b w2^2 or ab w3^2 with w in the search box, the rest fresh.
    """
    pa = _prime_from(rng, *_SIZE_CLASSES[k % 3])
    a = Fraction(_signed(rng, 16) * pa, rng.randint(1, 16))
    pb = _prime_from(rng, *rng.choice(_SIZE_CLASSES))
    if k % 3 == 0:
        b = Fraction(_signed(rng, 16) * pb * a.denominator, rng.randint(1, 16) * pa)
    else:
        b = Fraction(_signed(rng, 16) * pb, rng.randint(1, 16))
    if k % 2:
        w = Fraction(_signed(rng, 4), rng.randint(1, 4))
        m = rng.choice((-a, -b, a * b)) * w * w
    else:
        m = Fraction(_signed(rng, 16) * _prime_from(rng, 1000, 10**4), rng.randint(1, 16))
    return a, b, m


def test_places_symbols_and_ternary_match_oracles_on_local_symbols_inputs():
    rng = random.Random(89)
    cancelled = represented = 0
    for k in range(150):
        a, b, m = _local_symbols_triple(rng, k)
        ab = a * b
        assert places(a, b) == places_oracle(a, b) == places_factor_each_oracle(a, b), (a, b)
        symbols = {v for v in places_oracle(a, b) if hilbert_symbol(a, b, v) == -1}
        assert ramified_places(QuaternionAlgebra(a, b)) == symbols, (a, b)
        quad = (-m, -a, -b, ab)
        assert places(*quad) == places_oracle(*quad) == places_factor_each_oracle(*quad), quad
        got = ternary_represents((-a, -b, ab), m)
        assert got == all(isotropic_at_oracle(quad, v) for v in places_oracle(*quad)), quad
        ints = tuple(c.numerator * c.denominator for c in quad)
        assert got == all(_quaternary_isotropic_at(ints, v) for v in places_factor_each_oracle(*quad))
        cancelled += math.gcd(a.numerator, b.denominator) > 1 or math.gcd(b.numerator, a.denominator) > 1
        represented += got
    assert cancelled >= 40 and 0 < represented < 150


def test_factor_bound_applies_to_the_cofactor_rho_splits():
    # 3 * 2^48 strips to 1 after 3 and 2, and ab = 15 * 2^50 to 1 after a and
    # b, so no cofactor is left for rho and the size of the integer is no cost
    assert places(3, 3 * 2**48) == [OO, 2, 3]
    a, b = Fraction(-3 * 2**25), Fraction(-5 * 2**25)
    assert places(a, b) == [OO, 2, 3, 5]
    assert ternary_represents((-a, -b, a * b), 1) == ternary_represents((6, 10, 15), 1)
    assert places(Fraction(7, 2**40), Fraction(7**2 * 2**45, 3)) == [OO, 2, 3, 7]
    assert places(2**48, Fraction(3, 2**48)) == [OO, 2, 3]
    # trial division leaves a prime cofactor, certified by Miller-Rabin
    m61 = 2**61 - 1
    assert factorize(-3 * 2**70 * m61) == (-1, {2: 70, 3: 1, m61: 1})
    # a composite cofactor above the bound is refused before rho runs, and
    # the detail names the integer given and the cofactor
    n = 3 * (2**31 - 1) ** 2
    with pytest.raises(BoundExceeded, match=f"^{n} leaves the composite cofactor {(2**31 - 1) ** 2}, "):
        factorize(n)
    with pytest.raises(BoundExceeded, match="composite cofactor"):
        factorize((2**31 - 1) ** 2)


def test_places_names_the_integer_given():
    # places strips 3 from b before factoring what is left, and its detail
    # names b as given, numerator or denominator, sign included
    c = (2**31 - 1) ** 2
    for values, given in (
        ((3, 3 * c), 3 * c),
        ((3, -3 * c), -3 * c),
        ((3, Fraction(5, 9 * c)), 9 * c),
        ((c,), c),
    ):
        with pytest.raises(BoundExceeded, match=f"^{given} leaves the composite cofactor {c}, "):
            places(*values)


def test_ternary_represents_factors_each_prime_once(monkeypatch):
    # ab's primes all come from a and b, so its numerator and denominator
    # are stripped to 1 and never factored whole
    rng = random.Random(97)
    handed = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: handed.append(n) or real(n))
    for k in range(200):
        a, b, m = _local_symbols_triple(rng, k)
        handed.clear()
        ternary_represents((-a, -b, a * b), m)
        assert len(handed) <= 6, (a, b, m, handed)
        found = {2}
        for n in handed:
            assert all(n % p for p in found), (a, b, m, n, found)
            found.update(real(n)[1])


def test_ternary_represents_iff_no_local_obstruction():
    rng = random.Random(59)
    for _ in range(200):
        coeffs = tuple(random_fraction(rng, size=30, nonzero=True) for _ in range(3))
        t = random_fraction(rng, size=30, nonzero=True)
        assert ternary_represents(coeffs, t) == (_obstructions(coeffs, t) == [])
    for coeffs, t in [((1, 0, 1), 1), ((1, 2, 3), 0)]:
        with pytest.raises(ZeroInput):
            ternary_represents(coeffs, t)


def _matches_trial_division(n):
    assert is_prime(n) == is_prime_oracle(n), n
    try:
        want = factorize_oracle(n)
    except BoundExceeded:
        with pytest.raises(BoundExceeded):
            factorize(n)
        return
    sign, got = factorize(n)
    # same primes in the same (ascending) dict order, all plain ints
    assert (sign, list(got.items())) == (want[0], list(want[1].items())), n
    assert all(type(p) is int and type(e) is int for p, e in got.items())


def test_small_n_match_trial_division_oracle():
    for n in range(-10**5 + 1, 10**5):
        if n:
            _matches_trial_division(n)


def test_seeded_n_below_factor_bound_match_trial_division_oracle():
    rng = random.Random(67)
    for _ in range(2000):
        bits = rng.randint(2, 48)
        _matches_trial_division(rng.randrange(2 ** (bits - 1), 2**bits))


def _next_prime(n):
    while not is_prime_oracle(n):
        n += 1
    return n


def test_hard_inputs_match_trial_division_oracle():
    rng = random.Random(71)
    # semiprimes whose factors are both past the trial divisors
    for _ in range(12):
        p, q = (_next_prime(rng.randrange(1025, 2 ** rng.randint(11, 24))) for _ in range(2))
        _matches_trial_division(p * q)
    _matches_trial_division(16777199 * 16777213)
    # squares of the two largest primes below 2^24, just under 2^48, and
    # higher powers past the trial divisors
    for n in (16777199**2, 16777213**2, 65521**3, 1031**3 * 1033):
        _matches_trial_division(n)
    # Carmichael numbers, then strong pseudoprimes to the first bases
    for n in (561, 41041, 825265, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n)
        _matches_trial_division(n)


def test_is_prime_needs_the_last_bases():
    # a strong pseudoprime to every prime base 2..31
    assert not is_prime(3825123056546413051)
    assert not is_prime_oracle(3825123056546413051)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_past_primality_bound():
    assert not is_prime(PRIMALITY_BOUND + 1)  # even
    with pytest.raises(BoundExceeded):
        is_prime(2**89 - 1)


def test_isotropy_kernel_matches_public_symbols():
    rng = random.Random(73)
    outcomes = set()
    for _ in range(2000):
        values = [random_fraction(rng, size=40, nonzero=True) for _ in range(4)]
        if rng.random() < 0.25:
            values[rng.randrange(4)] *= rng.choice([1031, 65537, 2**31 - 1])
        t, coeffs = values[0], tuple(values[1:])
        quad = (-t, *coeffs)
        want = []
        for v in places_oracle(*quad):
            isotropic = isotropic_at_oracle(quad, v)
            outcomes.add((v if v in (OO, 2) else "odd", isotropic))
            if not isotropic:
                want.append(v)
        assert _obstructions(coeffs, t) == want, (coeffs, t)
        assert ternary_represents(coeffs, t) == (want == []), (coeffs, t)
    assert outcomes == {(v, i) for v in (OO, 2, "odd") for i in (True, False)}


P48 = 281474976710597  # a prime just below 2^48


@pytest.mark.parametrize(
    "call",
    [
        lambda: factorize(P48),
        lambda: hilbert_symbol(P48, -1, P48),
        lambda: ternary_represents((-1, -P48, P48), 1),
    ],
    ids=["factorize", "hilbert_symbol", "ternary_represents"],
)
def test_worst_case_prime_is_fast(call):
    t0 = time.perf_counter()
    call()
    assert time.perf_counter() - t0 < 0.5


def test_negative_exponent_is_refused():
    # p^k is no int for k < 0; this was an AttributeError on a float power
    for p in (2, 3, 2**61 - 1):
        with pytest.raises(ValueError, match="k = -1"):
            check_power(p, -1)


def test_exact_power_limit():
    # p^k is refused exactly when p^k >= 2^MAX_POWER_BITS (13^1107 has one bit
    # too many), and a huge k is refused at once, without computing p^k
    for p in (2, 3, 5, 13, 43, 127, 2**61 - 1):
        k = 0
        while (p ** (k + 1)).bit_length() <= MAX_POWER_BITS:
            k += 1
        check_power(p, k)
        with pytest.raises(BoundExceeded, match=f"{p}\\^{k + 1} .* 2\\^{MAX_POWER_BITS}"):
            check_power(p, k + 1)
    t0 = time.perf_counter()
    for p, k in [(2, 2**61 - 1), (3, 10**30), (2**61 - 1, 2**61 - 1)]:
        with pytest.raises(BoundExceeded):
            check_power(p, k)
    assert time.perf_counter() - t0 < 0.1
