"""Independent brute-force oracles used to pin expected values.

Nothing here may import the code paths it checks: the Hilbert oracle is
congruence search, the curve oracle is a bare double loop over (x, y), the
field oracle is schoolbook polynomial arithmetic on base-p digits, the
census oracle sweeps whole Weierstrass families with the per-curve
count_points instead of the census scan, the census-row oracle builds each
row of the scan by q F.add calls on solution counts found by squaring every
element, the ternary oracle is a box scan,
the primality and factoring oracles are trial division (that Miller-Rabin
and Pollard-Brent rho replaced) by a sieved list of the primes below 2^24,
the factor-each places oracle factors every integer whole instead of
stripping the primes already found, the ramified-places oracle runs the
Hilbert oracle at every place but the largest prime and reads that one off
Hilbert reciprocity,
the isotropy oracle is the Hasse-invariant formula evaluated through
the public Hilbert symbol and a local-square test by listing squares instead
of the per-place kernel, the Frobenius oracle is double and add to [p+1]P
for every point on the method-call group law instead of one table walk per
cyclic subgroup, the Z[T]
oracles are Euclid and division over Fraction, the pure-norm search
oracle computes its shell limits as Fraction products, and the quaternion
oracle keeps four Fraction coordinates instead of int numerators over one
denominator, the etale product is the general multiplication of K that
EtaleElement kept before only its square was left, the etale text is its
printing from Fraction coordinates before they became int numerators, the
etale square root divides t by delta as a Fraction and roots the numerator
and denominator of each Fraction, where sqrt_rational now works on t's
integer numerator and denominator, the
modulus oracle trial-divides by every monic of degree <= a/2, the
reducible-monics oracle multiplies every pair of monics instead of dividing,
the spin zeta oracle writes the zeta functions and both sides of the
identity as closed forms in p^n where lfunc now reads them off the spinorial
class, the identity-sides oracle builds both sides in Q(T) algebra (the
reciprocal of Z(H^1), and 1/(1 - z^2 U) multiplied by itself) where
verify_identity_exact now writes them as closed forms, the realizations
oracle takes two valuations by division, of |z|^2 and of tau, where
realizations now reads one, and the Hurwitz class number counts reduced binary quadratic forms,
against which the census scan's weighted counts are checked.  They are slow and
only run at desk scale.  frobenius_additions is no oracle but a meter: it
counts the group-law additions of one Frobenius check, and
random_involution is no oracle but a sampler of involutions for the
property tests.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, count, product
from typing import Iterator

import numpy as np

from spinel import curves, spinstruct
from spinel.arith import OO, factorize, hilbert_symbol
from spinel.curves import WeierstrassCurve, count_points, curve_points
from spinel.errors import BoundExceeded, ZeroInput
from spinel.spinspace import EtaleElement, OrthogonalInvolution

_cache: dict = {}


def _squares_mod(m: int) -> tuple[np.ndarray, np.ndarray]:
    got = _cache.get(m)
    if got is None:
        t = np.arange(m, dtype=np.int64)
        tsq = (t * t) % m
        is_sq = np.zeros(m, dtype=bool)
        is_sq[tsq] = True
        got = _cache[m] = (tsq, is_sq)
    return got


def hilbert_oracle(a: int, b: int, p: int) -> int:
    """Solvability of z^2 = a x^2 + b y^2 over Z/p^k, k = v(4ab) + 3.

    A solution must be primitive (not all three coordinates divisible by p).
    Scaling by units preserves solutions, so a primitive solution can be
    normalized to have x = 1, y = 1 or z = 1; the three cases are searched
    exhaustively with the squares table mod p^k.
    """
    assert a != 0 and b != 0 and p >= 2
    v, rest = 0, abs(4 * a * b)
    while rest % p == 0:
        rest //= p
        v += 1
    m = p ** (v + 3)
    tsq, is_sq = _squares_mod(m)
    if is_sq[(a + b * tsq) % m].any():  # x = 1
        return 1
    if is_sq[(b + a * tsq) % m].any():  # y = 1
        return 1
    ax = np.zeros(m, dtype=bool)
    ax[(a * tsq) % m] = True
    if ax[(1 - b * tsq) % m].any():  # z = 1
        return 1
    return -1


def ternary_search(
    coeffs: tuple[int, int, int], t: int, box: int = 10
) -> tuple[int, int, int, int] | None:
    """Homogeneous witness a x^2 + b y^2 + c z^2 = t w^2 with 1 <= w <= box."""
    a, b, c = coeffs
    for w in range(1, box + 1):
        target = t * w * w
        for x in range(box + 1):
            for y in range(box + 1):
                rest = target - a * x * x - b * y * y
                if c == 0:
                    continue
                q, r = divmod(rest, c)
                if r != 0 or q < 0:
                    continue
                z = round(q**0.5)
                if z * z == q and z <= box:
                    return (x, y, z, w)
    return None


def naive_point_count(E) -> int:
    """#E(F_q) by testing the full Weierstrass equation at every (x, y)."""
    F = E.field
    n = 1
    for x in F.elements():
        x2 = F.mul(x, x)
        rhs = F.add(
            F.add(F.mul(x2, x), F.mul(E.a2, x2)),
            F.add(F.mul(E.a4, x), E.a6),
        )
        for y in F.elements():
            lhs = F.add(
                F.mul(y, y),
                F.add(F.mul(F.mul(E.a1, x), y), F.mul(E.a3, y)),
            )
            if lhs == rhs:
                n += 1
    return n


def j_invariant(F, coeffs) -> int:
    """c4^3 / Delta of the curve with a-invariants coeffs, c4 = b2^2 - 24 b4."""
    a1, a2, a3, a4, a6 = coeffs
    m, c = F.mul, F.from_int
    b2 = F.add(m(a1, a1), m(c(4), a2))
    b4 = F.add(m(c(2), a4), m(a1, a3))
    c4 = F.add(m(b2, b2), F.neg(m(c(24), b4)))
    return m(F.pow(c4, 3), F.inv(WeierstrassCurve(F, *coeffs).discriminant()))


def census_pairs_oracle(F) -> set[tuple[int, int]]:
    """{(j, trace)} over every nonsingular curve of a family that covers all
    isomorphism classes: every 5-tuple for p = 2, (0, a2, 0, a4, a6) for
    p = 3 and the short forms (0, 0, 0, A, B) for p >= 5.  A census that
    drops a twist class loses its (j, trace) pair even when another class
    has the same trace."""
    els = F.elements()
    if F.p == 2:
        family = product(els, repeat=5)
    elif F.p == 3:
        family = ((0, a2, 0, a4, a6) for a2, a4, a6 in product(els, repeat=3))
    else:
        family = ((0, 0, 0, A, B) for A, B in product(els, repeat=2))
    pairs = set()
    for coeffs in family:
        try:
            E = WeierstrassCurve(F, *coeffs)
        except ValueError:
            continue
        pairs.add((j_invariant(F, coeffs), F.q + 1 - count_points(E)))
    return pairs


def census_scan_oracle(F) -> list[tuple[tuple[int, ...], int]]:
    """The census scan's (a-invariants, trace) list, in its order, with each
    per-constant row sol[d + c] built by q F.add calls, and sol[u] counted
    as the w with w^2 = u (odd p) or w^2 + w = u (p = 2)."""
    els = F.elements()
    sol = Counter(F.add(F.mul(w, w), w if F.p == 2 else 0) for w in els)
    rows, out = curves._census_rows(F), []
    for c in els:
        row = [sol[F.add(d, c)] for d in els]
        for curve, values, singular in rows:
            if c not in singular:
                out.append((curve(c), len(values) - sum(row[v] for v in values)))
    return out


def _from_digits(digits, p: int) -> int:
    u = 0
    for c in reversed(digits):
        u = u * p + c % p
    return u


def field_add_oracle(F, u: int, v: int) -> int:
    """u + v in F by adding base-p digits mod p."""
    return _from_digits([a + b for a, b in zip(F.decode(u), F.decode(v))], F.p)


def field_neg_oracle(F, u: int) -> int:
    return _from_digits([-c for c in F.decode(u)], F.p)


def field_mul_oracle(F, u: int, v: int) -> int:
    """u * v in F: schoolbook product of digit polynomials, then reduction
    of every degree >= a with x^a = -sum F.modulus[i] x^i."""
    a = F.a
    prod = [0] * (2 * a - 1)
    for i, ci in enumerate(F.decode(u)):
        for j, cj in enumerate(F.decode(v)):
            prod[i + j] += ci * cj
    for deg in range(2 * a - 2, a - 1, -1):
        top = prod.pop()
        for i, mi in enumerate(F.modulus):
            prod[deg - a + i] -= top * mi
    return _from_digits(prod, F.p)


def field_pow_oracle(F, u: int, e: int) -> int:
    """u^e for e >= 0 by square and multiply with field_mul_oracle."""
    out = 1
    while e:
        if e & 1:
            out = field_mul_oracle(F, out, u)
        u = field_mul_oracle(F, u, u)
        e >>= 1
    return out


def legendre_oracle(a: int, p: int) -> int:
    """Quadratic residue test by listing all squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def places_oracle(*values: Fraction) -> list:
    """["oo", 2, odd primes dividing a numerator or denominator], sorted.

    Divides by every d >= 2 in turn, so each divisor found is prime, and
    what is left once d^2 exceeds it is 1 or prime.
    """
    primes = {2}
    for x in values:
        for n in (abs(x.numerator), x.denominator):
            d = 2
            while d * d <= n:
                if n % d == 0:
                    primes.add(d)
                    n //= d
                else:
                    d += 1
            if n > 1:
                primes.add(n)
    return ["oo", *sorted(primes)]


def places_factor_each_oracle(*values: Fraction) -> list:
    """The places as `arith.places` found them before it stripped known primes:
    `factorize` on every numerator and denominator whole."""
    primes = {2}
    for x in values:
        for n in (x.numerator, x.denominator):
            primes.update(factorize(n)[1])
    return [OO, *sorted(primes)]


def _unsquared(x: int, p: int) -> int:
    while x % (p * p) == 0:
        x //= p * p
    return x


def ramified_places_oracle(a: Fraction, b: Fraction) -> frozenset:
    """The places where (a, b | Q) is division, by brute force at all but one.

    The candidates are places_oracle(a, b).  At OO the symbol goes by signs,
    and at each prime but the largest it is hilbert_oracle on the integers
    num * den of a and b, each with its even powers of the prime divided out
    (that keeps its square class, and the modulus p^(v+3) small).  The
    largest prime is read off the others by Hilbert reciprocity, since the
    product of all the symbols is 1, so that prime may be far beyond what
    the brute-force solver can reach.
    """
    m, n = a.numerator * a.denominator, b.numerator * b.denominator
    _, *primes, last = places_oracle(a, b)
    ram = {OO} if m < 0 and n < 0 else set()
    for p in primes:
        if hilbert_oracle(_unsquared(m, p), _unsquared(n, p), p) == -1:
            ram.add(p)
    if len(ram) % 2:
        ram.add(last)
    return frozenset(ram)


def random_fraction(rng, size: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-size, size), rng.randint(1, size))
        if f != 0 or not nonzero:
            return f


def random_involution(B, rng) -> OrthogonalInvolution:
    """A random orthogonal involution on B, for sampling-based tests."""
    while True:
        coords = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        u = B.element(0, *coords)
        if u.reduced_norm() != 0:
            return OrthogonalInvolution(B, u)


#: factor bound of the trial-division oracle, equal to arith.DEFAULT_FACTOR_BOUND
FACTOR_BOUND = 2**48

#: the sieve covers every trial divisor up to sqrt(FACTOR_BOUND)
_SIEVE_LIMIT = 2**24


@functools.cache
def _sieved_primes() -> array:
    """The primes below _SIEVE_LIMIT, by the sieve of Eratosthenes (built once)."""
    sieve = bytearray([1]) * _SIEVE_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_SIEVE_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _SIEVE_LIMIT, i)))
    return array("I", compress(range(_SIEVE_LIMIT), sieve))


def _trial_divisors() -> Iterator[int]:
    """The sieved primes, then every odd number past them, so any n is covered."""
    return chain(_sieved_primes(), count(_SIEVE_LIMIT + 1, 2))


def is_prime_oracle(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if n < 2:
        return False
    for d in _trial_divisors():
        if d * d > n:
            return True
        if n % d == 0:
            return False


def factorize_oracle(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as sign * prod p^e by trial division.

    Returns (sign, {p: e}).  Every listed p is certified prime: once trial
    division passes sqrt of the remaining cofactor, that cofactor is prime.
    Raises ZeroInput on 0 and BoundExceeded when |n| exceeds FACTOR_BOUND.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    if m > FACTOR_BOUND:
        raise BoundExceeded(f"|{n}| exceeds trial-division bound {FACTOR_BOUND}")
    factors: dict[int, int] = {}
    for d in _trial_divisors():
        if d * d > m:
            break
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return sign, factors


def is_local_square_oracle(r: Fraction, v) -> bool:
    """Is the nonzero rational r a square in Q_v?

    At OO iff r > 0.  At a prime p iff num * den (same square class) has
    even valuation and its unit part is in the list of squares of units
    mod p, or mod 8 at p = 2.
    """
    if v == OO:
        return r > 0
    n, k = r.numerator * r.denominator, 0
    while n % v == 0:
        n, k = n // v, k + 1
    m = 8 if v == 2 else v
    return k % 2 == 0 and n % m in {x * x % m for x in range(m) if x % v}


def isotropic_at_oracle(coeffs: tuple[Fraction, ...], v) -> bool:
    """Isotropy of the diagonal quaternary form <coeffs> over Q_v.

    Anisotropic exactly when the discriminant is a square in Q_v and the
    Hasse invariant prod_{i<j} (ci,cj)_v differs from (-1,-1)_v, each
    symbol taken from the public `hilbert_symbol`, the square test from
    `is_local_square_oracle`.
    """
    d = math.prod(coeffs, start=Fraction(1))
    if not is_local_square_oracle(d, v):
        return True
    eps = math.prod(hilbert_symbol(a, b, v) for a, b in combinations(coeffs, 2))
    return eps == hilbert_symbol(-1, -1, v)


def matrix_walk_powers(p: int, a: int, modulus: tuple[int, ...]) -> list[int]:
    """[g^0, ..., g^(q-2)] by the walk FiniteField used before the prime-field
    walk and the multiplication-table walk: g is the first u (from p when
    a > 1) with u^((q-1)/r) != 1 for every prime r | q - 1, tested by
    schoolbook square and multiply, and each power comes from the last by an
    a x a digit matrix."""
    q = p**a

    def digits(u):
        return [u // p**i % p for i in range(a)]

    def mul(u, v):
        prod = [0] * (2 * a - 1)
        for i, ci in enumerate(digits(u)):
            for j, cj in enumerate(digits(v)):
                prod[i + j] += ci * cj
        for deg in range(2 * a - 2, a - 1, -1):
            c = prod[deg] % p
            prod[deg] = 0
            for i, mc in enumerate(modulus):
                prod[deg - a + i] -= c * mc
        return _from_digits(prod[:a], p)

    def power(u, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, u)
            u = mul(u, u)
            e >>= 1
        return out

    primes = factorize_oracle(q - 1)[1]
    g = next(
        u for u in range(1 if a == 1 else p, q)
        if all(power(u, (q - 1) // r) != 1 for r in primes)
    )
    columns = list(zip(*(digits(mul(g, p**i)) for i in range(a))))
    weights = [p**i for i in range(a)]
    out = []
    d = [1] + [0] * (a - 1)
    for _ in range(q - 1):
        out.append(sum(x * w for x, w in zip(d, weights)))
        d = [sum(x * c for x, c in zip(d, col)) % p for col in columns]
    return out


def multiple_oracle(E, m: int, P):
    """[m]P for m >= 0 by double and add on point_add_oracle."""
    out = None
    while m:
        if m & 1:
            out = point_add_oracle(E, out, P)
        P = point_add_oracle(E, P, P)
        m >>= 1
    return out


def frobenius_ladder_oracle(E, m: int | None = None) -> bool:
    """[m]P = O for every point P of curve_points(E), m = p + 1 by default,
    by double and add for each point: the check verify_frobenius_scalar ran
    before it walked one cyclic subgroup at a time."""
    if m is None:
        m = E.field.p + 1
    return all(multiple_oracle(E, m, P) is None for P in curve_points(E))


def frobenius_additions(E) -> tuple[bool, int]:
    """verify_frobenius_scalar(E) and the number of group-law additions it
    made, counted by wrapping curves._group_law for the one call."""
    group_law, made = curves._group_law, [0]

    def counting(E):
        add = group_law(E)

        def counted(P, Q):
            made[0] += 1
            return add(P, Q)

        return counted

    curves._group_law = counting
    try:
        return curves.verify_frobenius_scalar(E), made[0]
    finally:
        curves._group_law = group_law


def point_add_oracle(E, P, Q):
    """Chord-tangent addition through the field's public methods, one call
    per operation: the point_add that the table group law replaced."""
    F = E.field

    def sub(u, v):
        return F.add(u, F.neg(v))

    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and F.add(y1, y2) == 0:
        return None
    if P == Q:
        num = F.add(F.mul(F.from_int(3), F.mul(x1, x1)), E.a4)
        den = F.mul(F.from_int(2), y1)
    else:
        num = sub(y2, y1)
        den = sub(x2, x1)
    lam = F.mul(num, F.inv(den))
    x3 = sub(sub(F.mul(lam, lam), x1), x2)
    y3 = sub(F.mul(lam, sub(x1, x3)), y1)
    return (x3, y3)


def poly_gcd_oracle(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd in Z[T] with positive lead, by Euclid over Q and then
    integer scaling; each remainder drops its zero leading coefficients, so
    inputs such as (-1 + T + T^2, -2 - 2T - 2T^2) do not divide by a zero
    lead.  Part of the reference for equality in Q(T): see
    rational_function_oracle."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while any(c != 0 for c in b):
        a = a[:]
        while len(a) >= len(b) and any(c != 0 for c in a):
            if a[-1] == 0:
                a.pop()
                continue
            coef = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] -= coef * b[i]
            a.pop()
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        if not a:
            a = [Fraction(0)]
        a, b = b, a
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = _trim_oracle(tuple(int(c * den) for c in a))
    cont = _content_oracle(ints)
    out = tuple(c // cont for c in ints)
    if out[-1] < 0:
        out = tuple(-c for c in out)
    return out


def _poly_divexact_oracle(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f // g over Q, scaled to Z, for a g that divides f."""
    a = [Fraction(c) for c in f]
    out = [Fraction(0)] * (len(f) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        coef = a[k + len(g) - 1] / Fraction(g[-1])
        out[k] = coef
        for i in range(len(g)):
            a[k + i] -= coef * g[i]
    assert all(c == 0 for c in a), "inexact polynomial division"
    den = 1
    for c in out:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return _trim_oracle(tuple(int(c * den) for c in out))


def _trim_oracle(c: tuple[int, ...]) -> tuple[int, ...]:
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _content_oracle(f: tuple[int, ...]) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    return g or 1


def rational_function_oracle(num: tuple[int, ...], den: tuple[int, ...]):
    """(num, den) in lowest terms, reduced through the Fraction Euclid and
    Fraction division above: gcd 1, both primitive up to a sign, den with
    positive lead, and zero as 0/1; den must be nonzero.  Two integer pairs
    are equal in Q(T) exactly when their images here agree, which makes this
    the reference for lfunc.RationalFunction equality."""
    num, den = _trim_oracle(num), _trim_oracle(den)
    if not any(num):
        return (0,), (1,)
    g = poly_gcd_oracle(num, den)
    if len(g) > 1 or g[0] != 1:
        num = _poly_divexact_oracle(num, g)
        den = _poly_divexact_oracle(den, g)
    c = math.gcd(_content_oracle(num), _content_oracle(den))
    num = tuple(x // c for x in num)
    den = tuple(x // c for x in den)
    if den[-1] < 0:
        num = tuple(-x for x in num)
        den = tuple(-x for x in den)
    return num, den


def _shell_candidates_oracle(c1: int, c2: int, c3: int, target: int, s: int):
    rng = [0, *chain.from_iterable((t, -t) for t in range(1, s + 1))]
    for z in rng:
        for y in rng:
            q, r = divmod(target - c2 * y * y - c3 * z * z, c1)
            if r != 0 or q < 0:
                continue
            root = math.isqrt(q)
            if root * root != q or root > s or max(abs(y), abs(z), root) != s:
                continue
            yield (root, y, z)
            if root:
                yield (-root, y, z)


def find_pure_of_norm_oracle(B, m, bound: int, rng=None):
    """The quat.find_pure_of_norm whose shell limits were Fraction products,
    with its shell scan: same plan, same shuffle, same first witness."""
    m = Fraction(m)
    cf1, cf2, cf3 = B.pure_norm_coefficients()
    definite = cf1 > 0 and cf2 > 0 and cf3 > 0
    if definite and m < 0:
        return None
    if m == 0:
        raise ZeroInput("use m != 0; 0 is represented trivially")
    scale = 1
    for c in (cf1, cf2, cf3, m):
        scale = math.lcm(scale, c.denominator)
    c1, c2, c3 = (int(c * scale) for c in (cf1, cf2, cf3))
    m_scaled = int(m * scale)
    plan: list[tuple[int, int]] = []
    for d in range(1, bound + 1):
        if definite:
            smax = math.isqrt(int(m * d * d / min(cf1, cf2, cf3))) + 1
            smax = min(smax, bound)
        else:
            smax = bound
        plan.extend((d, s) for s in range(smax + 1))
    if rng is not None:
        rng.shuffle(plan)
    for d, s in plan:
        for w1, w2, w3 in _shell_candidates_oracle(c1, c2, c3, m_scaled * d * d, s):
            u = B.element(0, Fraction(w1, d), Fraction(w2, d), Fraction(w3, d))
            if u.reduced_norm() == m:
                return u
    return None


def quaternion_sum(x, y):
    """x + y coordinatewise; quat.Quaternion itself has no addition."""
    return x.algebra.element(*(s + t for s, t in zip(x.coords(), y.coords())))


@dataclass(frozen=True)
class FractionQuaternion:
    """x0 + x1*i + x2*j + x3*k in (a,b / Q), each coordinate a Fraction: the
    arithmetic quat.Quaternion kept before its int numerators."""

    a: Fraction
    b: Fraction
    x: tuple[Fraction, Fraction, Fraction, Fraction]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionQuaternion(self.a, self.b, tuple(other * c for c in self.x))
        assert (self.a, self.b) == (other.a, other.b)
        a, b = self.a, self.b
        x0, x1, x2, x3 = self.x
        y0, y1, y2, y3 = other.x
        return FractionQuaternion(a, b, (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ))

    def conjugate(self):
        x0, x1, x2, x3 = self.x
        return FractionQuaternion(self.a, self.b, (x0, -x1, -x2, -x3))

    def reduced_norm(self) -> Fraction:
        x0, x1, x2, x3 = self.x
        a, b = self.a, self.b
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self):
        return self.conjugate() * (1 / self.reduced_norm())

    def apply(self, x):
        """sigma(x) = u x^gamma u^-1 for the involution of u = self."""
        return self * x.conjugate() * self.inverse()

    def to_json(self) -> list[str]:
        return [str(c) for c in self.x]

    def __str__(self) -> str:
        parts = []
        for c, name in zip(self.x, ("", "i", "j", "k")):
            if c == 0:
                continue
            if name and abs(c) == 1:
                term = name if c > 0 else f"-{name}"
            else:
                term = f"{c}{'*' + name if name else ''}"
            parts.append(term if not parts or term.startswith("-") else f"+{term}")
        return "".join(parts) if parts else "0"


def etale_product(z, w):
    """(c + d x)(c' + d' x) in K = Q[x]/(x^2 - delta): the general product
    spinspace.EtaleElement had before K was cut down to square and norm."""
    assert z.ring == w.ring
    delta = z.ring.delta
    return z.ring.element(z.c * w.c + delta * z.d * w.d, z.c * w.d + z.d * w.c)


def _fraction_sqrt(r: Fraction) -> tuple[int, int] | None:
    a, b = math.isqrt(max(r.numerator, 0)), math.isqrt(r.denominator)
    return (a, b) if a * a == r.numerator and b * b == r.denominator else None


def sqrt_rational_oracle(K, t):
    """The square root of a nonzero rational t in K, as QuadraticEtale.sqrt_rational
    found it on Fractions: the root of t, else x times the root of t/delta, else None."""
    t = Fraction(t)
    root = _fraction_sqrt(t)
    if root is not None:
        return EtaleElement(K, root[0], 0, root[1])
    root = _fraction_sqrt(t / K.delta)
    return None if root is None else EtaleElement(K, 0, root[0], root[1])


def etale_str(c: Fraction, d: Fraction) -> str:
    """The text of c + d x that EtaleElement printed from Fraction coordinates."""
    if d == 0:
        return str(c)
    xterm = ("x" if d > 0 else "-x") if abs(d) == 1 else f"{d}*x"
    if c == 0:
        return xterm
    return f"{c}{'' if xterm.startswith('-') else '+'}{xterm}"


def smallest_modulus_oracle(p: int, a: int) -> tuple[int, ...]:
    """The first monic irreducible of degree a > 1 in lex order (constant term
    first), by trial division by every monic polynomial of degree <= a/2."""

    def divides(d, f):
        rem = list(f)
        while len(rem) >= len(d):
            c = rem[-1] % p
            if c:
                shift = len(rem) - len(d)
                for i, dc in enumerate(d):
                    rem[shift + i] = (rem[shift + i] - c * dc) % p
            rem.pop()
        return all(c % p == 0 for c in rem)

    for tail in product(range(p), repeat=a):
        m = tail + (1,)
        if m[0] != 0 and not any(
            divides(cand + (1,), m) for deg in range(1, a // 2 + 1) for cand in product(range(p), repeat=deg)
        ):
            return tail
    raise AssertionError("irreducible polynomials of every degree exist")


def reducible_monics_oracle(p: int, a: int) -> set[tuple[int, ...]]:
    """Every monic of degree a in F_p[x] (coefficients ascending) that is a
    product of two monic polynomials of degree >= 1, by multiplying each pair."""
    out = set()
    for k in range(1, a):
        for f, g in product(product(range(p), repeat=k), product(range(p), repeat=a - k)):
            prod = [0] * (a + 1)
            for i, fi in enumerate(f + (1,)):
                for j, gj in enumerate(g + (1,)):
                    prod[i + j] += fi * gj
            out.add(tuple(c % p for c in prod))
    return out


def hurwitz_class_number(N: int) -> Fraction:
    """H(N), N > 0: the reduced positive definite forms a x^2 + b xy + c y^2
    of discriminant b^2 - 4ac = -N, primitive or not (|b| <= a <= c, and b >= 0
    when |b| = a or a = c), with (a, 0, a) counted 1/2 and (a, a, a) 1/3."""
    total = Fraction(0)
    a = 1
    while 3 * a * a <= N:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b + N, 4 * a)
            if r == 0 and (c > a or (c == a and b >= 0)):
                total += Fraction(1, 2) if b == 0 and c == a else Fraction(1, 3) if b == a == c else 1
        a += 1
    return total


def spin_zeta_oracle(p: int, n: int) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """(num, den) of Z(H^1), Z(rho_spin) and both sides of the identity for
    the tau = -p^n class, as closed forms in p^n:

    Z(H^1) = (1 + p^n T)^2, Z(rho_spin) = 1/(1 + p^n T^2), and
    L(E, s) = 1/(1 + p^n U)^2 = (1/(1 + p^n U))^2 = L(rho_spin, s/2)^2.
    """
    square = (1, 2 * p**n, p ** (2 * n))
    return {
        "zeta_h1": (square, (1,)),
        "zeta_spin": ((1,), (1, 0, p**n)),
        "lhs": ((1,), square),
        "rhs": ((1,), square),
    }


def identity_vacuous_oracle(p: int, n: int) -> bool:
    """No arithmetic spin structure: n even and B_{p,oo} without a pure unit,
    which is p = 1 mod 4."""
    return n % 2 == 0 and p % 4 == 1


def _poly_mul_oracle(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim_oracle(tuple(out))


def identity_sides_oracle(p: int, n: int):
    """(lhs, rhs, holds, vacuous) of L(E, s) = L(rho_spin, s/2)^2, each side
    a trimmed (num, den), built as verify_identity_exact built them in Q(T)
    algebra: the lhs is Z(H^1) = (1 - beta T + q T^2)/1 turned over, and the
    rhs is 1/(1 - z^2 U) = b/(b - a U) times itself, for z^2 = a/b read off
    spinstruct's lift (tau when there is no structure).  holds asks z^2 to
    be rational and the sides to cross-multiply to one polynomial."""
    c = spinstruct.spinorial_class(p, n)
    num, den = (1, -c.beta, c.q), (1,)  # Z(H^1)
    lhs = (_trim_oracle(den), _trim_oracle(num))
    S = spinstruct.construct_arithmetic_spin(p, n)
    if S is None:
        a, b, rational = -(p**n), 1, True
    else:
        z2 = spinstruct.spin_lift(spinstruct.similitude_rep(S)).z.square()
        a, b, rational = z2.cn, z2.den, z2.is_rational()
    half = ((b,), (b, -a))
    rhs = (_poly_mul_oracle(half[0], half[0]), _poly_mul_oracle(half[1], half[1]))
    equal = _poly_mul_oracle(lhs[0], rhs[1]) == _poly_mul_oracle(rhs[0], lhs[1])
    return lhs, rhs, rational and equal, S is None


def _valuation_oracle(r: Fraction, p: int) -> int:
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def realizations_oracle(lift, ell: int | None = None) -> dict:
    """The seven RealizationData fields of a spin lift, by the formulas
    realizations used before it read one valuation: |z|^2 = c^2 - delta d^2
    from z's Fraction coordinates, the weight v_p(|z|^2)/v_p(q), and
    v_p(phi^2) = v_p(tau), from Fraction(tau), for the slope v_p(phi^2)/(2 v_p(q))."""
    c = lift.rep.structure.curve_class
    tau, z = lift.rep.tau, lift.z
    eigen_abs_sq = z.c * z.c - z.ring.delta * z.d * z.d
    v_phi_sq = _valuation_oracle(Fraction(tau), c.p)
    return {
        "ell": ell if ell is not None else 2 if c.p != 2 else 3,
        "eigen_abs_sq": eigen_abs_sq,
        "weight": Fraction(_valuation_oracle(eigen_abs_sq, c.p), c.a),
        "crystal_frobenius": tau,
        "v_p_phi_squared": v_phi_sq,
        "v_p_q": c.a,
        "normalized_slope": Fraction(v_phi_sq, 2 * c.a),
    }
