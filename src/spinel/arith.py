"""Rational arithmetic helpers: factorization, square classes, local symbols.

Everything works over Q with exact answers.  Places of Q are either a prime
p or the archimedean place, written OO.  Square classes in Q*/Q*^2 are
represented by their canonical squarefree integer; `squarefree_part` is the
only constructor and all discriminant comparisons go through it.

Primality and factoring trial-divide by the primes below 1024 and hand
what is left to deterministic Miller-Rabin (the first 13 prime bases, exact
below PRIMALITY_BOUND) and Pollard-Brent rho (Brent 1980, "An improved Monte
Carlo factorization algorithm").  Factoring bounds the one step whose cost
grows with size, the composite cofactor that rho must split; a bound
failure is a hard error rather than a silent partial answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, count
from typing import Iterable, Union

from .errors import BoundExceeded, NotPrime, ZeroInput

#: archimedean place marker; primes are plain ints
OO = "oo"

Place = Union[int, str]
Rat = Union[int, Fraction]

#: bound on a composite cofactor that Pollard-Brent rho must split
DEFAULT_FACTOR_BOUND = 2**48

#: trial divisors; below _TRIAL_LIMIT a number with none of them as a factor is 1 or prime
_SMALL_PRIMES = tuple(
    p for p in range(2, 1024) if all(p % d for d in range(2, math.isqrt(p) + 1))
)
_TRIAL_LIMIT = 1024**2

#: Miller-Rabin bases; PRIMALITY_BOUND is the least strong pseudoprime to all of them
_MR_BASES = _SMALL_PRIMES[:13]
PRIMALITY_BOUND = 3317044064679887385961981

#: refuse an exact power of p (q = p^a, p^n, q^e) at or above 2^MAX_POWER_BITS
MAX_POWER_BITS = 4096


def check_power(p: int, k: int) -> None:
    """Raise BoundExceeded if p^k >= 2^MAX_POWER_BITS, for p >= 2 and k >= 0.

    p^k >= 2^(k (bitlen(p) - 1)), so a far larger power is refused without
    computing it, and one that is computed has under 2 MAX_POWER_BITS bits.
    """
    if k < 0:
        raise ValueError(f"exponent k = {k} of {p}^k must be >= 0")
    if k * (p.bit_length() - 1) >= MAX_POWER_BITS or (p**k).bit_length() > MAX_POWER_BITS:
        raise BoundExceeded(f"{p}^{k} is at or above 2^{MAX_POWER_BITS}, the exact power limit")


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in _MR_BASES, for odd n >= _TRIAL_LIMIT.

    Raises BoundExceeded at or above PRIMALITY_BOUND, where the fixed bases
    stop being a proof.
    """
    if n >= PRIMALITY_BOUND:
        raise BoundExceeded(f"{n} exceeds primality bound {PRIMALITY_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality: trial division below 1024, then Miller-Rabin.

    Raises BoundExceeded when n has no prime factor below 1024 and is at
    least PRIMALITY_BOUND, where the fixed bases stop being a proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return n < _TRIAL_LIMIT or _strong_probable_prime(n)


def is_prime_named(n: int, name: str) -> bool:
    """is_prime(n) for an argument: a BoundExceeded detail starts with the
    argument, name then n, so name "p = " gives "p = n: n exceeds ..."."""
    try:
        return is_prime(n)
    except BoundExceeded as exc:
        raise BoundExceeded(f"{name}{n}: {exc}") from None


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n, by Pollard-Brent rho.

    Iterates x -> x^2 + c from 2, batching 128 differences per gcd, and
    steps c on the rare cycle that yields only n itself.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _large_prime_factors(m: int, n: int) -> list[int]:
    """Prime factors, with multiplicity, of m > 1 with no prime factor below 1024.

    Below 1024^2 such an m is prime; above it m is certified prime by
    Miller-Rabin, or split by rho when it is composite and at most
    DEFAULT_FACTOR_BOUND.  n is the integer m was left of, for the errors.
    """
    if m < _TRIAL_LIMIT or _strong_probable_prime(m):
        return [m]
    if m > DEFAULT_FACTOR_BOUND:
        raise BoundExceeded(
            f"{n} leaves the composite cofactor {m}, above factor bound {DEFAULT_FACTOR_BOUND}"
        )
    d = _rho_divisor(m)
    return _large_prime_factors(d, n) + _large_prime_factors(m // d, n)


def _factorable(n: int) -> int:
    """|n|, after refusing 0."""
    if n == 0:
        raise ZeroInput("cannot factor 0")
    return abs(n)


def factorize(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as sign * prod p^e, primes ascending.

    Trial division by the primes below 1024 stops once p^2 exceeds the
    cofactor, which is then 1 or prime.  A cofactor past them all is prime
    below 1024^2, and is otherwise certified prime by Miller-Rabin or split
    by Pollard-Brent rho, so every listed p is certified prime.  Raises
    ZeroInput on 0, and BoundExceeded on a cofactor at or above
    PRIMALITY_BOUND or on a composite cofactor above DEFAULT_FACTOR_BOUND,
    the one that rho would have to split.
    """
    return (-1 if n < 0 else 1), _prime_factors(_factorable(n), n)


def _prime_factors(m: int, n: int) -> dict[int, int]:
    """factorize's exponents of m >= 1, a divisor of n; the errors name n."""
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            factors[p] = factors.get(p, 0) + 1
    if m > 1:
        for p in sorted(_large_prime_factors(m, n)):
            factors[p] = factors.get(p, 0) + 1
    return factors


def squarefree_part(r: Rat) -> int:
    """Canonical representative of r in Q*/Q*^2: the squarefree integer.

    For r = n/d this is the squarefree part of n*d, sign included, so the
    result is invariant under multiplying r by any nonzero rational square.
    """
    r = _as_fraction(r)
    if r == 0:
        raise ZeroInput("0 has no square class")
    sign, factors = factorize(r.numerator * r.denominator)
    out = sign
    for p, e in factors.items():
        if e % 2:
            out *= p
    return out


def valuation(r: Rat, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    r = _as_fraction(r)
    if r == 0:
        raise ZeroInput("0 has no finite valuation")
    return _unit_part(r.numerator, p)[0] - _unit_part(r.denominator, p)[0]


def _unit_part(n: int, p: int) -> tuple[int, int]:
    """Write n = p^v * u and return (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _eps2(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return (u % 4 - 1) // 2 % 2


def _omega2(u: int) -> int:
    # (u^2 - 1)/8 mod 2 for odd u
    return 1 if u % 8 in (3, 5) else 0


def _unit_class(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), class of the unit part u of n) for a nonzero integer n.

    The class is u mod 8 at p = 2 and the Legendre symbol (u/p) = +-1 at an
    odd prime p.  Either way classes multiply mod 8, and a unit is a square
    in Q_p exactly when its class is 1 mod 8.
    """
    alpha, u = _unit_part(n, p)
    if p == 2:
        return alpha, u % 8
    return alpha, 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _prime_symbol(x: tuple[int, int], y: tuple[int, int], p: int) -> int:
    """(a,b)_p from x = _unit_class(a, p) and y = _unit_class(b, p).

    Closed forms: at an odd p in terms of valuations and Legendre symbols,
    at 2 via the unit characters eps and omega.
    """
    (alpha, u), (beta, w) = x, y
    if p == 2:
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e % 2 else 1
    s = -1 if alpha % 2 and beta % 2 and (p - 1) // 2 % 2 else 1
    if beta % 2:
        s *= u
    if alpha % 2:
        s *= w
    return s


def _check_place(v: Place) -> None:
    if v != OO and (not isinstance(v, int) or not is_prime_named(v, "place ")):
        raise NotPrime(f"{v!r} is not a prime or {OO!r}")


def integer_symbol(m: int, n: int, v: Place) -> int:
    """Hilbert symbol (m,n)_v of nonzero integers at OO or a certified prime v.

    v is not proved prime here: it must come from `places` or have passed
    the public `hilbert_symbol`'s check.  At OO it goes by signs.
    """
    if v == OO:
        return -1 if (m < 0 and n < 0) else 1
    return _prime_symbol(_unit_class(m, v), _unit_class(n, v), v)


def hilbert_symbol(a: Rat, b: Rat, v: Place) -> int:
    """Hilbert symbol (a,b)_v in {+1,-1}.

    +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the completion
    at v.  a and b are replaced by the integers num * den in their square
    classes, and v is proved prime first.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("hilbert symbol needs nonzero arguments")
    _check_place(v)
    return integer_symbol(a.numerator * a.denominator, b.numerator * b.denominator, v)


def _finite_places(ints: Iterable[int]) -> set[int]:
    """2 and the primes dividing any of the integers, each found by `factorize` once.

    Each integer is checked against 0 as given, then stripped of the primes
    already in the set, 2 included, and only what is left is factored: an
    integer whose odd primes all came earlier costs no factoring.  An error
    names the integer as given, with what was left of it.
    """
    primes = {2}
    for n in ints:
        m = _factorable(n)
        for p in primes:
            while m % p == 0:
                m //= p
        if m > 1:
            primes.update(_prime_factors(m, n))
    return primes


def places(*values: Rat) -> list[Place]:
    """OO, 2 and the odd primes of every numerator and denominator, sorted.

    The integers are factored in turn, each only as far as the primes found
    before it leave it (`_finite_places`), so a product of earlier values
    costs no factoring; the errors are `factorize`'s, naming the integer
    as given and the cofactor left of it.  Each prime is certified here
    once, so the per-place code need not prove it again.  Every other place
    is an odd prime at which all the values are units, so Hilbert symbols
    and the isotropy of diagonal forms built from them are trivial there.
    """
    primes = _finite_places(n for x in values for n in (x.numerator, x.denominator))
    return [OO, *sorted(primes)]


def _quaternary_isotropic_at(ints: tuple[int, ...], v: Place) -> bool:
    """Isotropy over Q_v of the diagonal form <c1,c2,c3,c4>, v = OO or a prime.

    `ints` holds the nonzero square-class integers (numerator * denominator)
    of the ci.  The form is anisotropic at v exactly when its discriminant
    d = c1*c2*c3*c4 is a square in Q_v and the Hasse invariant
    eps = prod_{i<j} (ci,cj)_v differs from (-1,-1)_v.  At a prime each ci
    is reduced to its unit class once, and every symbol is read off those.
    """
    if v == OO:
        # d > 0 and eps != (-1,-1) = -1 leave only the definite forms
        return 0 < sum(c < 0 for c in ints) < 4
    classes = [_unit_class(c, v) for c in ints]
    if sum(alpha for alpha, _ in classes) % 2 or math.prod(u for _, u in classes) % 8 != 1:
        return True  # d is not a square in Q_v
    eps = math.prod(_prime_symbol(x, y, v) for x, y in combinations(classes, 2))
    minus_one = _unit_class(-1, v)
    return eps == _prime_symbol(minus_one, minus_one, v)


def ternary_represents(coeffs: tuple[Rat, Rat, Rat], t: Rat) -> bool:
    """Does a1*x^2 + a2*y^2 + a3*z^2 represent t over Q?

    Equivalent to isotropy of <-t, a1, a2, a3>, decided locally at `places`;
    everywhere else the quaternary form is unimodular at an odd prime, hence
    isotropic.  Stops at the first anisotropic place.
    """
    cs = tuple(_as_fraction(c) for c in coeffs)
    t = _as_fraction(t)
    if t == 0 or any(c == 0 for c in cs):
        raise ZeroInput("coefficients and target must be nonzero")
    quad = (-t,) + cs
    ints = tuple(c.numerator * c.denominator for c in quad)
    return all(_quaternary_isotropic_at(ints, v) for v in places(*quad))
