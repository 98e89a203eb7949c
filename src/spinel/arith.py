"""Rational arithmetic helpers: factorization, square classes, local symbols.

Everything works over Q with exact answers.  Places of Q are either a prime
p or the archimedean place, written OO.  Square classes in Q*/Q*^2 are
represented by their canonical squarefree integer; `squarefree_part` is the
only constructor and all discriminant comparisons go through it.

Factorization is plain trial division with a hard input bound.  Inputs here
are desk scale (discriminants, traces, small norms), so there is no need for
anything faster, and a bound failure is a hard error rather than a silent
partial answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

from .errors import BoundExceeded, NotOddPrime, NotPrime, ZeroInput

#: archimedean place marker; primes are plain ints
OO = "oo"

Place = Union[int, str]
Rat = Union[int, Fraction]

#: default trial-division bound on |n|
DEFAULT_FACTOR_BOUND = 2**48


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as sign * prod p^e by trial division.

    Returns (sign, {p: e}).  Every listed p is certified prime: once trial
    division passes sqrt of the remaining cofactor, that cofactor is prime.
    Raises ZeroInput on 0 and BoundExceeded when |n| exceeds
    DEFAULT_FACTOR_BOUND.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    if m > DEFAULT_FACTOR_BOUND:
        raise BoundExceeded(f"|{n}| exceeds trial-division bound {DEFAULT_FACTOR_BOUND}")
    factors: dict[int, int] = {}
    for d in (2, 3):
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
    d = 5
    # 6k +- 1 wheel
    while d * d <= m:
        for step in (d, d + 2):
            while m % step == 0:
                factors[step] = factors.get(step, 0) + 1
                m //= step
        d += 6
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return sign, factors


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


def legendre(a: Rat, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if not (is_prime(p) and p % 2 == 1):
        raise NotOddPrime(f"{p} is not an odd prime")
    a = _as_fraction(a)
    if a.denominator % p == 0:
        raise ZeroInput(f"{a} is not a p-integer at {p}")
    num = a.numerator * pow(a.denominator, -1, p) % p
    if num == 0:
        return 0
    s = pow(num, (p - 1) // 2, p)
    return 1 if s == 1 else -1


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


def hilbert_symbol(a: Rat, b: Rat, v: Place) -> int:
    """Hilbert symbol (a,b)_v in {+1,-1}.

    +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the completion
    at v.  Closed forms: at an odd p in terms of valuations and Legendre
    symbols, at 2 via the unit characters eps and omega, at OO by signs.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("hilbert symbol needs nonzero arguments")
    if v == OO:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(v, int) or not is_prime(v):
        raise NotPrime(f"{v!r} is not a prime or {OO!r}")
    p = v
    # replace by integers in the same square classes
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    alpha, u = _unit_part(ai, p)
    beta, w = _unit_part(bi, p)
    if p == 2:
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        s = -s
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(w, p)
    return s


def is_local_square(r: Rat, v: Place) -> bool:
    """Is r a square in the completion of Q at v?"""
    r = _as_fraction(r)
    if r == 0:
        raise ZeroInput("square class of 0 is undefined")
    if v == OO:
        return r > 0
    if not isinstance(v, int) or not is_prime(v):
        raise NotPrime(f"{v!r} is not a prime or {OO!r}")
    p = v
    k = valuation(r, p)
    if k % 2:
        return False
    u = r / Fraction(p) ** k
    if p == 2:
        # u = n/d with n, d odd; d^2 = 1 mod 8 so u = n*d mod 8
        return (u.numerator * u.denominator) % 8 == 1
    return legendre(u, p) == 1


def places(*values: Rat) -> list[Place]:
    """OO, 2 and the odd primes of every numerator and denominator, sorted.

    Every other place is an odd prime at which all the values are units, so
    Hilbert symbols and the isotropy of diagonal forms built from them are
    trivial there.
    """
    primes = {2}
    for x in values:
        for n in (x.numerator, x.denominator):
            primes.update(factorize(n)[1])
    return [OO, *sorted(primes)]


def _quaternary_isotropic_at(coeffs: tuple[Fraction, ...], v: Place) -> bool:
    """Isotropy of a nondegenerate diagonal quaternary form over Q_v.

    The form <a1,a2,a3,a4> is anisotropic at v exactly when its discriminant
    d = a1*a2*a3*a4 is a square in Q_v and the Hasse invariant
    eps = prod_{i<j} (ai,aj)_v differs from (-1,-1)_v.  The same criterion
    covers v = OO (d square there means positive).
    """
    d = math.prod(coeffs, start=Fraction(1))
    if not is_local_square(d, v):
        return True
    eps = 1
    for i in range(4):
        for j in range(i + 1, 4):
            eps *= hilbert_symbol(coeffs[i], coeffs[j], v)
    return eps == hilbert_symbol(-1, -1, v)


def _anisotropic_places(coeffs: tuple[Rat, Rat, Rat], t: Rat) -> Iterator[Place]:
    """Places where <-t, a1, a2, a3> is anisotropic, in `places` order."""
    cs = tuple(_as_fraction(c) for c in coeffs)
    t = _as_fraction(t)
    if t == 0 or any(c == 0 for c in cs):
        raise ZeroInput("coefficients and target must be nonzero")
    quad = (-t,) + cs
    return (v for v in places(*quad) if not _quaternary_isotropic_at(quad, v))


def ternary_represents(coeffs: tuple[Rat, Rat, Rat], t: Rat) -> bool:
    """Does a1*x^2 + a2*y^2 + a3*z^2 represent t over Q?

    Equivalent to isotropy of <-t, a1, a2, a3>, decided locally at `places`;
    everywhere else the quaternary form is unimodular at an odd prime, hence
    isotropic.  Stops at the first anisotropic place.
    """
    return next(_anisotropic_places(coeffs, t), None) is None


def local_obstructions(coeffs: tuple[Rat, Rat, Rat], t: Rat) -> list[Place]:
    """Places where <-t, a1, a2, a3> is anisotropic (empty iff represented)."""
    return list(_anisotropic_places(coeffs, t))
