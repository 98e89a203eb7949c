"""Rational quaternion algebras B = (a,b / Q) with exact arithmetic.

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji, so k^2 = -ab.  The
canonical symplectic involution gamma fixes 1 and negates i, j, k; reduced
norm and trace are Nrd(x) = x*gamma(x) and Trd(x) = x + gamma(x), giving

    Nrd(x) = x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2,   Trd(x) = 2*x0.

B is division iff its set of ramified places is nonempty, and that set is
always finite of even cardinality by the product formula.  Each algebra
keeps that set once `ramified_places` has computed it.

An element is four int numerators over one positive int denominator, in
lowest terms.  A product, norm or inverse is one int expression over the
common denominator of a, b and its factors, reduced by one gcd.  The
coordinates x0..x3, the text and the JSON are read off as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterator, Optional

from . import arith
from .arith import OO, Place, Rat
from .errors import (
    AlgebraMismatch,
    NotInvertible,
    NotPrime,
    SearchExhausted,
    ZeroInput,
)

#: default box bound for pure-quaternion norm searches
DEFAULT_SEARCH_BOUND = 50

#: how far b_p_infty will scan for the second symbol entry
_BPINF_SCAN_LIMIT = 10_000

#: primes kept by the one per-p memo, b_p_infty; the least recently used
#: prime is dropped first
MEMO_PRIMES = 128


@dataclass(frozen=True)
class QuaternionAlgebra:
    """The quaternion algebra (a,b / Q).

    With a = an/ad and b = bn/bd, `_ints` holds (ad bd, an bd, ad bn, an bn):
    the integers ad bd times 1, a, b and ab that products and norms use.
    `_ramified` keeps the ramified set once `ramified_places` has read it,
    and is None until then; neither takes part in equality or hashing.
    """

    a: Fraction
    b: Fraction
    _ints: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    _ramified: Optional[frozenset[Place]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        a, b = arith._as_fraction(self.a), arith._as_fraction(self.b)
        if a == 0 or b == 0:
            raise ZeroInput("structure constants must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        object.__setattr__(self, "_ints", (ad * bd, an * bd, ad * bn, an * bn))

    def element(self, x0: Rat, x1: Rat = 0, x2: Rat = 0, x3: Rat = 0) -> "Quaternion":
        xs = [arith._as_fraction(x) for x in (x0, x1, x2, x3)]
        den = lcm(*(x.denominator for x in xs))
        return Quaternion(self, tuple(x.numerator * (den // x.denominator) for x in xs), den)

    def pure_norm_coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        """Diagonal coefficients of Nrd restricted to pure quaternions."""
        return (-self.a, -self.b, self.a * self.b)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    def __str__(self) -> str:
        return f"({self.a},{self.b} | Q)"


@dataclass(frozen=True)
class Quaternion:
    """(n0 + n1*i + n2*j + n3*k)/den in a fixed QuaternionAlgebra.

    Stored in lowest terms with den > 0, so equal elements have equal
    fields; x0..x3 are the rational coordinates.
    """

    algebra: QuaternionAlgebra
    nums: tuple[int, int, int, int]
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("quaternion with denominator 0")
        g = gcd(*self.nums, self.den)
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "nums", tuple(n // g for n in self.nums))
            object.__setattr__(self, "den", self.den // g)

    x0 = property(lambda self: Fraction(self.nums[0], self.den))
    x1 = property(lambda self: Fraction(self.nums[1], self.den))
    x2 = property(lambda self: Fraction(self.nums[2], self.den))
    x3 = property(lambda self: Fraction(self.nums[3], self.den))

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _same(self, other: "Quaternion") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(f"{self.algebra} vs {other.algebra}")

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._same(other)
        d, a, b, ab = self.algebra._ints
        x0, x1, x2, x3 = self.nums
        y0, y1, y2, y3 = other.nums
        return Quaternion(
            self.algebra,
            (
                d * x0 * y0 + a * x1 * y1 + b * x2 * y2 - ab * x3 * y3,
                d * (x0 * y1 + x1 * y0) + b * (x3 * y2 - x2 * y3),
                d * (x0 * y2 + x2 * y0) + a * (x1 * y3 - x3 * y1),
                d * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1),
            ),
            d * self.den * other.den,
        )

    def conjugate(self) -> "Quaternion":
        """Canonical symplectic involution gamma: negates the pure part."""
        x0, x1, x2, x3 = self.nums
        return Quaternion(self.algebra, (x0, -x1, -x2, -x3), self.den)

    def _norm_numerator(self) -> int:
        """Nrd(x) times ad bd den^2, an int (see QuaternionAlgebra)."""
        d, a, b, ab = self.algebra._ints
        x0, x1, x2, x3 = self.nums
        return d * x0 * x0 - a * x1 * x1 - b * x2 * x2 + ab * x3 * x3

    def reduced_norm(self) -> Fraction:
        return Fraction(self._norm_numerator(), self.algebra._ints[0] * self.den * self.den)

    def inverse(self) -> "Quaternion":
        """gamma(x)/Nrd(x); in a division algebra every nonzero x qualifies."""
        n = self._norm_numerator()
        if n == 0:
            raise NotInvertible(f"{self} has reduced norm 0")
        s = self.algebra._ints[0] * self.den
        x0, x1, x2, x3 = self.nums
        return Quaternion(self.algebra, (s * x0, -s * x1, -s * x2, -s * x3), n)

    def is_pure(self) -> bool:
        """Trd = 0, i.e. no scalar component."""
        return self.nums[0] == 0

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords()]

    def __str__(self) -> str:
        parts = []
        for c, name in zip(self.coords(), ("", "i", "j", "k")):
            if c == 0:
                continue
            if name and abs(c) == 1:
                term = name if c > 0 else f"-{name}"
            else:
                term = f"{c}{'*' + name if name else ''}"
            parts.append(term if not parts or term.startswith("-") else f"+{term}")
        return "".join(parts) if parts else "0"


def ramified_places(B: QuaternionAlgebra) -> frozenset[Place]:
    """Places where B is division: finitely many, even in number.

    Only OO, 2 and the primes in the supports of a and b can ramify; at any
    other odd prime both entries are units and the symbol is +1.  Each
    symbol is read off the square-class integers num * den of a and b at a
    place that `places` has already certified.

    Computed on the first call for B and kept on B, so a later call, such
    as one on the memoised b_p_infty(p), factors nothing.
    """
    if B._ramified is None:
        m, n = (c.numerator * c.denominator for c in (B.a, B.b))
        ram = frozenset(v for v in arith.places(B.a, B.b) if arith.integer_symbol(m, n, v) == -1)
        object.__setattr__(B, "_ramified", ram)
    return B._ramified


@lru_cache(maxsize=MEMO_PRIMES)
def b_p_infty(p: int) -> QuaternionAlgebra:
    """The quaternion algebra ramified exactly at {p, OO}.

    Presentation: (-1,-1) for p = 2, otherwise (-a,-p) with the smallest
    positive integer a that works, certified by recomputing the ramified
    set.  Exhausting the scan would contradict the classification of
    quaternion algebras over Q, so that is a hard error.

    Memoised per p (the algebra is frozen), and the algebra keeps the
    ramified set that certified it; errors are raised on every call.
    """
    if not arith.is_prime_named(p, "p = "):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return QuaternionAlgebra(-1, -1)
    for a in range(1, _BPINF_SCAN_LIMIT):
        B = QuaternionAlgebra(-a, -p)
        if ramified_places(B) == frozenset({p, OO}):
            return B
    raise SearchExhausted(f"no (-a,-{p}) presentation with a < {_BPINF_SCAN_LIMIT}")


def _ordered_range(s: int) -> list[int]:
    # 0, 1, -1, 2, -2, ..., s, -s
    out = [0]
    for t in range(1, s + 1):
        out.extend((t, -t))
    return out


def _exact_sqrt(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _shell_candidates(
    c1: int, c2: int, c3: int, target: int, s: int
) -> Iterator[tuple[int, int, int]]:
    """Integer solutions of c1*x^2 + c2*y^2 + c3*z^2 = target with sup norm s.

    Iterates z, then y, over |.| <= s in the order 0, 1, -1, 2, -2, ... and
    solves for x, so the first hit matches a full lexicographic-by-magnitude
    box scan with x varying fastest.
    """
    rng = _ordered_range(s)
    for z in rng:
        for y in rng:
            rem = target - c2 * y * y - c3 * z * z
            q, r = divmod(rem, c1)
            if r != 0:
                continue
            root = _exact_sqrt(q)
            if root is None or root > s:
                continue
            if max(abs(y), abs(z), root) != s:
                continue
            yield (root, y, z)
            if root:
                yield (-root, y, z)


def find_pure_of_norm(
    B: QuaternionAlgebra, m: Rat, bound: int = DEFAULT_SEARCH_BOUND
) -> Optional[Quaternion]:
    """Search for a pure quaternion u with Nrd(u) = m, or None.

    Writes u = (w1*i + w2*j + w3*k)/d and scans denominators d <= bound and
    integer boxes of growing sup norm, in one fixed order (d ascending, then
    sup norm, then component order), so witnesses are reproducible.  The
    (d, shell) pairs are scanned as they come: a witness in the first
    shells costs the same at any bound, and only a miss walks the whole
    box.  When the restriction of Nrd to pure quaternions is definite,
    shells beyond sqrt(|m| d^2 / min coefficient) are skipped.

    None is advisory: it means no witness in the box, not nonexistence.
    Pair with `arith.ternary_represents` for an actual decision.
    """
    m = arith._as_fraction(m)
    cf1, cf2, cf3 = B.pure_norm_coefficients()
    definite = cf1 > 0 and cf2 > 0 and cf3 > 0
    if definite and m < 0:
        return None
    if m == 0:
        raise ZeroInput("use m != 0; 0 is represented trivially")
    # clear denominators once so the shell scan runs on plain ints
    scale = 1
    for c in (cf1, cf2, cf3, m):
        scale = lcm(scale, c.denominator)
    c1, c2, c3 = (int(c * scale) for c in (cf1, cf2, cf3))
    m_scaled = int(m * scale)
    cmin = min(c1, c2, c3)
    for d in range(1, bound + 1):
        smax = min(isqrt(m_scaled * d * d // cmin) + 1, bound) if definite else bound
        for s in range(smax + 1):
            for w1, w2, w3 in _shell_candidates(c1, c2, c3, m_scaled * d * d, s):
                u = Quaternion(B, (0, w1, w2, w3), d)
                if u.reduced_norm() == m:
                    return u
    return None
