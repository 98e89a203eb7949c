"""Rational quaternion algebras B = (a,b / Q) with exact arithmetic.

Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji, so k^2 = -ab.  The
canonical symplectic involution gamma fixes 1 and negates i, j, k; reduced
norm and trace are Nrd(x) = x*gamma(x) and Trd(x) = x + gamma(x), giving

    Nrd(x) = x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2,   Trd(x) = 2*x0.

B is division iff its set of ramified places is nonempty, and that set is
always finite of even cardinality by the product formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Iterator, Optional

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

#: primes kept by each per-p memo (b_p_infty, and spinstruct's norm-1 bit
#: and norm-1 witnesses); the least recently used prime is dropped first
MEMO_PRIMES = 128


@dataclass(frozen=True)
class QuaternionAlgebra:
    """The quaternion algebra (a,b / Q)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ZeroInput("structure constants must be nonzero")

    def element(self, x0: Rat, x1: Rat = 0, x2: Rat = 0, x3: Rat = 0) -> "Quaternion":
        return Quaternion(self, Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))

    def scalar(self, c: Rat) -> "Quaternion":
        return self.element(c)

    @property
    def one(self) -> "Quaternion":
        return self.element(1)

    @property
    def i(self) -> "Quaternion":
        return self.element(0, 1)

    @property
    def j(self) -> "Quaternion":
        return self.element(0, 0, 1)

    @property
    def k(self) -> "Quaternion":
        return self.element(0, 0, 0, 1)

    def ramified_places(self) -> frozenset[Place]:
        return ramified_places(self)

    def is_division(self) -> bool:
        return bool(self.ramified_places())

    def pure_norm_coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        """Diagonal coefficients of Nrd restricted to pure quaternions."""
        return (-self.a, -self.b, self.a * self.b)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    def __str__(self) -> str:
        return f"({self.a},{self.b} | Q)"


@dataclass(frozen=True)
class Quaternion:
    """An element x0 + x1*i + x2*j + x3*k of a fixed QuaternionAlgebra."""

    algebra: QuaternionAlgebra
    x0: Fraction
    x1: Fraction
    x2: Fraction
    x3: Fraction

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def _same(self, other: "Quaternion") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other):
        if isinstance(other, Quaternion):
            self._same(other)
            return Quaternion(
                self.algebra,
                self.x0 + other.x0,
                self.x1 + other.x1,
                self.x2 + other.x2,
                self.x3 + other.x3,
            )
        if isinstance(other, (int, Fraction)):
            return self + self.algebra.scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(self.algebra, -self.x0, -self.x1, -self.x2, -self.x3)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Quaternion) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Quaternion(
                self.algebra, c * self.x0, c * self.x1, c * self.x2, c * self.x3
            )
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._same(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords()
        y0, y1, y2, y3 = other.coords()
        return Quaternion(
            self.algebra,
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / c)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.algebra.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Quaternion":
        """Canonical symplectic involution gamma: negates the pure part."""
        return Quaternion(self.algebra, self.x0, -self.x1, -self.x2, -self.x3)

    def reduced_norm(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords()
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def reduced_trace(self) -> Fraction:
        return 2 * self.x0

    def inverse(self) -> "Quaternion":
        """gamma(x)/Nrd(x); in a division algebra every nonzero x qualifies."""
        n = self.reduced_norm()
        if n == 0:
            raise NotInvertible(f"{self} has reduced norm 0")
        return self.conjugate() * (1 / n)

    def is_scalar(self) -> bool:
        return self.x1 == 0 and self.x2 == 0 and self.x3 == 0

    def is_pure(self) -> bool:
        """Trd = 0, i.e. no scalar component."""
        return self.x0 == 0

    def scalar_part(self) -> Fraction:
        return self.x0

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
    other odd prime both entries are units and the symbol is +1.
    """
    return frozenset(
        v for v in arith.places(B.a, B.b) if arith.hilbert_symbol(B.a, B.b, v) == -1
    )


@lru_cache(maxsize=MEMO_PRIMES)
def b_p_infty(p: int) -> QuaternionAlgebra:
    """The quaternion algebra ramified exactly at {p, OO}.

    Presentation: (-1,-1) for p = 2, otherwise (-a,-p) with the smallest
    positive integer a that works, certified by recomputing the ramified
    set.  Exhausting the scan would contradict the classification of
    quaternion algebras over Q, so that is a hard error.

    Memoised per p (the algebra is frozen); errors are raised on every call.
    """
    if not arith.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return QuaternionAlgebra(Fraction(-1), Fraction(-1))
    for a in range(1, _BPINF_SCAN_LIMIT):
        B = QuaternionAlgebra(Fraction(-a), Fraction(-p))
        if B.ramified_places() == frozenset({p, OO}):
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
    B: QuaternionAlgebra,
    m: Rat,
    bound: int = DEFAULT_SEARCH_BOUND,
    rng: random.Random | None = None,
) -> Optional[Quaternion]:
    """Search for a pure quaternion u with Nrd(u) = m, or None.

    Writes u = (w1*i + w2*j + w3*k)/d and scans denominators d <= bound and
    integer boxes of growing sup norm.  The default order is deterministic
    (d ascending, then sup norm, then component order), so witnesses are
    reproducible.  That plan of (d, shell) pairs is scanned lazily: a
    witness in the first shells costs the same at any bound, and only a
    miss walks the whole box.  Passing an rng materialises and shuffles the
    whole plan, O(bound^2) entries, before the scan, so rng callers should
    keep the bound small; the shuffle can only change which witness is
    returned, never whether one exists within the box.  When the
    restriction of Nrd to pure quaternions is definite, shells beyond
    sqrt(|m| d^2 / min coefficient) are skipped.

    None is advisory: it means no witness in the box, not nonexistence.
    Pair with `arith.ternary_represents` for an actual decision.
    """
    m = Fraction(m)
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

    def plan() -> Iterator[tuple[int, int]]:
        for d in range(1, bound + 1):
            smax = min(isqrt(m_scaled * d * d // cmin) + 1, bound) if definite else bound
            for s in range(smax + 1):
                yield d, s

    order: Iterable[tuple[int, int]] = plan()
    if rng is not None:
        order = list(order)
        rng.shuffle(order)
    for d, s in order:
        for w1, w2, w3 in _shell_candidates(c1, c2, c3, m_scaled * d * d, s):
            u = B.element(0, Fraction(w1, d), Fraction(w2, d), Fraction(w3, d))
            if u.reduced_norm() == m:
                return u
    return None
