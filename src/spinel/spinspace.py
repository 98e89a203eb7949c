"""Orthogonal involutions on quaternion algebras and their even Clifford data.

An orthogonal involution on B is sigma = int(u) o gamma with u pure and
invertible, determined by u up to a nonzero rational scalar.  Its
discriminant is the square class

    disc(sigma) = -Nrd(u)  in  Q*/Q*^2,

and involutions on a fixed B are isomorphic iff their discriminants agree.
The even Clifford algebra of (B, sigma) is the quadratic etale algebra
K = Q[x]/(x^2 - delta) with delta = disc(sigma).  The similitude groups sit
in the Kummer square

    1 -> mu_2 -> GSpin = Res_{K/Q} Gm --z -> z^2--> GO+ = K* -> K*/K*^2,

so an element t of GO+(Q) lifts to GSpin(Q) iff t is a square in K; the
connecting map sends t to its class in K*/K*^2.  The spin chain lifts only
the Frobenius scalar, a rational t, and t is a square in K iff t or
t/delta is a square in Q (QuadraticEtale.sqrt_rational).  The groups are
not objects here: the only similitude the chain meets is the rational
scalar tau, proper for every sigma since sigma(tau)tau = tau^2 = Nrd(tau),
and the cover is covering_map.

K is only the target of the lift, so it carries no ring arithmetic.  The
root of a rational t is z = c or z = d*x, and an EtaleElement c + d*x has
just what the chain asks of z: its square (z^2 = tau, covering_map) and
its norm (|z|^2 = p^n).  The other lift is -z = -c - d*x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

from .arith import Rat, _as_fraction, squarefree_part
from .errors import (
    AlgebraMismatch,
    DeltaMismatch,
    NotInvertible,
    NotPure,
    NotUnit,
    ZeroInput,
)
from .quat import Quaternion, QuaternionAlgebra


@dataclass(frozen=True)
class QuadraticEtale:
    """K = Q[x]/(x^2 - delta) with delta the canonical squarefree representative.

    A field when delta != 1, split (Q x Q with zero divisors) when delta = 1.
    """

    delta: int

    def __post_init__(self):
        if self.delta == 0:
            raise ZeroInput("delta must be nonzero")
        if squarefree_part(self.delta) != self.delta:
            raise DeltaMismatch(f"{self.delta} is not squarefree")

    def element(self, c: Rat, d: Rat = 0) -> "EtaleElement":
        c, d = _as_fraction(c), _as_fraction(d)
        cd, dd = c.denominator, d.denominator
        return EtaleElement(self, c.numerator * dd, d.numerator * cd, cd * dd)

    def sqrt_rational(self, t: Rat) -> Optional["EtaleElement"]:
        """A square root in K of a nonzero rational t, or None.

        t is a square in K iff t or t/delta is a square in Q, both tested on
        t's integer numerator and denominator.  The root returned has c > 0,
        or d > 0 when it is d*x; the other root is its negative.
        """
        if not isinstance(t, int):
            t = _as_fraction(t)  # a Fraction as it is; anything else raises TypeError
        num, den = t.numerator, t.denominator
        if num == 0:
            raise ZeroInput("0 has the trivial root")
        # n/d in lowest terms, d > 0, is a square iff n > 0 and both are; t/delta is
        # (num/g)/(den*delta/g), in lowest terms as delta is squarefree (g has delta's sign)
        g = gcd(num, self.delta) if self.delta > 0 else -gcd(num, self.delta)
        for n, d, x in ((num, den, 0), (num // g, den * self.delta // g, 1)):
            if n > 0:
                a, b = isqrt(n), isqrt(d)
                if a * a == n and b * b == d:
                    return EtaleElement(self, (1 - x) * a, x * a, b)
        return None

    def __str__(self) -> str:
        return f"Q[x]/(x^2 - ({self.delta}))"


@dataclass(frozen=True)
class EtaleElement:
    """(cn + dn*x)/den in a fixed QuadraticEtale ring.

    Stored in lowest terms with den > 0, so equal elements have equal
    fields; c and d are the rational coordinates.
    """

    ring: QuadraticEtale
    cn: int
    dn: int
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("etale element with denominator 0")
        g = gcd(self.cn, self.dn, self.den)
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "cn", self.cn // g)
            object.__setattr__(self, "dn", self.dn // g)
            object.__setattr__(self, "den", self.den // g)

    c = property(lambda self: Fraction(self.cn, self.den))
    d = property(lambda self: Fraction(self.dn, self.den))

    def norm(self) -> Fraction:
        """N_{K/Q}(z) = c^2 - delta*d^2."""
        cn, dn = self.cn, self.dn
        return Fraction(cn * cn - self.ring.delta * dn * dn, self.den * self.den)

    def is_unit(self) -> bool:
        return self.cn * self.cn != self.ring.delta * self.dn * self.dn

    def is_rational(self) -> bool:
        return self.dn == 0

    def square(self) -> "EtaleElement":
        """(c + d*x)^2 = (c^2 + delta*d^2) + 2cd*x."""
        cn, dn = self.cn, self.dn
        return EtaleElement(
            self.ring, cn * cn + self.ring.delta * dn * dn, 2 * cn * dn, self.den * self.den
        )

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.c)
        if abs(self.d) == 1:
            xterm = "x" if self.d > 0 else "-x"
        else:
            xterm = f"{self.d}*x"
        if self.c == 0:
            return xterm
        sign = "+" if not xterm.startswith("-") else ""
        return f"{self.c}{sign}{xterm}"


def _normalize_pure(u: Quaternion) -> Quaternion:
    """Scale u to primitive integer coordinates with positive first nonzero one."""
    nums = u.nums[1:]
    g = gcd(*nums)
    if next(n for n in nums if n != 0) < 0:
        g = -g
    return Quaternion(u.algebra, (0, *(n // g for n in nums)))


@dataclass(frozen=True)
class OrthogonalInvolution:
    """sigma = int(u) o gamma for a pure invertible u, up to scaling of u.

    u is stored in its canonical scaling (primitive integer coordinates,
    first nonzero one positive), so dataclass equality is equality of
    involutions.
    """

    algebra: QuaternionAlgebra
    u: Quaternion
    _disc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.u.algebra != self.algebra:
            raise AlgebraMismatch("u must live in the declared algebra")
        if not self.u.is_pure():
            raise NotPure(f"u = {self.u} is not pure (Trd != 0)")
        if self.u.reduced_norm() == 0:
            raise NotInvertible(f"u = {self.u} has reduced norm 0")
        object.__setattr__(self, "u", _normalize_pure(self.u))
        object.__setattr__(self, "_disc", squarefree_part(-self.u.reduced_norm()))

    def apply(self, x: Quaternion) -> Quaternion:
        """sigma(x) = u * gamma(x) * u^-1."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("x lives in a different algebra")
        return self.u * x.conjugate() * self.u.inverse()

    def discriminant(self) -> int:
        """disc(sigma) = -Nrd(u) as a canonical squarefree integer.

        Invariant under rescaling u since Nrd is multiplicative and scalars
        have square norm; computed once, from the canonical u.
        """
        return self._disc

    def is_isomorphic_to(self, other: "OrthogonalInvolution") -> bool:
        """Isomorphism of involutions on the same algebra = equal discriminants."""
        if self.algebra != other.algebra:
            raise AlgebraMismatch("involutions live on different algebras")
        return self.discriminant() == other.discriminant()

    def clifford_algebra(self) -> QuadraticEtale:
        """The even Clifford algebra K = Q[x]/(x^2 - disc(sigma))."""
        return QuadraticEtale(self.discriminant())

    def __str__(self) -> str:
        return f"int({self.u}) o gamma on {self.algebra}"


def covering_map(z: EtaleElement) -> EtaleElement:
    """GSpin -> GO+ under the identifications above: z -> z^2.

    Defined on units of K; 2:1 onto its image with kernel {+1,-1} on
    rational points when K is a field.
    """
    if not z.is_unit():
        raise NotUnit(f"{z} is not a unit of {z.ring}")
    return z.square()

