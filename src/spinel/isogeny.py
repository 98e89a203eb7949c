"""Isogeny classes of elliptic curves over F_q by trace of Frobenius.

Classes over F_q, q = p^a, biject with the admissible traces beta:

  1. gcd(beta, p) = 1 and beta^2 <= 4q                      (ordinary)
  2. p | beta, in exactly one of:
     (a) a even, beta = +-2*p^(a/2)
     (b) a even, p not 1 mod 3, beta = +-p^(a/2)
     (c) a odd, p in {2, 3}, beta = +-p^((a+1)/2)
     (d) a odd, beta = 0
     (e) a even, p not 1 mod 4, beta = 0

Case 1 has commutative CM endomorphisms; the supersingular cases 2 all have
imaginary-quadratic endomorphism algebra over F_q except 2(a), where the
endomorphism algebra is the quaternion algebra B_{p,oo} and Frobenius is
the rational scalar tau = beta/2 = +-p^(a/2).  Those are the spinorial
classes: the only ones whose Frobenius lands in the similitude group of an
orthogonal involution on B_{p,oo}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import check_power, is_prime_named
from .errors import BoundExceeded, NotInClassList, NotPrime, NotSpinorial

KIND_ORDINARY = "ordinary"
KIND_SUPERSINGULAR = "supersingular"
ENDO_CM = "imaginary-quadratic"
ENDO_QUATERNION = "quaternion"

#: refuse to enumerate classes over F_q when the trace scan 2*isqrt(4q) + 1
#: exceeds this many traces
MAX_TRACE_SCAN = 10**5


def _case(p: int, a: int, beta: int) -> str | None:
    """Which clause of the classification admits (p, a, beta), if any."""
    q = p**a
    if beta * beta > 4 * q:
        return None
    if gcd(beta, p) == 1:
        return "1"
    # now p | beta (including beta = 0)
    r = p ** (a // 2) if a % 2 == 0 else None
    if a % 2 == 0:
        if beta in (2 * r, -2 * r):
            return "2a"
        if p % 3 != 1 and beta in (r, -r):
            return "2b"
        if p % 4 != 1 and beta == 0:
            return "2e"
        return None
    s = p ** ((a + 1) // 2)
    if p in (2, 3) and beta in (s, -s):
        return "2c"
    if beta == 0:
        return "2d"
    return None


@dataclass(frozen=True)
class IsogenyClass:
    """One isogeny class over F_{p^a}, tagged by its trace beta."""

    p: int
    a: int
    beta: int
    kind: str
    endo: str

    @property
    def q(self) -> int:
        return self.p**self.a

    def is_spinorial(self) -> bool:
        """Quaternionic endomorphisms, i.e. case 2(a): beta = +-2*p^(a/2)."""
        return self.endo == ENDO_QUATERNION

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "beta": self.beta,
            "kind": self.kind,
            "endo": self.endo,
            "spinorial": self.is_spinorial(),
        }

    def __str__(self) -> str:
        return f"beta={self.beta} over F_{self.q} ({self.kind}, {self.endo})"


def _check_field(p: int, a: int) -> None:
    if not is_prime_named(p, "p = "):
        raise NotPrime(f"{p} is not prime")
    if a < 1:
        raise ValueError("a must be positive")
    check_power(p, a)


def _record(p: int, a: int, beta: int, case: str) -> IsogenyClass:
    if case == "1":
        return IsogenyClass(p, a, beta, KIND_ORDINARY, ENDO_CM)
    endo = ENDO_QUATERNION if case == "2a" else ENDO_CM
    return IsogenyClass(p, a, beta, KIND_SUPERSINGULAR, endo)


def isogeny_class(p: int, a: int, beta: int) -> IsogenyClass:
    """Validated class record for trace beta over F_{p^a}."""
    _check_field(p, a)
    case = _case(p, a, beta)
    if case is None:
        raise NotInClassList(f"beta = {beta} is not admissible over F_{p**a}")
    return _record(p, a, beta, case)


def enumerate_classes(p: int, a: int) -> list[IsogenyClass]:
    """All isogeny classes over F_{p^a}, ordered by trace.

    Raises BoundExceeded before scanning if the trace scan |beta| <= 2 sqrt(q)
    exceeds MAX_TRACE_SCAN traces.
    """
    _check_field(p, a)
    bmax = isqrt(4 * p**a)
    size = 2 * bmax + 1
    if size > MAX_TRACE_SCAN:
        raise BoundExceeded(
            f"isogeny classes over F_q, q = {p}^{a}: the trace scan covers {size} "
            f"traces, over the limit {MAX_TRACE_SCAN}"
        )
    cases = ((beta, _case(p, a, beta)) for beta in range(-bmax, bmax + 1))
    return [_record(p, a, beta, case) for beta, case in cases if case is not None]


def frobenius_scalar(c: IsogenyClass) -> int:
    """tau = beta/2 = +-p^(a/2) for a spinorial class: Frobenius as a scalar.

    Central in B_{p,oo}, with tau^2 = q, so as a similitude its multiplier
    equals its reduced norm q.
    """
    if not c.is_spinorial():
        raise NotSpinorial(f"{c} has no rational Frobenius scalar")
    return c.beta // 2
