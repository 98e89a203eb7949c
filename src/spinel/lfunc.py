"""Zeta and L-data for the spinorial classes and the weight-1/2 identity.

With q = p^(2n) and tau = -p^n, the spin representation has Frobenius
eigenvalues +-sqrt(tau), so its zeta function in T = q^(-s) collects into

    Z(rho_spin, T) = 1/((1 - sqrt(-p^n) T)(1 + sqrt(-p^n) T)) = 1/(1 + p^n T^2),

while H^1 of any curve in the class has both eigenvalues -p^n:

    Z(H^1, T) = (1 + p^n T)^2.

Hence L(E, s) = 1/(1 + q^(1/2 - s))^2 and L(rho_spin, s) = 1/(1 + q^(1/2 - 2s)),
and the half-substitution gives the exact identity

    L(E, s) = L(rho_spin, s/2)^2.

Everything here is exact rational-function arithmetic in Z[T]; numeric
L-values are a secondary check done in high-precision floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Union

from . import spinstruct
from .arith import Rat, check_power, is_prime
from .errors import NotPrime, ZeroInput

#: working precision for numeric L-values; well beyond the 1e-12 tolerance
NUMERIC_DPS = 40

IntPoly = tuple[int, ...]


def _trim(c: tuple[int, ...]) -> IntPoly:
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def poly_add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    return _trim(
        tuple(
            (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
            for i in range(n)
        )
    )


def poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(tuple(out))


def poly_eval(f: IntPoly, t: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(f):
        out = out * t + c
    return out


def _content(f: IntPoly) -> int:
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    return g or 1


def _primitive(f: IntPoly) -> IntPoly:
    c = _content(f)
    return tuple(x // c for x in f)


def _prem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder of f by g in Z[T]: scale by g's lead, never divide."""
    a, lead = list(f), g[-1]
    while len(a) >= len(g):
        top, shift = a.pop(), len(a) - len(g) + 1
        if top:
            a = [x * lead for x in a]
            for i, c in enumerate(g[:-1]):
                a[shift + i] -= top * c
    return _trim(tuple(a)) if a else (0,)


def _poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[T] with positive lead, by the primitive remainder
    sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    a, b = _primitive(f), _primitive(g)
    while any(b):
        a, b = b, _primitive(_prem(a, b))
    return a if a[-1] > 0 else tuple(-c for c in a)


def poly_str(f: IntPoly, var: str = "T") -> str:
    if all(c == 0 for c in f):
        return "0"
    parts = []
    for e, c in enumerate(f):
        if c == 0:
            continue
        if e == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            pow_ = var if e == 1 else f"{var}^{e}"
            term = ("-" if c < 0 else "") + mag + pow_
        if parts and not term.startswith("-"):
            term = "+" + term
        parts.append(term)
    return "".join(parts)


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms over Z[T].

    Normalization: gcd(num, den) = 1, both primitive up to a single rational
    unit carried on the numerator content, and den has positive leading
    coefficient.  Construction from any integer-coefficient pair reduces to
    this form, so equality is plain field equality in Q(T).
    """

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        num, den = _trim(tuple(self.num)), _trim(tuple(self.den))
        if all(c == 0 for c in den):
            raise ZeroInput("zero denominator")
        if all(c == 0 for c in num):
            object.__setattr__(self, "num", (0,))
            object.__setattr__(self, "den", (1,))
            return
        g = _poly_gcd(num, den)
        if len(g) > 1 or g[0] != 1:
            num = _poly_divexact(num, g)
            den = _poly_divexact(den, g)
        c = gcd(_content(num), _content(den))
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
        if den[-1] < 0:
            num = tuple(-x for x in num)
            den = tuple(-x for x in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def reciprocal(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

    def evaluate(self, t: Rat) -> Fraction:
        t = Fraction(t)
        den = poly_eval(self.den, t)
        if den == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return poly_eval(self.num, t) / den

    def is_polynomial(self) -> bool:
        return self.den == (1,)

    def __str__(self) -> str:
        ns, ds = poly_str(self.num), poly_str(self.den)
        if self.den == (1,):
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"


def _poly_divexact(f: IntPoly, g: IntPoly) -> IntPoly:
    """f / g for a primitive g that divides f over Q; the quotient is in Z[T]
    by Gauss's lemma, so every step divides exactly by g's lead."""
    a = list(f)
    out = [0] * (len(f) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        coef, r = divmod(a[k + len(g) - 1], g[-1])
        assert r == 0, "inexact polynomial division"
        out[k] = coef
        for i, c in enumerate(g):
            a[k + i] -= coef * c
    assert not any(a), "inexact polynomial division"
    return _trim(tuple(out))


def _check_pn(p: int, n: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    check_power(p, 2 * n)


def zeta_spin(p: int, n: int) -> RationalFunction:
    """Z(rho_spin, T) = 1/(1 + p^n T^2): reciprocal roots +-sqrt(-p^n)."""
    _check_pn(p, n)
    return RationalFunction((1,), (1, 0, p**n))


def zeta_h1(p: int, n: int) -> RationalFunction:
    """Z(H^1 of the tau = -p^n class, T) = (1 + p^n T)^2."""
    _check_pn(p, n)
    lin = (1, p**n)
    return RationalFunction(poly_mul(lin, lin), (1,))


@dataclass(frozen=True)
class IdentityProof:
    """Both sides of L(E, s) = L(rho_spin, s/2)^2 as elements of Q(U), U = q^-s.

    `vacuous` records whether the spinorial class tau = -p^n actually admits
    an arithmetic spin structure; the polynomial identity holds regardless,
    but only carries spin content when it does.
    """

    p: int
    n: int
    lhs: RationalFunction
    rhs: RationalFunction
    holds: bool
    vacuous: bool


def verify_identity_exact(p: int, n: int) -> IdentityProof:
    """Build both sides of the identity independently and compare exactly.

    In U = q^-s: L(E, s) = 1/Z-numerator = 1/(1 + p^n U)^2 from zeta_h1,
    while L(rho_spin, s/2) = 1/(1 + q^(1/2) q^-s) = 1/(1 + p^n U), squared.
    """
    _check_pn(p, n)
    lhs = zeta_h1(p, n).reciprocal()
    half = RationalFunction((1,), (1, p**n))
    rhs = half * half
    vacuous = n % 2 == 0 and not spinstruct.pure_unit_exists(p)
    return IdentityProof(p, n, lhs, rhs, lhs == rhs, vacuous)


if TYPE_CHECKING:
    import mpmath

Real = Union[Fraction, "mpmath.mpf"]


def q_power(p: int, n: int, e: Fraction) -> Real:
    """q^e for q = p^(2n): exact Fraction when 2n*e is integral, else mpf.

    An exact power p^(2ne) must lie below the limit of arith.check_power.
    mpmath is imported on the first inexact exponent, so `import spinel`
    does not load it.
    """
    e2 = Fraction(e) * 2 * n
    if e2.denominator == 1:
        check_power(p, abs(e2.numerator))
        return Fraction(p) ** e2.numerator
    import mpmath

    with mpmath.workdps(NUMERIC_DPS):
        return mpmath.power(p, mpmath.mpf(e2.numerator) / e2.denominator)


@dataclass(frozen=True)
class LValues:
    """Numeric (or exact, when possible) L-values at a rational s."""

    s: Fraction
    l_curve: Real          # L(E, s)
    l_spin: Real           # L(rho_spin, s)
    l_spin_half: Real      # L(rho_spin, s/2)
    l_spin_half_sq: Real   # L(rho_spin, s/2)^2


def l_values(p: int, n: int, s: Rat) -> LValues:
    """Evaluate L(E, s), L(rho_spin, s) and L(rho_spin, s/2)^2.

    Exact rational answers are returned whenever q^(1/2 - s) resp.
    q^(1/2 - 2s) is rational; otherwise mpf at NUMERIC_DPS digits.
    """
    _check_pn(p, n)
    s = Fraction(s)

    def inv(x):
        return 1 / (1 + x)

    le = inv(q_power(p, n, Fraction(1, 2) - s)) ** 2
    lspin = inv(q_power(p, n, Fraction(1, 2) - 2 * s))
    lhalf = inv(q_power(p, n, Fraction(1, 2) - s))
    return LValues(s, le, lspin, lhalf, lhalf**2)


GaussianInt = tuple[int, int]  # re + im*i
GaussPoly = tuple[GaussianInt, ...]


def _gauss_mul_poly(f: GaussPoly, g: GaussPoly) -> GaussPoly:
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for a, (ar, ai) in enumerate(f):
        for b, (br, bi) in enumerate(g):
            re, im = out[a + b]
            out[a + b] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return tuple(out)


@dataclass(frozen=True)
class GaussianFactorization:
    """1 + p^n T^2 = (1 + i sqrt(p^n) T)(1 - i sqrt(p^n) T) over Q(i), in V.

    Stated in V = p^(n/2) T = q^(1/4 - s): the factors are 1 +- iV and the
    product is 1 + V^2, whose V^2 -> q^(1/2 - 2s) substitution is the
    L(rho_spin, s) denominator.
    """

    p: int
    n: int
    factors: tuple[GaussPoly, GaussPoly]
    product: IntPoly


def factor_over_gaussians(p: int, n: int) -> GaussianFactorization:
    """Split the spin zeta denominator into the two Gaussian linear factors."""
    _check_pn(p, n)
    f1: GaussPoly = ((1, 0), (0, 1))    # 1 + iV
    f2: GaussPoly = ((1, 0), (0, -1))   # 1 - iV
    prod = _gauss_mul_poly(f1, f2)
    assert all(im == 0 for _, im in prod)
    rational = _trim(tuple(re for re, _ in prod))
    assert rational == (1, 0, 1)  # 1 + V^2
    return GaussianFactorization(p, n, (f1, f2), rational)
