"""Zeta and L-data for the spinorial classes and the weight-1/2 identity.

With q = p^(2n) and tau = -p^n, the spin representation has Frobenius
eigenvalues +-sqrt(tau), so its zeta function in T = q^(-s) collects into

    Z(rho_spin, T) = 1/((1 - sqrt(-p^n) T)(1 + sqrt(-p^n) T)) = 1/(1 + p^n T^2),

while H^1 of any curve in the class has both eigenvalues -p^n:

    Z(H^1, T) = (1 + p^n T)^2.

Hence L(E, s) = 1/(1 + q^(1/2 - s))^2 and L(rho_spin, s) = 1/(1 + q^(1/2 - 2s)),
and the half-substitution gives the exact identity

    L(E, s) = L(rho_spin, s/2)^2.

Everything here is exact rational-function arithmetic over Z[T], with
equality in Q(T) by cross-multiplication and no reduction; numeric
L-values are a secondary check done in high-precision floating point,
NUMERIC_DPS digits from q^e to the last square, with mpmath imported only
when an exponent makes q^e irrational.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from . import spinstruct
from .arith import Rat, _as_fraction, check_power, is_prime
from .errors import NotPrime, ZeroInput

#: working precision for numeric L-values; well beyond the 1e-12 tolerance
NUMERIC_DPS = 40

IntPoly = tuple[int, ...]


def _trim(c: tuple[int, ...]) -> IntPoly:
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


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


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """num/den over Z[T], kept as built: construction only trims zero
    leading coefficients and refuses a zero denominator.

    Equality is field equality in Q(T), by cross-multiplication, so one
    function has many equal presentations; the class has no hash.  Every
    function the package builds is already in lowest terms.
    """

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        object.__setattr__(self, "num", _trim(tuple(self.num)))
        object.__setattr__(self, "den", _trim(tuple(self.den)))
        if not any(self.den):
            raise ZeroInput("zero denominator")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def reciprocal(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

    def evaluate(self, t: Rat) -> Fraction:
        t = _as_fraction(t)
        den = poly_eval(self.den, t)
        if den == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return poly_eval(self.num, t) / den

    def __str__(self) -> str:
        ns, ds = poly_str(self.num), poly_str(self.den)
        if self.den == (1,):
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"


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
    e2 = _as_fraction(e) * 2 * n
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
    q^(1/2 - 2s) is rational; otherwise mpf, with every step from q^e on
    rounded at NUMERIC_DPS digits.
    """
    _check_pn(p, n)
    s = _as_fraction(s)
    half = q_power(p, n, Fraction(1, 2) - s)
    spin = q_power(p, n, Fraction(1, 2) - 2 * s)
    precision = nullcontext()
    if not (isinstance(half, Fraction) and isinstance(spin, Fraction)):
        import mpmath

        precision = mpmath.workdps(NUMERIC_DPS)
    with precision:
        lhalf, lspin = 1 / (1 + half), 1 / (1 + spin)
        lsq = lhalf**2
    return LValues(s, lsq, lspin, lhalf, lsq)


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
