"""Zeta and L-data for the spinorial classes and the weight-1/2 identity.

Each function reads q = p^(2n), beta = -2p^n and tau = beta/2 = -p^n off
spinstruct.spinorial_class(p, n, -1); the sign is passed, as
construct_arithmetic_spin passes it, so all of them share one key of that
memo.  H^1 of a curve in the class has both Frobenius eigenvalues tau and
the spin representation has +-sqrt(tau), so in T = q^(-s)

    Z(H^1, T) = 1 - beta T + q T^2,    Z(rho_spin, T) = 1/(1 - tau T^2).

In U = q^-s, L(E, s) = 1/Z(H^1, U), and L(rho_spin, s/2) is the spin zeta
with T^2 replaced by U; its square gives the exact identity

    L(E, s) = L(rho_spin, s/2)^2.

verify_identity_exact writes both sides as closed forms, with no product
in Q(T): the lhs is 1/(1 - beta U + q U^2) off the class, and the rhs is
b^2/(b^2 - 2ab U + a^2 U^2), which is 1/(1 - z^2 U)^2 for z^2 = a/b, where
z is the square root of tau in K that lifts Frobenius through the memoised
spin structure, and z^2 is computed in K.  When no structure exists (the
vacuous case) there is no lift, and the rhs keeps tau.

Hence L(E, s) = 1/(1 + q^(1/2 - s))^2 and L(rho_spin, s) = 1/(1 + q^(1/2 - 2s)).
The zeta functions are kept as built over Z[T], with equality in Q(T) by
cross-multiplication and no reduction.  Numeric L-values are a secondary
check in ints: an L-value whose power q^e is rational is an exact Fraction,
and one whose power is irrational is a Decimal correctly rounded to
NUMERIC_DPS digits from integer bounds on q^e, the integer d-th root of
p^|k| 2^(md) for 2n e = k/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import log2
from typing import Union

from . import spinstruct
from .arith import Rat, _as_fraction, check_power
from .errors import BoundExceeded, ZeroInput
from .isogeny import IsogenyClass, frobenius_scalar

#: digits of an inexact L-value, each correctly rounded
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


def poly_str(f: IntPoly) -> str:
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
            pow_ = "T" if e == 1 else f"T^{e}"
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


def _h1(c: IsogenyClass) -> IntPoly:
    """1 - beta T + q T^2, the coefficients of Z(H^1, T)."""
    return (1, -c.beta, c.q)


def zeta_spin(p: int, n: int) -> RationalFunction:
    """Z(rho_spin, T) = 1/(1 - tau T^2): reciprocal roots +-sqrt(tau)."""
    tau = frobenius_scalar(spinstruct.spinorial_class(p, n, -1))
    return RationalFunction((1,), (1, 0, -tau))


def zeta_h1(p: int, n: int) -> RationalFunction:
    """Z(H^1 of the tau = -p^n class, T) = 1 - beta T + q T^2."""
    return RationalFunction(_h1(spinstruct.spinorial_class(p, n, -1)), (1,))


@dataclass(frozen=True)
class IdentityProof:
    """Both sides of L(E, s) = L(rho_spin, s/2)^2 as elements of Q(U), U = q^-s.

    `vacuous` records that the spinorial class tau = -p^n admits no
    arithmetic spin structure, so that the rhs keeps tau; the polynomial
    identity holds regardless, but only carries spin content when a
    structure exists.  `holds` also asks the lift's z^2 to be rational.
    """

    lhs: RationalFunction
    rhs: RationalFunction
    holds: bool
    vacuous: bool


def verify_identity_exact(p: int, n: int) -> IdentityProof:
    """Compare L(E, s) = 1/Z(H^1, U) with L(rho_spin, s/2)^2 exactly.

    The lhs is 1/Z(H^1, U), read off the class, and the rhs is
    1/(1 - z^2 U)^2 written out, read off the lift: z is the spin lift of
    construct_arithmetic_spin(p, n) (memoised per (p, n)) and z^2 = a/b
    comes from EtaleElement.square.  In the vacuous case there is no
    structure and no lift, and the rhs keeps tau.
    """
    c = spinstruct.spinorial_class(p, n, -1)
    lhs = RationalFunction((1,), _h1(c))
    S = spinstruct.construct_arithmetic_spin(p, n)
    if S is None:
        a, b, rational = frobenius_scalar(c), 1, True
    else:
        lift = spinstruct.spin_lift(spinstruct.similitude_rep(S))
        if lift is None:
            raise AssertionError(f"p = {p}, n = {n}, tau = {S.tau}: tau has no spin lift")
        z2 = lift.z.square()
        a, b, rational = z2.cn, z2.den, z2.is_rational()
    rhs = RationalFunction((b * b,), (b * b, -2 * a * b, a * a))
    return IdentityProof(lhs, rhs, rational and lhs == rhs, S is None)


Real = Union[Fraction, Decimal]

#: the context of every inexact L-value, whatever the caller's decimal context;
#: pinned in full, since a Context copies what it is not given from
#: decimal.DefaultContext, which a caller may have changed
_CTX = Context(
    prec=NUMERIC_DPS, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[]
)

#: working bits m of the first root; about 27 bits beyond NUMERIC_DPS digits
_ROOT_BITS = 4 * NUMERIC_DPS


def _iroot(a: int, d: int) -> int:
    """floor(a^(1/d)) for a >= 1 and d >= 2, by integer Newton.

    By AM-GM one step from any y > 0 lands on or above the floor root, and
    from there the steps fall to it; a float guess makes them few.
    """
    shift = max(a.bit_length() - 53, 0)
    e = (log2(a >> shift) + shift) / d  # log2 of the root, to float accuracy
    t = max(int(e) - 52, 0)

    def step(y: int) -> int:
        return ((d - 1) * y + a // y ** (d - 1)) // d

    y = step(max(int(2.0 ** (e - t)), 1) << t)
    z = step(y)
    while z < y:
        y, z = z, step(z)
    return y


def _reciprocal_powers(p: int, e: Fraction, powers: tuple[int, ...]) -> list[Real]:
    """(1/(1 + x))^j for x = p^e, e = k/d, and each j in powers.

    p^|k| must lie below the exact power limit of arith.check_power.  For
    d = 1 the values are Fractions built from p^|k|.  Otherwise x is
    irrational, and r = floor(2^m p^(|k|/d)) bounds it strictly:
    r < 2^m p^(|k|/d) < r + 1.  Each value then lies strictly between two
    ratios of ints; both are divided at NUMERIC_DPS digits, and m is
    doubled until they round alike, so the value returned is the true one
    correctly rounded.
    """
    k, d = e.numerator, e.denominator
    pk = p ** abs(k)
    if d == 1:
        a, b = (1, 1 + pk) if k >= 0 else (pk, pk + 1)
        return [Fraction(a**j, b**j) for j in powers]
    m = _ROOT_BITS
    while True:
        r, one = _iroot(pk << (m * d), d), 1 << m
        # 1/(1 + x) lies strictly between a/b and c/f
        if k > 0:
            a, b, c, f = one, one + r + 1, one, one + r
        else:
            a, b, c, f = r, r + one, r + 1, r + 1 + one
        lo = [_CTX.divide(a**j, b**j) for j in powers]
        if lo == [_CTX.divide(c**j, f**j) for j in powers]:
            return lo
        m *= 2


@dataclass(frozen=True)
class LValues:
    """Exact L-values at a rational s, or correctly rounded 40-digit ones."""

    s: Fraction
    l_curve: Real          # L(E, s)
    l_spin: Real           # L(rho_spin, s)
    l_spin_half: Real      # L(rho_spin, s/2)
    l_spin_half_sq: Real   # L(rho_spin, s/2)^2


def l_values(p: int, n: int, s: Rat) -> LValues:
    """Evaluate L(E, s), L(rho_spin, s) and L(rho_spin, s/2)^2.

    L(rho_spin, s/2) = 1/(1 + q^(1/2 - s)) and L(rho_spin, s) =
    1/(1 + q^(1/2 - 2s)).  Each value is an exact Fraction when its power
    of q is rational, and otherwise a Decimal: the true value correctly
    rounded to NUMERIC_DPS digits.
    """
    spinstruct.spinorial_class(p, n, -1)  # checks (p, n)
    s = _as_fraction(s)
    # the exponents of p, 2n(1/2 - s) and 2n(1/2 - 2s), in lowest terms
    half, spin = (Fraction(n * (s.denominator - c * s.numerator), s.denominator) for c in (2, 4))
    # both numerators are bounded before either root; 2 half - spin = n bounds both
    # denominators too (d <= 4 max |k|), though a small |k| may come with a huge d
    try:
        for e in (half, spin):
            check_power(p, abs(e.numerator))
    except BoundExceeded as exc:
        raise BoundExceeded(f"p = {p}, n = {n}, s = {s}: {exc}") from None
    lhalf, lsq = _reciprocal_powers(p, half, (1, 2))
    (lspin,) = _reciprocal_powers(p, spin, (1,))
    return LValues(s, lsq, lspin, lhalf, lsq)


@dataclass(frozen=True)
class GaussianFactorization:
    """1 + p^n T^2 = (1 + i sqrt(p^n) T)(1 - i sqrt(p^n) T) over Q(i), in V.

    Stated in V = p^(n/2) T = q^(1/4 - s): the factors are 1 +- iV and the
    product is 1 + V^2, whose V^2 -> q^(1/2 - 2s) substitution is the
    L(rho_spin, s) denominator.
    """

    product: IntPoly


def factor_over_gaussians(p: int, n: int) -> GaussianFactorization:
    """The spin zeta denominator 1 + V^2 = (1 + iV)(1 - iV), the same for every (p, n)."""
    spinstruct.spinorial_class(p, n, -1)  # checks (p, n)
    return GaussianFactorization((1, 0, 1))
