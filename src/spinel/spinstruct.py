"""Arithmetic spin structures on supersingular curves and their spin lifts.

Fix a spinorial isogeny class over F_q, q = p^(2n), so the endomorphism
algebra is B = B_{p,oo} and Frobenius is the rational scalar tau = -+p^n.
An arithmetic spin structure is an orthogonal involution sigma on B such
that tau, viewed in GO+(B, sigma) = K*, lifts through the squaring cover
GSpin -> GO+; equivalently sqrt(tau) exists in K = Q[x]/(x^2 - disc sigma).

Existence is sharp:

* n odd: a structure exists iff tau = -p^n, and then disc = -p^n (the
  square class of -p, or -2 for p = 2), realized by u = p^((n-1)/2) * v for
  any pure v with v^2 = -p.
* n even: a structure exists iff tau = -p^n and B contains a pure
  quaternion of norm 1 (so disc = -1 and K = Q(i)); the norm condition
  holds iff p = 2 or p = 3 mod 4, exactly when quat.b_p_infty(p) is
  presented with a = -1, so that i has norm 1.

spinorial_class(p, n, sign) is the one check of (p, n) and is memoised per
(p, n, sign).  The certificate of has_arithmetic_spin is the one place that
decides existence: its witness u is read off that presentation, or is None.
The one constructor for both parities, construct_arithmetic_spin(p, n),
takes u from it and is memoised per (p, n).  lfunc reads the identity's spin
side off the structure's lift, and `vacuous` off its absence.  The lifted
Frobenius (sqrt(tau), -sqrt(tau)) is the weight-1/2 eigenvalue datum: the
weight is read off the lift as v_p(N(z)) / v_p(q) = 1/2, and the
crystalline Frobenius x-multiplication has normalized slope 1/4.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import quat
from .arith import check_power, is_prime_named, valuation
from .errors import BoundExceeded, NotPrime, PrecheckFailed
from .isogeny import ENDO_QUATERNION, KIND_SUPERSINGULAR, IsogenyClass, frobenius_scalar
from .quat import Quaternion, QuaternionAlgebra
from .spinspace import EtaleElement, OrthogonalInvolution, QuadraticEtale


@dataclass(frozen=True)
class SpinStructure:
    """An arithmetic spin structure: (class, B_{p,oo}, sigma, even Clifford K)."""

    curve_class: IsogenyClass
    algebra: QuaternionAlgebra
    sigma: OrthogonalInvolution
    clifford: QuadraticEtale

    @property
    def tau(self) -> int:
        return frobenius_scalar(self.curve_class)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.to_json(),
            "u": self.sigma.u.to_json(),
            "disc": self.sigma.discriminant(),
            "delta": self.clifford.delta,
            "tau": self.tau,
        }


@dataclass(frozen=True)
class SpinExistence:
    """Certificate for has_arithmetic_spin: the witness u, or None if none exists."""

    witness: Optional[Quaternion]

    @property
    def exists(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class WeilRep:
    """The similitude representation: geometric Frobenius acts by tau in GO+."""

    structure: SpinStructure
    tau: int


@dataclass(frozen=True)
class SpinLift:
    """A lift through GSpin -> GO+: z in K with z^2 = tau.

    The two weight-1/2 Frobenius eigenvalues are z and -z; they agree up to
    the choice of square root, which is the mu_2 ambiguity of the cover.
    """

    rep: WeilRep
    z: EtaleElement


@dataclass(frozen=True)
class RealizationData:
    """The realization package for a spin lift.

    ell-adic: eigenvalues +-z with |z|^2 = |tau| = p^n = q^(1/2), so the
    weight v_p(|z|^2) / v_p(q) is 1/2.  ell is only a label: a prime other
    than p.
    crystalline: the Frobenius of the rank-2 crystal is -p^n * (Frobenius of
    the base), and the spin Frobenius is multiplication by x; its square has
    p-valuation n, so the normalized slope is n/(2*2n) = 1/4 exactly.
    """

    ell: int
    eigen_abs_sq: Fraction
    weight: Fraction
    crystal_frobenius: int
    v_p_phi_squared: int
    v_p_q: int
    normalized_slope: Fraction


@lru_cache(maxsize=quat.MEMO_PRIMES, typed=True)
def spinorial_class(p: int, n: int, sign: int = -1) -> IsogenyClass:
    """The spinorial class over F_{p^(2n)} with tau = sign * p^n, clause 2(a).

    The one check of (p, n), in order: p, n and sign integers (read through
    operator.index, so 3.0 raises TypeError), sign = +-1, p prime, n >= 1,
    then q = p^(2n) within the power limit, all before p^n is computed.  A
    bound-exceeded detail starts with p, and with p and n at the power limit.

    Memoised per (p, n, sign) as passed (the class is frozen), at most
    quat.MEMO_PRIMES keys, the least recently used dropped first; typed, so
    3.0 or 1.0 never match a kept 3 or 1.  Errors are raised on every call."""
    p, n, sign = operator.index(p), operator.index(n), operator.index(sign)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not is_prime_named(p, "p = "):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"n = {n} must be positive")
    try:
        check_power(p, 2 * n)
    except BoundExceeded as exc:
        raise BoundExceeded(f"p = {p}, n = {n}: {exc}") from None
    return IsogenyClass(p, 2 * n, 2 * sign * p**n, KIND_SUPERSINGULAR, ENDO_QUATERNION)


def _canonical_u(B: QuaternionAlgebra, p: int, n: int) -> Optional[Quaternion]:
    """The canonical u read off the presentation B = b_p_infty(p), or None.

    With k = p^(n//2): odd n gives u = k v with v^2 = -p, v = j in (-a,-p)
    for odd p and v = i + j in (-1,-1) for p = 2.  Even n gives u = k i when
    a = -1, so that i has norm 1, and None otherwise: b_p_infty takes the
    least a, and a = 1 works exactly when B has a pure quaternion of norm 1
    (p = 2 or p = 3 mod 4).  Nrd(u) = p^n is checked, so a presentation
    that breaks these readings raises AssertionError.
    """
    k = p ** (n // 2)
    if n % 2 == 1:
        nums = (0, 0, k, 0) if p != 2 else (0, k, k, 0)
    elif B.a == -1:
        nums = (0, k, 0, 0)
    else:
        return None
    u = Quaternion(B, nums)
    if u.reduced_norm() != p**n:
        raise AssertionError(f"p = {p}, n = {n}, tau = {-p**n}: Nrd({u}) != p^n in {B}")
    return u


def has_arithmetic_spin(c: IsogenyClass) -> SpinExistence:
    """Decide existence of an arithmetic spin structure for a spinorial class.

    Returns a certificate: the canonical witness u (pure, of the right norm,
    read off B_{p,oo} without a search), or None.  Positive tau never admits
    one: sqrt(p^n) is in no quadratic K = Q(sqrt(negative)), and involutions
    with positive discriminant do not exist on B_{p,oo} because the pure
    norm form is positive definite.  For even n the witness is None when
    B_{p,oo} has no pure quaternion of norm 1 (the local obstruction).
    """
    if frobenius_scalar(c) > 0:  # raises NotSpinorial off clause 2(a)
        return SpinExistence(None)
    return SpinExistence(_canonical_u(quat.b_p_infty(c.p), c.p, c.a // 2))


@lru_cache(maxsize=quat.MEMO_PRIMES, typed=True)
def construct_arithmetic_spin(p: int, n: int) -> Optional[SpinStructure]:
    """The arithmetic spin structure for the class tau = -p^n, or None.

    (p, n) is checked by spinorial_class alone.  u is has_arithmetic_spin's
    witness, read off B_{p,oo} with no search, and None is returned when
    there is none (n even, p = 1 mod 4).

    Memoised per (p, n) (the structure is frozen), at most quat.MEMO_PRIMES
    pairs, the least recently used dropped first; typed, so 3.0 or True
    never match a kept 3 or 1.  Errors are raised on every call.
    """
    c = spinorial_class(p, n, -1)
    u = has_arithmetic_spin(c).witness
    if u is None:
        return None
    sigma = OrthogonalInvolution(u.algebra, u)
    return SpinStructure(c, sigma.algebra, sigma, sigma.clifford_algebra())


def construct_arithmetic_spin_even(p: int, n: int) -> Optional[SpinStructure]:
    """construct_arithmetic_spin for even n only, as perfbench/workloads.py calls it."""
    if n % 2:
        raise ValueError(f"n = {n} must be even")
    return construct_arithmetic_spin(p, n)


def similitude_rep(s: SpinStructure) -> WeilRep:
    """The (non-spin) Weil representation: Frobenius acts by the scalar tau,
    a proper similitude of B since sigma(tau)tau = tau^2 = q = Nrd(tau)."""
    return WeilRep(s, s.tau)


def spin_lift(r: WeilRep) -> Optional[SpinLift]:
    """A square root of tau in K, i.e. a lift of Frobenius through GSpin.

    Exists iff the class of tau in K*/K*^2 is trivial.  The representative
    with positive leading coordinate is returned; the other lift is -z.
    """
    K = r.structure.clifford
    z = K.sqrt_rational(r.tau)
    if z is None:
        return None
    if (sq := z.square()).dn or (sq.cn, sq.den) != (r.tau.numerator, r.tau.denominator):
        c = r.structure.curve_class
        raise AssertionError(f"p = {c.p}, n = {c.a // 2}, tau = {r.tau}: z^2 != tau for z = {z}")
    return SpinLift(r, z)


def realizations(lift: SpinLift, ell: int | None = None) -> RealizationData:
    """Exact weight-1/2 realization data attached to a spin lift."""
    c = lift.rep.structure.curve_class
    p = c.p
    if ell is None:
        ell = 2 if p != 2 else 3
    if not is_prime_named(ell, "ell = "):
        raise NotPrime(f"ell = {ell} is not prime")
    if ell == p:
        raise PrecheckFailed(
            f"ell = {ell} equals p = {p}: the ell-adic label must differ from p"
        )
    tau = lift.rep.tau
    # K is imaginary (delta < 0 on the definite B_{p,oo}), so |z|^2 = N(z)
    eigen_abs_sq = lift.z.norm()
    # |z|^2 = |tau| = q^(1/2): weight 1/2 purity, exactly
    if eigen_abs_sq != abs(tau) or eigen_abs_sq**2 != c.q:
        raise AssertionError(
            f"p = {p}, n = {c.a // 2}, tau = {tau}: |z|^2 = {eigen_abs_sq} != |tau|"
        )
    v = valuation(eigen_abs_sq, p)  # = v_p(tau) = v_p(phi^2), as |z|^2 = |tau|
    return RealizationData(
        ell=ell,
        eigen_abs_sq=eigen_abs_sq,
        weight=Fraction(v, c.a),  # v_p(q) = a
        crystal_frobenius=tau,
        v_p_phi_squared=v,
        v_p_q=c.a,
        normalized_slope=Fraction(v, 2 * c.a),
    )
