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
  holds iff p = 2 or p = 3 mod 4.

The lifted Frobenius (sqrt(tau), -sqrt(tau)) is the weight-1/2 eigenvalue
datum: |eigenvalue|^2 = p^n = sqrt(q) exactly, and the crystalline Frobenius
x-multiplication has normalized slope 1/4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import quat
from .arith import check_power, squarefree_part, ternary_represents, valuation
from .errors import NotSpinorial, PrecheckFailed, SearchExhausted, ZeroInput
from .isogeny import IsogenyClass, frobenius_scalar, isogeny_class
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
    """Certificate for has_arithmetic_spin: witness u or the failure reason."""

    exists: bool
    witness: Optional[Quaternion]
    reason: str


@dataclass(frozen=True)
class WeilRep:
    """The similitude representation: geometric Frobenius acts by tau in GO+."""

    structure: SpinStructure
    tau: int

    def evaluate(self, m: int) -> Fraction:
        """Value on the m-th power of geometric Frobenius."""
        return Fraction(self.tau) ** m


@dataclass(frozen=True)
class SpinLift:
    """A lift through GSpin -> GO+: z in K with z^2 = tau.

    The two weight-1/2 Frobenius eigenvalues are z and -z; they agree up to
    the choice of square root, which is the mu_2 ambiguity of the cover.
    """

    rep: WeilRep
    z: EtaleElement

    def evaluate(self, m: int) -> tuple[EtaleElement, EtaleElement]:
        """Eigenvalue pair on the m-th power of geometric Frobenius."""
        return (self.z**m, (-self.z) ** m)


@dataclass(frozen=True)
class RealizationData:
    """The realization package for a spin lift.

    ell-adic: eigenvalues +-z with |z|^2 = |tau| = p^n = q^(1/2), i.e. pure
    of weight 1/2.  ell is only a label and must differ from p.
    crystalline: the Frobenius of the rank-2 crystal is -p^n * (Frobenius of
    the base), and the spin Frobenius is multiplication by x; its square has
    p-valuation n, so the normalized slope is n/(2*2n) = 1/4 exactly.
    """

    ell: int
    eigenvalues: tuple[EtaleElement, EtaleElement]
    eigen_abs_sq: Fraction
    weight: Fraction
    crystal_frobenius: int
    phi_description: str
    v_p_phi_squared: int
    v_p_q: int
    normalized_slope: Fraction


def spinorial_class(p: int, n: int, sign: int = -1) -> IsogenyClass:
    """The spinorial class over F_{p^(2n)} with tau = sign * p^n."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    check_power(p, 2 * n)  # before computing p^n
    return isogeny_class(p, 2 * n, 2 * sign * p**n)


@lru_cache(maxsize=quat.MEMO_PRIMES)
def pure_unit_exists(p: int) -> bool:
    """Whether B_{p,oo} has a pure quaternion of norm 1, memoised per p.

    Decided by local-global reduction of the pure norm form; it holds iff
    p = 2 or p = 3 mod 4.  This is the existence condition for even n.
    """
    return ternary_represents(quat.b_p_infty(p).pure_norm_coefficients(), 1)


@lru_cache(maxsize=quat.MEMO_PRIMES)
def _unit_witness(p: int, bound: int) -> Quaternion:
    """The first pure v with Nrd(v) = 1 in box `bound`, for p with a pure unit."""
    v = quat.find_pure_of_norm(quat.b_p_infty(p), 1, bound)
    if v is None:
        # represented over Q but not in the search box: enlarge, do not guess
        raise SearchExhausted(f"norm-1 witness exists but exceeds box {bound}")
    return v


def has_arithmetic_spin(
    c: IsogenyClass, bound: int = quat.DEFAULT_SEARCH_BOUND
) -> SpinExistence:
    """Decide existence of an arithmetic spin structure for a spinorial class.

    Returns a certificate: a witness u (pure, of the right norm) on success,
    a reason string on failure.  Positive tau never admits one: sqrt(p^n)
    is in no quadratic K = Q(sqrt(negative)), and involutions with positive
    discriminant do not exist on B_{p,oo} because the pure norm form is
    positive definite.
    """
    if not c.is_spinorial():
        raise NotSpinorial(f"{c} is not spinorial")
    tau = frobenius_scalar(c)
    p, n = c.p, c.a // 2
    if tau > 0:
        return SpinExistence(
            False, None, f"tau = +{tau}: no square root in an imaginary quadratic K"
        )
    if n % 2 == 1:
        u = _odd_u(quat.b_p_infty(p), p, n, bound)
        return SpinExistence(True, u, f"disc -{p}^{n}: u = {u}")
    if not pure_unit_exists(p):
        return SpinExistence(
            False, None, "no pure quaternion of norm 1 in B_{p,oo} (local obstruction)"
        )
    u = _unit_witness(p, bound) * p ** (n // 2)
    return SpinExistence(True, u, f"disc -1: u = {u}")


def _odd_u(
    B: QuaternionAlgebra, p: int, n: int, bound: int, rng: random.Random | None = None
) -> Quaternion:
    """u = p^((n-1)/2) * v with v pure of norm p, for odd n.

    Without an rng v is canonical: for odd p the presentation (-a,-p) makes
    v = j immediate, and for p = 2 a short search finds i + j in (-1,-1).
    An rng searches the box for v in a random order instead.
    """
    if rng is None and B.b == -p:
        v = B.j
    else:
        v = quat.find_pure_of_norm(B, p, bound, rng)
        if v is None:
            raise SearchExhausted(f"no pure quaternion of norm {p} in box {bound}")
    return v * p ** ((n - 1) // 2)


def construct_arithmetic_spin(
    p: int,
    n: int,
    bound: int = quat.DEFAULT_SEARCH_BOUND,
    rng: random.Random | None = None,
) -> SpinStructure:
    """The arithmetic spin structure for the class tau = -p^n, n odd.

    The structure is u = p^((n-1)/2) * v with v pure and v^2 = -p.  By
    default v is the canonical witness (j, or i + j for p = 2); passing an
    rng instead searches for any pure v of norm p in a random order.  All
    routes produce involutions of discriminant class squarefree_part(-p),
    hence isomorphic structures.
    """
    if n < 1 or n % 2 == 0:
        raise ZeroInput(f"n = {n}: this construction needs odd n >= 1")
    c = spinorial_class(p, n, -1)
    B = quat.b_p_infty(p)
    sigma = OrthogonalInvolution(B, _odd_u(B, p, n, bound, rng))
    return SpinStructure(c, B, sigma, sigma.clifford_algebra())


def construct_arithmetic_spin_even(
    p: int, n: int, bound: int = quat.DEFAULT_SEARCH_BOUND
) -> Optional[SpinStructure]:
    """The arithmetic spin structure for tau = -p^n with n even, if any.

    Exists iff B_{p,oo} has a pure quaternion of norm 1; then
    u = p^(n/2) * v gives disc class -1 and K = Q(i).  Returns None when the
    norm-1 condition fails (p = 1 mod 4).
    """
    if n < 2 or n % 2 == 1:
        raise ZeroInput(f"n = {n}: this construction needs even n >= 2")
    c = spinorial_class(p, n, -1)
    cert = has_arithmetic_spin(c, bound)
    if not cert.exists:
        return None
    sigma = OrthogonalInvolution(cert.witness.algebra, cert.witness)
    return SpinStructure(c, sigma.algebra, sigma, sigma.clifford_algebra())


def similitude_rep(s: SpinStructure) -> WeilRep:
    """The (non-spin) Weil representation: Frobenius acts by the scalar tau.

    tau is a proper similitude: sigma(tau)tau = tau^2 = q = Nrd(tau).
    """
    tau = s.tau
    g = s.algebra.scalar(tau)
    assert s.sigma.is_proper_similitude(g)
    return WeilRep(s, tau)


def spin_lift(r: WeilRep) -> Optional[SpinLift]:
    """A square root of tau in K, i.e. a lift of Frobenius through GSpin.

    Exists iff the class of tau in K*/K*^2 is trivial.  The representative
    with positive leading coordinate is returned; the other lift is -z.
    """
    K = r.structure.clifford
    z = K.sqrt_rational(r.tau)
    if z is None:
        return None
    assert z.square() == K.element(r.tau)
    return SpinLift(r, z)


def realizations(lift: SpinLift, ell: int | None = None) -> RealizationData:
    """Exact weight-1/2 realization data attached to a spin lift."""
    s = lift.rep.structure
    p, n = s.curve_class.p, s.curve_class.a // 2
    if ell is None:
        ell = 2 if p != 2 else 3
    if ell == p:
        raise PrecheckFailed(
            f"ell = {ell} equals p = {p}: the ell-adic label must differ from p"
        )
    tau = lift.rep.tau
    z = lift.z
    eigen_abs_sq = z.norm() if z.ring.delta < 0 else Fraction(abs(tau))
    # |z|^2 = |tau| = p^n = q^(1/2): weight 1/2 purity, exactly
    assert eigen_abs_sq == Fraction(abs(tau)) == Fraction(p) ** n
    v_phi_sq = valuation(Fraction(tau), p)
    v_q = 2 * n
    return RealizationData(
        ell=ell,
        eigenvalues=(z, -z),
        eigen_abs_sq=eigen_abs_sq,
        weight=Fraction(1, 2),
        crystal_frobenius=tau,
        phi_description="multiplication by x",
        v_p_phi_squared=v_phi_sq,
        v_p_q=v_q,
        normalized_slope=Fraction(v_phi_sq, 2 * v_q),
    )


def spin_discriminant(p: int, n: int) -> int:
    """The forced discriminant class: squarefree_part(-p^n)."""
    return squarefree_part(-(Fraction(p) ** n))
